package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

func TestCreateReadApply(t *testing.T) {
	s := NewStore()
	if err := s.Create(1, 42); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != 42 || v.Num != 0 || !v.Writer.Zero() {
		t.Errorf("initial version = %+v", v)
	}
	w := model.TxnID{Site: 1, Seq: 9}
	nv, err := s.Apply(1, 100, w)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Value != 100 || nv.Num != 1 || nv.Writer != w {
		t.Errorf("applied version = %+v", nv)
	}
	v, _ = s.Read(1)
	if v != nv {
		t.Errorf("read after apply = %+v, want %+v", v, nv)
	}
}

func TestVersionNumbersMonotone(t *testing.T) {
	s := NewStore()
	_ = s.Create(7, 0)
	for i := 1; i <= 5; i++ {
		v, err := s.Apply(7, int64(i), model.TxnID{Site: 0, Seq: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if v.Num != uint64(i) {
			t.Errorf("version %d got Num %d", i, v.Num)
		}
	}
}

func TestDuplicateCreateRejected(t *testing.T) {
	s := NewStore()
	_ = s.Create(1, 0)
	if err := s.Create(1, 0); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestMissingItemErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.Read(5); err == nil {
		t.Error("read of missing item succeeded")
	}
	if _, err := s.Apply(5, 1, model.TxnID{}); err == nil {
		t.Error("apply to missing item succeeded")
	}
	if s.Has(5) {
		t.Error("Has(5) true")
	}
}

func TestSnapshotAndLen(t *testing.T) {
	s := NewStore()
	_ = s.Create(1, 10)
	_ = s.Create(2, 20)
	_, _ = s.Apply(2, 25, model.TxnID{Site: 0, Seq: 1})
	snap := s.Snapshot()
	if snap[1] != 10 || snap[2] != 25 || len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

// TestConcurrentDisjointWriters exercises the structural mutex: writers on
// different items (as the lock manager guarantees) proceed concurrently
// and versions stay per-copy consistent.
func TestConcurrentDisjointWriters(t *testing.T) {
	s := NewStore()
	const items = 8
	for i := 0; i < items; i++ {
		_ = s.Create(model.ItemID(i), 0)
	}
	var wg sync.WaitGroup
	for i := 0; i < items; i++ {
		wg.Add(1)
		go func(item model.ItemID) {
			defer wg.Done()
			for n := 1; n <= 100; n++ {
				v, err := s.Apply(item, int64(n), model.TxnID{Site: model.SiteID(item), Seq: uint64(n)})
				if err != nil || v.Num != uint64(n) {
					t.Errorf("item %d apply %d: %v %v", item, n, v, err)
					return
				}
			}
		}(model.ItemID(i))
	}
	wg.Wait()
	for i := 0; i < items; i++ {
		v, _ := s.Read(model.ItemID(i))
		if v.Num != 100 || v.Value != 100 {
			t.Errorf("item %d final = %+v", i, v)
		}
	}
}

// mvModel is the multiversion store's reference: it keeps every version
// of every item with the install batch that made it current.
type mvModel struct {
	installs uint64
	versions map[model.ItemID][]stamped
	pins     []uint64 // active, with multiplicity
}

func (m *mvModel) readAt(item model.ItemID, pin uint64) Version {
	vs := m.versions[item]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].at <= pin {
			return vs[i].Version
		}
	}
	panic("model: no version at pin")
}

// checkReadAt drives a store and the model with the operations data
// encodes — pin, unpin, install a batch — and after each one compares
// ReadAt at every active pin with the model, and checks that no copy
// keeps more superseded versions than there are distinct active pins.
func checkReadAt(t *testing.T, data []byte) {
	t.Helper()
	const items = 4
	s := NewStore()
	m := &mvModel{versions: make(map[model.ItemID][]stamped)}
	for i := model.ItemID(0); i < items; i++ {
		_ = s.Create(i, 0)
		m.versions[i] = []stamped{{}}
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for seq := uint64(1); len(data) > 0; seq++ {
		switch op := next(); op % 3 {
		case 0:
			m.pins = append(m.pins, s.Pin())
		case 1:
			if len(m.pins) == 0 {
				continue
			}
			i := int(next()) % len(m.pins)
			s.Unpin(m.pins[i])
			m.pins = append(m.pins[:i], m.pins[i+1:]...)
		case 2:
			mask := next()%(1<<items-1) + 1
			var writes []model.WriteOp
			for i := model.ItemID(0); i < items; i++ {
				if mask&(1<<i) != 0 {
					writes = append(writes, model.WriteOp{Item: i, Value: int64(seq)})
				}
			}
			writer := model.TxnID{Site: 0, Seq: seq}
			if err := s.ApplyAll(writes, writer); err != nil {
				t.Fatal(err)
			}
			m.installs++
			for _, w := range writes {
				vs := m.versions[w.Item]
				ver := Version{Value: w.Value, Num: vs[len(vs)-1].Num + 1, Writer: writer}
				m.versions[w.Item] = append(vs, stamped{Version: ver, at: m.installs})
			}
		}
		distinct := make(map[uint64]bool)
		for _, p := range m.pins {
			distinct[p] = true
			for i := model.ItemID(0); i < items; i++ {
				got, err := s.ReadAt(i, p)
				if err != nil {
					t.Fatalf("ReadAt(%d, %d): %v", i, p, err)
				}
				if want := m.readAt(i, p); got != want {
					t.Fatalf("ReadAt(%d, %d) = %+v, want %+v", i, p, got, want)
				}
			}
		}
		for i := model.ItemID(0); i < items; i++ {
			if n := len(s.items[i].old); n > len(distinct) {
				t.Fatalf("item %d keeps %d old versions with %d active pins", i, n, len(distinct))
			}
			if cur, _ := s.Read(i); cur != m.readAt(i, m.installs) {
				t.Fatalf("Read(%d) = %+v, want the newest version", i, cur)
			}
		}
	}
}

// FuzzReadAt checks snapshot reads against a model that keeps every
// version (checkReadAt).
func FuzzReadAt(f *testing.F) {
	f.Add([]byte{0, 2, 15, 0, 2, 1, 1, 0, 2, 3})
	f.Add([]byte{0, 0, 2, 15, 1, 1, 2, 15, 0, 2, 4, 1, 0, 1, 0})
	f.Fuzz(checkReadAt)
}

// TestReadAtMatchesFullHistory runs checkReadAt on seeded random
// operation sequences, so plain `go test` explores more than the fuzz
// corpus.
func TestReadAtMatchesFullHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		data := make([]byte, 10+rng.Intn(200))
		rng.Read(data)
		checkReadAt(t, data)
	}
}

// TestPinNeverSeesHalfABatch: concurrent snapshot readers see each
// ApplyAll batch whole or not at all. Every batch writes one value to
// every item, so a pin must read the same value everywhere. Run it under
// -race.
func TestPinNeverSeesHalfABatch(t *testing.T) {
	const items = 8
	s := NewStore()
	writes := make([]model.WriteOp, items)
	for i := range writes {
		_ = s.Create(model.ItemID(i), 0)
		writes[i].Item = model.ItemID(i)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				pin := s.Pin()
				first, _ := s.ReadAt(0, pin)
				for i := 1; i < items; i++ {
					v, err := s.ReadAt(model.ItemID(i), pin)
					if err != nil || v.Value != first.Value {
						t.Errorf("pin %d: item %d = %+v (%v), item 0 = %+v", pin, i, v, err, first)
					}
				}
				s.Unpin(pin)
			}
		}()
	}
	for n := 1; n <= 2000; n++ {
		for i := range writes {
			writes[i].Value = int64(n)
		}
		if err := s.ApplyAll(writes, model.TxnID{Site: 0, Seq: uint64(n)}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestApplyAllWithPinAllocatesNothing: once a copy's chain has grown, an
// install that must keep the version a pin reads, and the unpin that
// drops it, allocate nothing.
func TestApplyAllWithPinAllocatesNothing(t *testing.T) {
	s := NewStore()
	writes := []model.WriteOp{{Item: 0, Value: 1}, {Item: 1, Value: 2}}
	for _, w := range writes {
		_ = s.Create(w.Item, 0)
	}
	seq := uint64(0)
	run := func() {
		seq++
		pin := s.Pin()
		if err := s.ApplyAll(writes, model.TxnID{Site: 0, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.ReadAt(0, pin); v.Num != seq-1 {
			t.Fatalf("pinned read = %+v, want version %d", v, seq-1)
		}
		s.Unpin(pin)
	}
	run() // warm-up: grows the pin list and the chains
	if n := testing.AllocsPerRun(1000, run); n != 0 {
		t.Fatalf("ApplyAll under a pin allocates %v times, want 0", n)
	}
	if len(s.chained) != 0 || len(s.items[0].old) != 0 {
		t.Fatalf("chains not trimmed after the last unpin: %d chained", len(s.chained))
	}
}

func TestApplyAllIsAllOrNothing(t *testing.T) {
	s := NewStore()
	_ = s.Create(1, 0)
	if err := s.ApplyAll([]model.WriteOp{{Item: 1, Value: 5}, {Item: 2, Value: 6}}, model.TxnID{Site: 0, Seq: 1}); err == nil {
		t.Fatal("ApplyAll to a missing copy succeeded")
	}
	if v, _ := s.Read(1); v.Num != 0 {
		t.Fatalf("a failed batch installed %+v", v)
	}
}

// TestSnapshotReadsSeeWholeBatches races lock-free readers against
// installers. Snapshot readers pin, read every item and unpin in a loop
// while ApplyAll batches write one counter value to all of them: every
// pin must see one value across the items, and ReadAt at an active pin
// must never fail. Meanwhile Read runs against Apply on an item of its
// own, whose every install writes a value equal to its version number: a
// Read whose Value and Num came from different installs is torn. The
// installers run until every reader has made minRounds rounds. Run it
// under -race.
func TestSnapshotReadsSeeWholeBatches(t *testing.T) {
	const (
		items     = 6
		minRounds = 5000
		solo      = model.ItemID(items) // Apply's item, outside the batches
	)
	s := NewStore()
	writes := make([]model.WriteOp, items)
	for i := range writes {
		_ = s.Create(model.ItemID(i), 0)
		writes[i].Item = model.ItemID(i)
	}
	_ = s.Create(solo, 0)
	snapshot := func() bool {
		pin := s.Pin()
		defer s.Unpin(pin)
		var first Version
		for i := 0; i < items; i++ {
			v, err := s.ReadAt(model.ItemID(i), pin)
			if err != nil {
				t.Errorf("ReadAt(%d, %d) at an active pin: %v", i, pin, err)
				return false
			}
			if i == 0 {
				first = v
			} else if v != first {
				t.Errorf("pin %d: item %d = %+v, item 0 = %+v", pin, i, v, first)
				return false
			}
		}
		return true
	}
	current := func() bool {
		v, err := s.Read(solo)
		if err != nil || v.Value != int64(v.Num) || v.Writer.Seq != v.Num {
			t.Errorf("Read(%d) = %+v (%v): a torn version", solo, v, err)
			return false
		}
		return true
	}
	bodies := []func() bool{snapshot, snapshot, current}
	var slow atomic.Int32 // readers short of minRounds
	slow.Store(int32(len(bodies)))
	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, body := range bodies {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 1; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				if !body() {
					slow.Store(0)
					return
				}
				if n == minRounds {
					slow.Add(-1)
				}
			}
		}()
	}
	var installers sync.WaitGroup
	installers.Add(2)
	go func() {
		defer installers.Done()
		for n := 1; slow.Load() > 0; n++ {
			if _, err := s.Apply(solo, int64(n), model.TxnID{Site: 1, Seq: uint64(n)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer installers.Done()
		for n := 1; slow.Load() > 0; n++ {
			for i := range writes {
				writes[i].Value = int64(n)
			}
			if err := s.ApplyAll(writes, model.TxnID{Site: 0, Seq: uint64(n)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	installers.Wait()
	close(done)
	readers.Wait()
}

// TestPinWordSeesWholeBatches races lock-free pins against installs on
// several stores. Each store has three pinning goroutines and one
// installer whose ApplyAll batches write one counter value to every item
// and whose Apply installs a value of its own to a further item. A pinner
// sometimes takes a second pin while holding the first, so pins of points
// an install has retired are released beside pins of the current one.
// Every pin must read one value across the batch items, never older than
// an earlier pin of the same goroutine; after the last Unpin no pin and no
// superseded version may remain. Run it under -race.
func TestPinWordSeesWholeBatches(t *testing.T) {
	const (
		stores    = 3
		pinners   = 3
		items     = 4
		minRounds = 2000
		solo      = model.ItemID(items) // Apply's item, outside the batches
	)
	var wg sync.WaitGroup
	for st := 0; st < stores; st++ {
		s := NewStore()
		for i := 0; i <= items; i++ {
			_ = s.Create(model.ItemID(i), 0)
		}
		var slow atomic.Int32 // pinners short of minRounds
		slow.Store(pinners)
		read := func(pin uint64) (int64, bool) {
			first, err := s.ReadAt(0, pin)
			for i := 1; i < items && err == nil; i++ {
				var v Version
				if v, err = s.ReadAt(model.ItemID(i), pin); err == nil && v != first {
					t.Errorf("pin %d: item %d = %+v, item 0 = %+v", pin, i, v, first)
					return 0, false
				}
			}
			if err != nil {
				t.Errorf("ReadAt at active pin %d: %v", pin, err)
				return 0, false
			}
			return first.Value, true
		}
		for p := 0; p < pinners; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer slow.Add(-1)
				var last int64 // the newest batch an earlier pin read
				for n := 1; n <= minRounds; n++ {
					pin := s.Pin()
					v, ok := read(pin)
					if ok && v < last {
						t.Errorf("pin %d read batch %d after an earlier pin read %d", pin, v, last)
						ok = false
					}
					if ok && n%(p+2) == 0 {
						// A second, newer pin; an install in between
						// retires the first, which is released after it.
						inner := s.Pin()
						var w int64
						if w, ok = read(inner); ok && w < v {
							t.Errorf("pin %d read batch %d after pin %d read %d", inner, w, pin, v)
							ok = false
						}
						s.Unpin(inner)
						v = max(v, w)
					}
					s.Unpin(pin)
					if !ok {
						return
					}
					last = v
				}
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes := make([]model.WriteOp, items)
			for i := range writes {
				writes[i].Item = model.ItemID(i)
			}
			for n := 1; slow.Load() > 0; n++ {
				for i := range writes {
					writes[i].Value = int64(n)
				}
				if err := s.ApplyAll(writes, model.TxnID{Site: 0, Seq: uint64(n)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Apply(solo, int64(n), model.TxnID{Site: 1, Seq: uint64(n)}); err != nil {
					t.Error(err)
					return
				}
			}
			// Every pinner has unpinned: nothing may be left pinned or kept.
			s.mu.Lock()
			defer s.mu.Unlock()
			if w := s.pin.Load(); w&(pinCountMask|pinClosed) != 0 || w>>pinAtShift != s.installs {
				t.Errorf("pin word %#x after the last unpin, want open at %d with no pins", w, s.installs)
			}
			if len(s.pins) != 0 || len(s.chained) != 0 {
				t.Errorf("after the last unpin: %d retired pins, %d chained copies", len(s.pins), len(s.chained))
			}
			for id, cs := range s.items {
				if len(cs.old) != 0 {
					t.Errorf("item %d keeps %d superseded versions after the last unpin", id, len(cs.old))
				}
			}
		}()
	}
	wg.Wait()
}

// pinSink keeps the benchmarked reads live.
var pinSink atomic.Int64

// BenchmarkSnapshotPinParallel prices a snapshot reader's pin: nine
// stores, as in a default cluster, each with three reader goroutines
// that pin, read one item and unpin. One op is one such round by any
// reader. With an installer, one more goroutine commits two-item batches
// to the stores in turn, so pins are retired and chains kept and trimmed.
func BenchmarkSnapshotPinParallel(b *testing.B) {
	const (
		stores  = 9
		readers = 3 // per store
		items   = 16
	)
	for _, installer := range []bool{false, true} {
		name := "readers"
		if installer {
			name = "readers+installer"
		}
		b.Run(name, func(b *testing.B) {
			ss := make([]*Store, stores)
			for i := range ss {
				ss[i] = NewStore()
				for it := 0; it < items; it++ {
					_ = ss[i].Create(model.ItemID(it), 0)
				}
			}
			var (
				next    atomic.Int64 // rounds handed out
				stop    = make(chan struct{})
				running sync.WaitGroup
				install sync.WaitGroup
			)
			if installer {
				install.Add(1)
				go func() {
					defer install.Done()
					writes := []model.WriteOp{{Item: 0}, {Item: 1}}
					for n := 1; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						writes[0].Value, writes[1].Value = int64(n), int64(n)
						_ = ss[n%stores].ApplyAll(writes, model.TxnID{Seq: uint64(n)})
					}
				}()
			}
			b.ResetTimer()
			for g := 0; g < stores*readers; g++ {
				running.Add(1)
				go func(s *Store) {
					defer running.Done()
					var sum int64
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						pin := s.Pin()
						v, _ := s.ReadAt(model.ItemID(i%items), pin)
						s.Unpin(pin)
						sum += v.Value
					}
					pinSink.Add(sum)
				}(ss[g%stores])
			}
			running.Wait()
			b.StopTimer()
			close(stop)
			install.Wait()
		})
	}
}
