// Package storage is the DataBlitz stand-in: a main-memory item store
// with a hash index on the item identifier (the paper's prototype, §5.2,
// used exactly this access path). Each site owns one Store holding the
// copies placed there. The store keeps a per-copy version counter tagged
// with the logical transaction that installed each value, which feeds the
// serializability checker; concurrency control is the caller's job (the
// lock manager), so the store's mutex only protects its own structures.
//
// The store is also multiversion, for readers that take no locks. Every
// install is a batch (a commit's writes, installed together) and bumps the
// site's install counter; Pin names the state after the latest batch, and
// ReadAt returns a copy's newest version at or below a pin. A copy keeps
// a superseded version only while some active pin still reads it, so its
// chain of old versions is never longer than the number of active pins.
//
// Reading a copy's current version takes no lock. Read, Has and the fast
// path of ReadAt — the copy's current version is at or below the pin —
// look the item up in an index that is published once and never changed
// in place, then load the version from atomic fields under a sequence
// word. Installers write those fields only while holding the mutex: the
// word goes odd, the fields are stored, the word goes even again, and a
// reader that sees the same even word before and after its loads holds
// one whole version.
//
// Pin and Unpin take no lock either. The pins of the current install
// point live in one atomic pin word, (install point, active count), and
// each of them is one compare-and-swap on it. Every install closes the
// word under the mutex before its first store, moves any pins the word
// counts into the mutex-guarded list of retired pins, and reopens the
// word at the new install point with no pins. Pin spins while the word
// is closed, as readers spin on an odd sequence word. Only an Unpin of a
// retired install point, or one that finds the word closed, takes the
// mutex, which also trims the chains of superseded versions; the installs
// and those chains keep it.
//
// That keeps every batch atomic for a pinned reader. A pin succeeds only
// on an open word, so it falls between two installs: every batch at or
// below the pin was wholly installed before the word reopened at it, and
// every batch above it is newer than the pin. The install after a pin
// closes the word after the pin's swap, so it counts the pin and keeps
// the versions it supersedes (DESIGN.md §6). The current version a reader
// loads carries the batch that installed it. If that batch is at or below
// the pin, no newer version of the copy exists, so it is the newest one
// at or below the pin. Otherwise the reader falls back to the chain under
// the mutex, where the install that superseded the version the pin reads
// kept it.
package storage

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Version describes one committed state of an item copy.
type Version struct {
	Value  int64
	Num    uint64      // 0 for the initial value, then 1, 2, ...
	Writer model.TxnID // zero TxnID for the initial value
}

// stamped is a version with the install batch that made it current.
type stamped struct {
	Version
	at uint64
}

// copyState is one copy. Its current version is the atomic fields, which
// only an installer holding Store.mu writes, under seq (see the package
// comment).
type copyState struct {
	seq   atomic.Uint64 // odd while an installer writes the fields below
	value atomic.Int64
	num   atomic.Uint64
	wsite atomic.Int64  // the writer's site
	wseq  atomic.Uint64 // the writer's sequence number
	at    atomic.Uint64 // the install batch that made the version current
	// old holds the superseded versions an active pin still reads, oldest
	// first. Guarded by Store.mu.
	old []stamped
}

// cur returns the copy's current version and its batch, without a lock.
func (cs *copyState) cur() stamped {
	for {
		s := cs.seq.Load()
		if s&1 == 1 {
			runtime.Gosched() // an installer is mid-write, for a few stores
			continue
		}
		v := stamped{
			Version: Version{
				Value:  cs.value.Load(),
				Num:    cs.num.Load(),
				Writer: model.TxnID{Site: model.SiteID(cs.wsite.Load()), Seq: cs.wseq.Load()},
			},
			at: cs.at.Load(),
		}
		if cs.seq.Load() == s {
			return v
		}
	}
}

// set makes v the copy's current version. The caller holds Store.mu, so
// set is the only writer.
func (cs *copyState) set(v stamped) {
	cs.seq.Add(1)
	cs.value.Store(v.Value)
	cs.num.Store(v.Num)
	cs.wsite.Store(int64(v.Writer.Site))
	cs.wseq.Store(v.Writer.Seq)
	cs.at.Store(v.at)
	cs.seq.Add(1)
}

// The pin word packs the current install point, the number of active
// pins of it, and a closed bit an installer sets while it moves those
// pins to Store.pins.
const (
	pinClosed    = 1
	pinOne       = 1 << 1                 // one pin, in the count field
	pinCountMask = (1<<16 - 1) << 1       // up to 65 535 pins of one point
	pinAtShift   = 17                     // the install point's low bit
	maxInstalls  = 1<<(64-pinAtShift) - 1 // install points the word can hold
)

// pinWordAt returns the open pin word of install point at with no pins.
func pinWordAt(at uint64) uint64 { return at << pinAtShift }

// pinCount is one pinned install point and how many holders pin it.
type pinCount struct {
	at uint64
	n  int
}

func byAt(p pinCount, at uint64) int { return cmp.Compare(p.at, at) }

// index maps an item to its copy.
type index map[model.ItemID]*copyState

// Store holds the item copies resident at one site.
type Store struct {
	mu sync.Mutex
	// items is the item index. Create adds to it, under mu, until the
	// first lock-free lookup publishes it in published; from then on it
	// is never changed in place, and a later Create adds to a copy.
	items     index
	published atomic.Pointer[index]

	installs uint64 // install batches so far
	// pin is the pin word: the install point installs, the active pins
	// of it, and the closed bit (see the package comment). Only an
	// installer holding mu closes it or moves it to a new point.
	pin     atomic.Uint64
	pins    []pinCount   // the active pins of retired install points, ascending
	chained []*copyState // the copies whose old chain is not empty
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{items: make(index)}
}

// Create installs item with its initial value (version 0). Creating an
// existing item is an error: placement is static in this system.
func (s *Store) Create(item model.ItemID, initial int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[item]; ok {
		return fmt.Errorf("storage: item %d already exists", item)
	}
	if s.published.Load() != nil {
		// Lock-free readers may be reading the published index.
		s.items = maps.Clone(s.items)
		s.published.Store(nil)
	}
	cs := new(copyState)
	cs.value.Store(initial)
	cs.at.Store(s.installs)
	s.items[item] = cs
	return nil
}

// lookup returns item's copy, or nil, without a lock once the index is
// published; the first lookup after a Create publishes it.
func (s *Store) lookup(item model.ItemID) *copyState {
	idx := s.published.Load()
	if idx == nil {
		s.mu.Lock()
		if idx = s.published.Load(); idx == nil {
			m := s.items
			idx = &m
			s.published.Store(idx)
		}
		s.mu.Unlock()
	}
	return (*idx)[item]
}

// Has reports whether a copy of item resides here.
func (s *Store) Has(item model.ItemID) bool { return s.lookup(item) != nil }

// Read returns the current version of item, without a lock. The caller
// must hold at least a shared lock on the item: the store guarantees one
// whole version, not transactional isolation.
func (s *Store) Read(item model.ItemID) (Version, error) {
	cs := s.lookup(item)
	if cs == nil {
		return Version{}, missing(item)
	}
	return cs.cur().Version, nil
}

// Pin returns the site's current install point and keeps every version it
// reads until the matching Unpin. It takes no lock: ReadAt at the pin sees
// every batch installed before Pin and none after.
func (s *Store) Pin() uint64 {
	for {
		w := s.pin.Load()
		if w&pinClosed != 0 || w&pinCountMask == pinCountMask {
			runtime.Gosched() // an install is moving the pins, or the count is full
			continue
		}
		if s.pin.CompareAndSwap(w, w+pinOne) {
			return w >> pinAtShift
		}
	}
}

// Unpin releases one Pin of pin. A pin of the current install point is
// dropped from the pin word without a lock; one an install has since
// retired takes the mutex and drops the versions no active pin reads any
// more.
func (s *Store) Unpin(pin uint64) {
	if s.unpinCurrent(pin) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The word is closed only while an install holds mu, and that install
	// retired every pin the word counted, so this pin is in s.pins.
	i, ok := slices.BinarySearchFunc(s.pins, pin, byAt)
	if !ok {
		panic(fmt.Sprintf("storage: unpin of install point %d, which is not pinned", pin))
	}
	if s.pins[i].n--; s.pins[i].n > 0 {
		return
	}
	s.pins = slices.Delete(s.pins, i, i+1)
	kept := s.chained[:0]
	for _, cs := range s.chained {
		if s.trim(cs) {
			kept = append(kept, cs)
		}
	}
	clear(s.chained[len(kept):])
	s.chained = kept
}

// unpinCurrent drops one pin of pin from the pin word, if the word is open
// at pin and counts it, and reports whether it did.
func (s *Store) unpinCurrent(pin uint64) bool {
	for {
		w := s.pin.Load()
		if w&pinClosed != 0 || w>>pinAtShift != pin || w&pinCountMask == 0 {
			return false
		}
		if s.pin.CompareAndSwap(w, w-pinOne) {
			return true
		}
	}
}

// trim drops cs's superseded versions that no active pin reads, and
// reports whether any remain. A version installed at batch a and
// superseded at batch b is read by the pins in [a, b).
func (s *Store) trim(cs *copyState) bool {
	n := 0
	for i, v := range cs.old {
		next := cs.at.Load()
		if i+1 < len(cs.old) {
			next = cs.old[i+1].at
		}
		if s.pinnedIn(v.at, next) {
			cs.old[n] = v
			n++
		}
	}
	clear(cs.old[n:])
	cs.old = cs.old[:n]
	return n > 0
}

// pinnedIn reports whether an active pin of a retired install point lies
// in [lo, hi). The caller holds mu.
func (s *Store) pinnedIn(lo, hi uint64) bool {
	i, _ := slices.BinarySearchFunc(s.pins, lo, byAt)
	return i < len(s.pins) && s.pins[i].at < hi
}

// ReadAt returns the newest version of item installed at or below pin,
// which must be active (between Pin and Unpin). It needs no item lock,
// and takes the store mutex only when the copy's current version is
// newer than the pin.
func (s *Store) ReadAt(item model.ItemID, pin uint64) (Version, error) {
	cs := s.lookup(item)
	if cs == nil {
		return Version{}, missing(item)
	}
	if cur := cs.cur(); cur.at <= pin {
		return cur.Version, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(cs.old) - 1; i >= 0; i-- {
		if cs.old[i].at <= pin {
			return cs.old[i].Version, nil
		}
	}
	return Version{}, fmt.Errorf("storage: item %d has no version at install point %d, which is not pinned", item, pin)
}

// Apply installs a new committed value for item on behalf of writer, as a
// batch of its own, and returns the new version. The caller must hold the
// exclusive lock on the item.
//
// Apply mutates durable state, so on WAL-backed paths every direct call
// must be dominated by an append of the redo record that describes it
// (log-then-mutate); the waldiscipline analyzer enforces this at every
// call site in the engines.
//
// repl:durable
func (s *Store) Apply(item model.ItemID, value int64, writer model.TxnID) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.items[item]
	if !ok {
		return Version{}, missing(item)
	}
	s.beginInstall()
	ver := Version{Value: value, Num: cs.num.Load() + 1, Writer: writer}
	s.put(cs, ver)
	s.endInstall()
	return ver, nil
}

// ApplyAll installs one commit's writes on behalf of writer as a single
// batch: a pin sees all of them or none. It installs nothing if any
// write has no copy here. The caller must hold the exclusive locks on the
// items, so Read returns the versions ApplyAll installed until it
// releases them.
//
// repl:durable
func (s *Store) ApplyAll(writes []model.WriteOp, writer model.TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range writes {
		if _, ok := s.items[w.Item]; !ok {
			return missing(w.Item)
		}
	}
	s.beginInstall()
	for _, w := range writes {
		cs := s.items[w.Item]
		s.put(cs, Version{Value: w.Value, Num: cs.num.Load() + 1, Writer: writer})
	}
	s.endInstall()
	return nil
}

// beginInstall opens the next install batch. It closes the pin word, so
// no Pin or lock-free Unpin succeeds until endInstall, and retires the
// pins the word counted into s.pins, where put finds them. The caller
// holds mu.
func (s *Store) beginInstall() {
	if s.installs == maxInstalls {
		panic(fmt.Sprintf("storage: %d install batches, more than the pin word holds", s.installs))
	}
	w := s.pin.Load()
	for !s.pin.CompareAndSwap(w, w|pinClosed) {
		w = s.pin.Load()
	}
	if n := int(w&pinCountMask) / pinOne; n > 0 {
		s.pins = append(s.pins, pinCount{at: s.installs, n: n})
	}
	s.installs++
}

// endInstall reopens the pin word at the batch beginInstall opened, with
// no pins. The caller holds mu.
func (s *Store) endInstall() { s.pin.Store(pinWordAt(s.installs)) }

// put makes ver current in the batch s.installs, keeping the version it
// supersedes if an active pin reads it: every pin is older than the
// batch, so the newest pin reads it iff any does.
func (s *Store) put(cs *copyState, ver Version) {
	if n := len(s.pins); n > 0 && s.pins[n-1].at >= cs.at.Load() {
		if len(cs.old) == 0 {
			s.chained = append(s.chained, cs)
		}
		cs.old = append(cs.old, cs.cur())
	}
	cs.set(stamped{Version: ver, at: s.installs})
}

// Load installs a recovered version of item verbatim — value, version
// number, and writer — when rebuilding a store from the redo log. Unlike
// Apply it does not advance the version counter: the log already replayed
// the advances. Loading an item with no copy here is an error (placement
// is static).
func (s *Store) Load(item model.ItemID, ver Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.items[item]
	if !ok {
		return missing(item)
	}
	s.beginInstall()
	s.put(cs, ver)
	s.endInstall()
	return nil
}

// Snapshot returns the current value of every copy. Only meaningful when
// the site is quiesced.
func (s *Store) Snapshot() map[model.ItemID]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[model.ItemID]int64, len(s.items))
	for id, cs := range s.items {
		out[id] = cs.value.Load()
	}
	return out
}

// Len returns the number of copies stored here.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

func missing(item model.ItemID) error {
	return fmt.Errorf("storage: no copy of item %d at this site", item)
}
