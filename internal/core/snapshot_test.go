package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/twopc"
	"repro/internal/wal"
)

// TestReadOnlyLockingByProtocol: a read-only program takes no lock under
// DAG(WT), DAG(T) and NaiveLazy, whose sites run it as a snapshot reader,
// and shared locks under PSL, whose readers stay strict-2PL. Under
// BackEdge it is a snapshot reader unless a registered backedge
// subtransaction writes one of its items: a participant installs an eager
// transaction at the 2PC decision, out of the FIFO order it executed in,
// and a snapshot reader of its items could observe the gap (DESIGN.md §6).
// Both BackEdge rows run beside an undecided subtransaction writing item 0
// at s1: a reader of item 1 alone takes no lock and does not wait for the
// decision; a reader of item 0 takes S locks, waits, and reads the decided
// version.
func TestReadOnlyLockingByProtocol(t *testing.T) {
	for _, tc := range []struct {
		proto   Protocol
		locking bool
	}{
		{DAGWT, false}, {DAGT, false}, {NaiveLazy, false}, {PSL, true},
	} {
		e, err := New(tc.proto, allocTopology(t, tc.proto), Site{ID: 0}, discardTransport{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Execute([]model.Op{r(0), r(1), r(0)}); err != nil {
			t.Fatalf("%v: %v", tc.proto, err)
		}
		got := lockStats(e).Acquired
		if (got > 0) != tc.locking {
			t.Errorf("%v: a read-only program took %d locks, want locking=%v", tc.proto, got, tc.locking)
		}
		e.Stop()
	}

	t.Run("BackEdge/disjoint", func(t *testing.T) {
		e, _ := preparedBackEdge(t)
		before := lockStats(e).Acquired
		// With no decision ever sent, a reader that waited for it would
		// time out and fail here.
		if err := e.Execute([]model.Op{r(1), r(1)}); err != nil {
			t.Fatal(err)
		}
		if got := lockStats(e).Acquired - before; got != 0 {
			t.Errorf("a reader of no prepared item took %d locks, want 0", got)
		}
	})

	t.Run("BackEdge/prepared item", func(t *testing.T) {
		e, tid := preparedBackEdge(t)
		before := lockStats(e).Acquired
		reader := e.tm.Begin(model.TxnID{Site: 1, Seq: 1 << 20})
		done := make(chan error, 1)
		go func() {
			err := e.runOrigin(reader, []model.Op{r(1), r(0)})
			if err == nil {
				err = reader.Commit()
			}
			done <- err
		}()
		waitForLockWaiter(t, e, reader.ID)
		e.decide(tid, twopc.Commit, 2)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := lockStats(e).Acquired - before; got == 0 {
			t.Error("a reader of a prepared item took no locks")
		}
		want := "read  s1 item0 v1 by " + reader.ID.String()
		if got := e.sinks.Recorder.Involving(reader.ID); !slices.Contains(got, want) {
			t.Errorf("reader observations %q, want %q (the decided version)", got, want)
		}
	})
}

// TestBackEdgeReleasesItemsAfterInstall: a participant's items stay
// closed to snapshot readers until the decision's Commit has installed
// its writes. A reader seeded into Commit just before the install — in
// the redo hook's slot — must be refused a pin on the prepared item, or
// it reads the version the decision supersedes while the subtransaction
// already precedes it in the site's order. A reader of other items is
// admitted in the same slot.
func TestBackEdgeReleasesItemsAfterInstall(t *testing.T) {
	e, tid := preparedBackEdge(t)
	e.mu.Lock()
	p := e.parts[tid]
	e.mu.Unlock()
	probed := false
	// Without a log the decision arms no redo hook, so this one runs in
	// its slot: inside Commit, before the store install.
	p.t.SetDurable(func() error {
		probed = true
		if pin, ok := e.pinDisjoint([]model.Op{r(1), r(0)}); ok {
			ver, _ := e.store.ReadAt(0, pin)
			e.store.Unpin(pin)
			t.Errorf("a snapshot reader admitted before the install read item 0 at v%d (value %d); the decision installs v1", ver.Num, ver.Value)
		}
		pin, ok := e.pinDisjoint([]model.Op{r(1)})
		if !ok {
			t.Error("a reader of no prepared item was refused a snapshot")
		} else {
			e.store.Unpin(pin)
		}
		return nil
	})
	e.decide(tid, twopc.Commit, 2)
	if !probed {
		t.Fatal("the decision's Commit never ran the probe")
	}
	pin, ok := e.pinDisjoint([]model.Op{r(0)})
	if !ok {
		t.Fatal("a settled subtransaction's item stays closed to snapshot readers")
	}
	defer e.store.Unpin(pin)
	if ver, _ := e.store.ReadAt(0, pin); ver.Num != 1 || ver.Value != 7 {
		t.Errorf("after the decision a snapshot reader reads item 0 at v%d = %d, want v1 = 7", ver.Num, ver.Value)
	}
}

// TestBackEdgeRecoveredPreparedBlocksSnapshot: a prepared subtransaction
// restored from the redo log closes its items to snapshot readers exactly
// as a freshly executed one does, until its decision installs it.
func TestBackEdgeRecoveredPreparedBlocksSnapshot(t *testing.T) {
	topo := allocTopology(t, BackEdge)
	const site = model.SiteID(1)
	dir := t.TempDir()
	openLog := func() *wal.SiteLog {
		lg, err := wal.Open(dir, wal.Options{Site: site, Items: topo.Placement.CopiesAt(site)})
		if err != nil {
			t.Fatal(err)
		}
		return lg
	}
	tid := model.TxnID{Site: 2, Seq: 1}
	lg := openLog()
	if err := lg.Append(wal.Record{
		Kind: wal.KindPrepared, TID: tid, Origin: 2,
		Writes: []model.WriteOp{{Item: 0, Value: 7}}, Span: model.SpanContext{TID: tid},
	}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg = openLog()
	e := newBackEdge(topo, Site{ID: site, Log: lg}, discardTransport{})
	t.Cleanup(func() {
		e.Stop()
		_ = lg.Close()
	})
	if _, ok := e.pinDisjoint([]model.Op{r(0)}); ok {
		t.Fatal("a recovered prepared item was open to snapshot readers")
	}
	e.decide(tid, twopc.Commit, 2)
	pin, ok := e.pinDisjoint([]model.Op{r(0)})
	if !ok {
		t.Fatal("a decided recovered item stays closed to snapshot readers")
	}
	defer e.store.Unpin(pin)
	if ver, _ := e.store.ReadAt(0, pin); ver.Value != 7 {
		t.Errorf("after the decision item 0 reads %d, want 7", ver.Value)
	}
}

// preparedBackEdge builds BackEdge site s1 of allocPlacement, recording
// reads and writes, and executes there a backedge subtransaction from s2
// writing item 0 = 7, registered and awaiting its 2PC decision. Lock waits
// last as long as a test can take, so a reader blocked on the
// subtransaction outlasts any scheduling delay before the decision.
func preparedBackEdge(t *testing.T) (*backedgeEngine, model.TxnID) {
	t.Helper()
	params := testParams()
	params.LockTimeout, params.RPCTimeout = time.Minute, 2*time.Minute
	topo := topology(t, BackEdge, allocPlacement(t), params, Shape{})
	e := newBackEdge(topo, Site{ID: 1, Sinks: Sinks{Recorder: history.NewRecorder()}}, discardTransport{})
	t.Cleanup(e.Stop)
	tid := model.TxnID{Site: 2, Seq: 1}
	sp := specialPayload{TID: tid, Origin: 2, Writes: []model.WriteOp{{Item: 0, Value: 7}}}
	if got := e.executeHolding(sp, model.SpanContext{TID: tid}); got != beExecOK {
		t.Fatalf("executeHolding = %v, want beExecOK", got)
	}
	return e, tid
}

// waitForLockWaiter blocks until tid waits for a lock at e.
func waitForLockWaiter(t *testing.T, e *backedgeEngine, tid model.TxnID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !slices.ContainsFunc(e.LockWaitGraph(), func(w lock.WaitEdge) bool { return w.Waiter == tid }) {
		if time.Now().After(deadline) {
			t.Fatalf("%v never waited for a lock", tid)
		}
		time.Sleep(time.Millisecond)
	}
}
