package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestPSLRemoteReadShipsLatestValue: updates never propagate, but a
// replica read goes to the primary and must observe the newest value.
func TestPSLRemoteReadShipsLatestValue(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	s := buildSystem(t, PSL, p, testParams(), time.Millisecond)
	if err := s.engines[0].Execute([]model.Op{w(0, 123)}); err != nil {
		t.Fatal(err)
	}
	// The replica at s1 is stale by design...
	if got := s.value(t, 1, 0); got != 0 {
		t.Errorf("PSL propagated an update: replica = %d", got)
	}
	// ...but a transaction at s1 still reads 123 via the primary. Drive
	// the engine directly and verify through the recorder: the read must
	// observe version 1 at site 0.
	if err := s.engines[1].Execute([]model.Op{r(0)}); err != nil {
		t.Fatal(err)
	}
	rep := s.collector.Snapshot(2)
	if rep.RemoteReads != 1 {
		t.Errorf("remote reads = %d, want 1", rep.RemoteReads)
	}
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestPSLRemoteLocksReleasedAfterCommit: after the reader commits, the
// primary's lock must be free so a writer proceeds without waiting out a
// timeout.
func TestPSLRemoteLocksReleasedAfterCommit(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	s := buildSystem(t, PSL, p, testParams(), time.Millisecond)
	if err := s.engines[1].Execute([]model.Op{r(0)}); err != nil {
		t.Fatal(err)
	}
	// Release message is asynchronous; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := s.engines[0].Execute([]model.Op{w(0, 1)})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary still locked long after reader committed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPSLRemoteReaderBlocksWriter: while a remote reader's transaction is
// open, the primary's writer must wait (shared lock held at primary).
func TestPSLRemoteReaderBlocksWriter(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	params := testParams()
	params.OpCost = 40 * time.Millisecond // reader holds its locks a while
	// The reader's read lease is 2*RPCTimeout. This test checks the
	// writer, not the lease, so the lease must outlast the reader's ~80 ms
	// even on a loaded machine.
	params.RPCTimeout = time.Second
	s := buildSystem(t, PSL, p, params, time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(1)
	readerDone := make(chan time.Time, 1)
	go func() {
		defer wg.Done()
		// Two ops, 40ms each: the remote S lock is held ~40-80ms.
		if err := s.engines[1].Execute([]model.Op{r(0), r(0)}); err != nil {
			t.Errorf("reader: %v", err)
		}
		readerDone <- time.Now()
	}()
	time.Sleep(50 * time.Millisecond) // let the reader acquire the remote lock
	writerStart := time.Now()
	err := s.engines[0].Execute([]model.Op{w(0, 5)})
	writerEnd := time.Now()
	wg.Wait()
	rd := <-readerDone
	if err == nil && writerEnd.Before(rd) && writerEnd.Sub(writerStart) < 5*time.Millisecond {
		t.Error("writer proceeded instantly while remote reader held the shared lock")
	}
	s.quiesce(t)
	if serr := s.recorder.CheckSerializable(); serr != nil {
		t.Error(serr)
	}
}

// TestPSLConflictTimeoutAborts: a writer holding the primary's exclusive
// lock forces a remote reader into the timeout path and an abort.
func TestPSLConflictTimeoutAborts(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	s := buildSystem(t, PSL, p, testParams(), time.Millisecond)
	e0 := s.engines[0].(*pslEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if err := blocker.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	err := s.engines[1].Execute([]model.Op{r(0)})
	if !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("want abort, got %v", err)
	}
	blocker.Abort()
	// The aborted reader must not leave a lock behind at the primary:
	// a writer succeeds promptly (the release/cancel path ran).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := s.engines[0].Execute([]model.Op{w(0, 2)}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted remote reader leaked a lock at the primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPSLSerializableUnderContention: concurrent writers at the primary
// and remote readers must produce a serializable execution.
func TestPSLSerializableUnderContention(t *testing.T) {
	p := placement(t, 3,
		[]model.SiteID{0, 1},
		[][]model.SiteID{{1, 2}, {0, 2}})
	s := buildSystem(t, PSL, p, testParams(), 300*time.Microsecond)
	var wg sync.WaitGroup
	for site := 0; site < 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			prims := s.placement.PrimariesAt(model.SiteID(site))
			for i := 0; i < 40; i++ {
				var ops []model.Op
				ops = append(ops, r(model.ItemID(i%2)))
				if len(prims) > 0 {
					ops = append(ops, w(prims[0], int64(site*1000+i)))
				}
				if err := s.engines[site].Execute(ops); err != nil && !errors.Is(err, txn.ErrAborted) {
					t.Errorf("s%d: %v", site, err)
					return
				}
			}
		}(site)
	}
	wg.Wait()
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Fatalf("PSL produced a non-serializable execution: %v", err)
	}
	// Every reader has released, so every primary has forgotten them all.
	for site, e := range s.engines {
		waitNoReaders(t, e.(*pslEngine), fmt.Sprintf("s%d", site))
	}
}

// waitNoReaders polls until e's remote-reader table is empty; releases
// are one-way messages, so the last may still be in flight.
func waitNoReaders(t *testing.T, e *pslEngine, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.relMu.Lock()
		n := len(e.readers)
		e.relMu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still tracks %d remote readers after every reader released", what, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPSLReleaseDuringLockWait: a reader's release arrives while its read
// still waits for the lock at the primary. The release must not leave the
// reader's entry behind, and the grant the read gets once the blocker goes
// must be undone rather than leaked.
func TestPSLReleaseDuringLockWait(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	params := testParams()
	params.LockTimeout, params.RPCTimeout = 5*time.Second, 10*time.Second
	s := buildSystem(t, PSL, p, params, 0)
	e0 := s.engines[0].(*pslEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if err := blocker.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	reader := model.TxnID{Site: 1, Seq: 99}
	e0.Handle(comm.Message{From: 1, To: 0, Kind: kindPSLRead, ReqID: 1, Payload: pslReadReq{TID: reader, Item: 0}})
	for deadline := time.Now().Add(5 * time.Second); len(e0.LockWaitGraph()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read never queued for the lock")
		}
	}
	e0.Handle(comm.Message{From: 1, To: 0, Kind: kindPSLRelease, Payload: pslReleasePayload{TID: reader}})
	if !e0.isReleased(reader) {
		t.Fatal("release with a read in flight dropped the reader's entry")
	}
	blocker.Abort()
	waitNoReaders(t, e0, "s0")
	if n := e0.locks.HeldCount(reader); n != 0 {
		t.Fatalf("released reader still holds %d locks", n)
	}
	if err := s.engines[0].Execute([]model.Op{w(0, 2)}); err != nil {
		t.Fatalf("writer after the undone grant: %v", err)
	}
}

// heldSends is a transport interposer that parks, inside Send, every PSL
// read request bound for one site until the test takes it from held and
// closes its release channel. The caller's RPC timer starts only once
// Send returns, so a parked reader is slow, not timed out.
type heldSends struct {
	comm.Transport
	to   model.SiteID
	held chan chan struct{}
}

func (h *heldSends) Send(m comm.Message) error {
	if !m.IsResp && m.Kind == kindPSLRead && m.To == h.to {
		release := make(chan struct{})
		h.held <- release
		<-release
	}
	return h.Transport.Send(m)
}

// TestPSLLeaseOutlivesPrimaryCrash: a reader holds a grant from primary
// s0 when s0 crashes and restarts from its log, which forgets every lock.
// The restarted s0 must hold off a writer of the same item until readLease
// after its boot, and the reader, whose later read at s0 then sees that
// writer's version, must abort lease_expired instead of committing two
// versions of one item. Without the fence the writer commits at once;
// without the lease check the reader commits a non-serializable history.
func TestPSLLeaseOutlivesPrimaryCrash(t *testing.T) {
	// Item 0: primary s0, replica s1. Item 1: primary s2, replica s1.
	p := placement(t, 3, []model.SiteID{0, 2}, [][]model.SiteID{{1}, {1}})
	params := testParams()
	dir := t.TempDir()
	openLog := func() *wal.SiteLog {
		lg, err := wal.Open(dir, wal.Options{Site: 0, Items: p.CopiesAt(0)})
		if err != nil {
			t.Fatal(err)
		}
		return lg
	}
	lg := openLog()
	held := &heldSends{to: 2, held: make(chan chan struct{})}
	s := buildSystemFull(t, PSL, p, params, 0, Shape{}, func(tr comm.Transport) comm.Transport {
		held.Transport = tr
		return held
	}, map[model.SiteID]*wal.SiteLog{0: lg})
	t.Cleanup(func() { _ = lg.Close() })
	if err := s.engines[0].Execute([]model.Op{w(0, 7)}); err != nil {
		t.Fatal(err)
	}

	readerErr := make(chan error, 1)
	go func() { readerErr <- s.engines[1].Execute([]model.Op{r(0), r(1), r(0)}) }()
	release := <-held.held // the reader holds its grant on item 0 from s0

	// Crash s0: its heap and lock table die, the log keeps what it synced.
	s.engines[0].Stop()
	lg.Fence()
	_ = lg.Close()
	lg = openLog()
	boot := time.Now()
	e0, err := New(PSL, s.topo, s.site(0, lg), s.tr)
	if err != nil {
		t.Fatal(err)
	}
	e0.Start()
	s.engines[0] = e0

	if err := e0.Execute([]model.Op{w(0, 99)}); err != nil {
		t.Fatalf("writer at the restarted primary: %v", err)
	}
	if waited, lease := time.Since(boot), params.readLease(); waited < lease {
		t.Fatalf("restarted primary granted an exclusive lock %v after boot, inside the %v lease", waited, lease)
	}

	close(release)
	err = <-readerErr
	if !errors.Is(err, lock.ErrLeaseExpired) {
		t.Fatalf("stale reader: %v, want %v", err, lock.ErrLeaseExpired)
	}
	if got, want := s.engines[1].(*pslEngine).AbortReasons(), map[string]uint64{"lease_expired": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("reader site abort reasons = %v, want %v", got, want)
	}
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	waitNoReaders(t, e0.(*pslEngine), "restarted s0")
}
