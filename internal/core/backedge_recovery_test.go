package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/fresh"
	"repro/internal/model"
	"repro/internal/wal"
)

// dropFirstKind is a transport interposer that silently drops the first
// non-response message of each listed kind — the surgical network fault
// for recovery tests.
type dropFirstKind struct {
	comm.Transport

	mu    sync.Mutex
	armed map[int]bool // kind -> not yet dropped
}

func dropKinds(kinds ...int) *dropFirstKind {
	d := &dropFirstKind{armed: make(map[int]bool)}
	for _, k := range kinds {
		d.armed[k] = true
	}
	return d
}

func (d *dropFirstKind) Send(m comm.Message) error {
	if !m.IsResp {
		d.mu.Lock()
		hit := d.armed[m.Kind]
		if hit {
			d.armed[m.Kind] = false
		}
		d.mu.Unlock()
		if hit {
			return nil // vanished on the wire
		}
	}
	return d.Transport.Send(m)
}

// TestBackEdgeRecoversFromLostDecision loses the 2PC phase-2 message: the
// participant sits prepared, holding its locks, until its inquirer asks
// the coordinator and learns the logged commit. Before decision inquiry
// existed this hung forever — the exact "sites do not crash" assumption
// twopc.Run used to lean on.
func TestBackEdgeRecoversFromLostDecision(t *testing.T) {
	p := example41Placement(t)
	drop := dropKinds(kindDecision)
	s := buildSystemFull(t, BackEdge, p, testParams(), 0, Shape{},
		func(tr comm.Transport) comm.Transport {
			drop.Transport = tr
			return drop
		}, nil)

	// s1 writes item 1, replicated at its tree ancestor s0: the eager arm
	// runs, s0 executes the backedge subtransaction and prepares, and the
	// commit decision to s0 is the first kindDecision on the wire — gone.
	if err := s.engines[1].Execute([]model.Op{w(1, 42)}); err != nil {
		t.Fatalf("eager transaction: %v", err)
	}
	// Recovery: s0's inquirer notices the overdue prepared subtransaction
	// after PrepareTimeout and resolves it from s1's decision log.
	s.waitValue(t, 0, 1, 42)

	// The edge is not poisoned: a second eager transaction (decision now
	// delivered normally) completes promptly.
	if err := s.engines[1].Execute([]model.Op{w(1, 43)}); err != nil {
		t.Fatalf("follow-up transaction: %v", err)
	}
	s.waitValue(t, 0, 1, 43)
}

// TestBackEdgeRecoversFromLostAbortNotification loses both the special
// relay (so the origin times out and aborts unilaterally) and the abort
// notification (so the participant keeps holding the item's lock for a
// transaction the coordinator has written off). The participant must
// learn the abort by inquiry — abortEager logs the decision before
// notifying — and release its locks so the item is writable again.
func TestBackEdgeRecoversFromLostAbortNotification(t *testing.T) {
	p := example41Placement(t)
	drop := dropKinds(kindSpecial, kindBackedgeAbort)
	params := testParams()
	params.PrepareTimeout = 60 * time.Millisecond
	s := buildSystemFull(t, BackEdge, p, params, 0, Shape{},
		func(tr comm.Transport) comm.Transport {
			drop.Transport = tr
			return drop
		}, nil)

	// The special never comes home, so the origin aborts after
	// PrepareTimeout; the abort to s0 is dropped too.
	if err := s.engines[1].Execute([]model.Op{w(1, 7)}); err == nil {
		t.Fatal("eager transaction committed despite a lost special")
	}

	// s0 still holds item 1's write lock for the dead subtransaction. A
	// fresh eager transaction needs that lock; it can only commit once
	// s0's inquirer has learned the abort and rolled back. Retry like an
	// application would — with the tiny PrepareTimeout an attempt can
	// still lose the race against recovery and abort.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := s.engines[1].Execute([]model.Op{w(1, 8)})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("participant never released its locks after a lost abort: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.waitValue(t, 0, 1, 8)
}

// TestEagerRedoNotesCommit: an origin that crashed after logging its
// eager start and the commit decision, but before its local apply, redoes
// the apply at recovery. The redo installs a new primary version, so the
// freshness tracker must count it as the kernel commit would; otherwise
// its latest stays one behind the store and a replica read one version
// behind is certified fresh.
func TestEagerRedoNotesCommit(t *testing.T) {
	// Item 0: primary s1, replica s0 (a backedge under the chain s0 -> s1).
	p := placement(t, 2, []model.SiteID{1}, [][]model.SiteID{{0}})
	const origin, item = model.SiteID(1), model.ItemID(0)
	dir := t.TempDir()
	openLog := func() *wal.SiteLog {
		lg, err := wal.Open(dir, wal.Options{Site: origin, Items: p.CopiesAt(origin)})
		if err != nil {
			t.Fatal(err)
		}
		return lg
	}
	tid := model.TxnID{Site: origin, Seq: 1}
	lg := openLog()
	for _, rec := range []wal.Record{
		{Kind: wal.KindEagerStart, TID: tid, Writes: []model.WriteOp{{Item: item, Value: 7}}, Span: model.SpanContext{TID: tid}},
		{Kind: wal.KindDecision, TID: tid, Commit: true},
	} {
		if err := lg.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg = openLog()

	tracker := fresh.New(2)
	site := Site{ID: origin, Log: lg, Sinks: Sinks{Fresh: tracker}}
	e := newBackEdge(topology(t, BackEdge, p, testParams(), Shape{}), site, newCaptureTransport())
	t.Cleanup(func() {
		e.Stop()
		_ = lg.Close()
	})
	ver, err := e.store.Read(item)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Num != 1 {
		t.Fatalf("store version after the redo = %d, want 1", ver.Num)
	}
	if c := tracker.CertifyRead(origin, item, ver.Num-1); c.Versions != 1 {
		t.Errorf("read of version %d certified %d versions behind, want 1", ver.Num-1, c.Versions)
	}
}
