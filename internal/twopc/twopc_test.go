package twopc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

func txid(n uint64) model.TxnID { return model.TxnID{Site: 0, Seq: n} }

// fakeParticipants simulates a set of participant sites with scripted
// votes.
type fakeParticipants struct {
	mu       sync.Mutex
	votes    map[model.SiteID]bool
	prepared map[model.SiteID]bool
	decided  map[model.SiteID]bool
	decision map[model.SiteID]bool
}

func newFake(votes map[model.SiteID]bool) *fakeParticipants {
	return &fakeParticipants{
		votes:    votes,
		prepared: make(map[model.SiteID]bool),
		decided:  make(map[model.SiteID]bool),
		decision: make(map[model.SiteID]bool),
	}
}

func (f *fakeParticipants) coordinator() Coordinator {
	return Coordinator{
		Prepare: func(p model.SiteID, _ model.TxnID, _ model.SpanContext) (bool, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.prepared[p] = true
			return f.votes[p], nil
		},
		Decide: func(p model.SiteID, _ model.TxnID, commit bool, _ model.SpanContext) error {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.decided[p] = true
			f.decision[p] = commit
			return nil
		},
	}
}

func TestRunCommitsOnUnanimousYes(t *testing.T) {
	parts := []model.SiteID{1, 2, 3}
	f := newFake(map[model.SiteID]bool{1: true, 2: true, 3: true})
	committed, err := Run(txid(1), parts, f.coordinator(), model.SpanContext{})
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	for _, p := range parts {
		if !f.prepared[p] || !f.decided[p] || !f.decision[p] {
			t.Errorf("participant %d: prepared=%v decided=%v decision=%v",
				p, f.prepared[p], f.decided[p], f.decision[p])
		}
	}
}

func TestRunAbortsOnAnyNo(t *testing.T) {
	parts := []model.SiteID{1, 2}
	f := newFake(map[model.SiteID]bool{1: true, 2: false})
	committed, err := Run(txid(1), parts, f.coordinator(), model.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite a no vote")
	}
	// Every participant still receives the (abort) decision.
	for _, p := range parts {
		if !f.decided[p] || f.decision[p] {
			t.Errorf("participant %d missing abort decision", p)
		}
	}
}

func TestRunAbortsOnPrepareError(t *testing.T) {
	c := Coordinator{
		Prepare: func(p model.SiteID, _ model.TxnID, _ model.SpanContext) (bool, error) {
			if p == 2 {
				return true, errors.New("unreachable")
			}
			return true, nil
		},
		Decide: func(model.SiteID, model.TxnID, bool, model.SpanContext) error { return nil },
	}
	committed, err := Run(txid(1), []model.SiteID{1, 2}, c, model.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("a prepare error must count as a no vote")
	}
}

func TestRunNoParticipantsCommits(t *testing.T) {
	committed, err := Run(txid(1), nil, Coordinator{}, model.SpanContext{})
	if err != nil || !committed {
		t.Fatalf("empty participant set: committed=%v err=%v", committed, err)
	}
}

func TestRunReportsDecisionDeliveryError(t *testing.T) {
	c := Coordinator{
		Prepare: func(model.SiteID, model.TxnID, model.SpanContext) (bool, error) { return true, nil },
		Decide:  func(model.SiteID, model.TxnID, bool, model.SpanContext) error { return errors.New("lost") },
	}
	committed, err := Run(txid(1), []model.SiteID{1}, c, model.SpanContext{})
	if !committed {
		t.Fatal("the decision stands even if delivery fails")
	}
	if err == nil {
		t.Fatal("delivery failure not reported")
	}
}

func TestTableLifecycle(t *testing.T) {
	tb := NewTable()
	id := txid(1)
	if err := tb.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := tb.Begin(id); err == nil {
		t.Error("double Begin accepted")
	}
	if !tb.Prepare(id) {
		t.Error("Prepare of working txn voted no")
	}
	if s, _ := tb.State(id); s != StatePrepared {
		t.Errorf("state = %v", s)
	}
	if !tb.Finish(id, true) {
		t.Error("Finish reported no action")
	}
	if tb.Finish(id, true) {
		t.Error("second Finish reported action")
	}
	if s, _ := tb.State(id); s != StateCommitted {
		t.Errorf("state = %v", s)
	}
	if err := tb.Forget(id); err != nil {
		t.Errorf("Forget: %v", err)
	}
	if _, known := tb.State(id); known {
		t.Error("forgotten txn still known")
	}
}

func TestTableAbortTombstone(t *testing.T) {
	tb := NewTable()
	id := txid(2)
	// Abort arrives before the subtransaction ever begins.
	if !tb.Finish(id, false) {
		t.Fatal("tombstoning unknown txn reported no action")
	}
	if !tb.Aborted(id) {
		t.Fatal("tombstone not visible")
	}
	if err := tb.Begin(id); err == nil {
		t.Error("Begin after tombstone accepted")
	}
	if tb.Prepare(id) {
		t.Error("Prepare after abort voted yes")
	}
}

func TestTableForgetLiveRejected(t *testing.T) {
	tb := NewTable()
	id := txid(3)
	_ = tb.Begin(id)
	if err := tb.Forget(id); err == nil {
		t.Error("Forget of a live txn accepted")
	}
}

// TestNextEveryPair: the transition function on every (state, event)
// pair, legal or refused. A refused event leaves the state as it is.
func TestNextEveryPair(t *testing.T) {
	const refused = State(-1)
	for _, c := range []struct {
		s    State
		ev   Event
		want State
	}{
		{StateNone, Execute, StateWorking},
		{StateNone, Vote, refused},
		{StateNone, Abort, StateAborted},
		{StateNone, Commit, refused},
		{StateNone, Rollback, refused},
		{StateNone, Forget, refused},
		{StateWorking, Execute, refused},
		{StateWorking, Vote, StatePrepared},
		{StateWorking, Abort, StateAborted},
		{StateWorking, Commit, StateCommitted},
		{StateWorking, Rollback, StateAborted},
		{StateWorking, Forget, refused},
		{StatePrepared, Execute, refused},
		{StatePrepared, Vote, refused},
		{StatePrepared, Abort, StateAborted},
		{StatePrepared, Commit, StateCommitted},
		{StatePrepared, Rollback, StateAborted},
		{StatePrepared, Forget, refused},
		{StateCommitted, Execute, refused},
		{StateCommitted, Vote, refused},
		{StateCommitted, Abort, refused},
		{StateCommitted, Commit, refused},
		{StateCommitted, Rollback, refused},
		{StateCommitted, Forget, StateNone},
		{StateAborted, Execute, refused},
		{StateAborted, Vote, refused},
		{StateAborted, Abort, refused},
		{StateAborted, Commit, refused},
		{StateAborted, Rollback, refused},
		{StateAborted, Forget, StateNone},
	} {
		next, ok := Next(c.s, c.ev)
		if c.want == refused {
			if ok || next != c.s {
				t.Errorf("Next(%v, %v) = %v, %v; want refused", c.s, c.ev, next, ok)
			}
		} else if !ok || next != c.want {
			t.Errorf("Next(%v, %v) = %v, %v; want %v", c.s, c.ev, next, ok, c.want)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateWorking: "working", StatePrepared: "prepared",
		StateCommitted: "committed", StateAborted: "aborted",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestDecisionLogFirstRecordWins(t *testing.T) {
	l := NewDecisionLog()
	if _, known := l.Lookup(txid(1)); known {
		t.Fatal("empty log knows a decision")
	}
	l.Record(txid(1), true)
	l.Record(txid(1), false) // must not overwrite
	commit, known := l.Lookup(txid(1))
	if !known || !commit {
		t.Fatalf("got commit=%v known=%v, want commit recorded once", commit, known)
	}
}

func TestDecisionLogNilSafe(t *testing.T) {
	var l *DecisionLog
	l.Record(txid(1), true)
	if _, known := l.Lookup(txid(1)); known {
		t.Fatal("nil log knows a decision")
	}
}

// TestRunLogsDecisionBeforeDelivery pins the recovery invariant: by the
// time any participant receives the phase-2 message, the decision is
// already in the coordinator's log — so a participant that misses the
// message can always find it by inquiry.
func TestRunLogsDecisionBeforeDelivery(t *testing.T) {
	log := NewDecisionLog()
	var missed atomic.Bool
	c := Coordinator{
		Prepare: func(model.SiteID, model.TxnID, model.SpanContext) (bool, error) { return true, nil },
		Decide: func(_ model.SiteID, tid model.TxnID, commit bool, _ model.SpanContext) error {
			got, known := log.Lookup(tid)
			if !known || got != commit {
				missed.Store(true)
			}
			return nil
		},
		Log: log,
	}
	commit, err := Run(txid(9), []model.SiteID{1, 2}, c, model.SpanContext{})
	if err != nil || !commit {
		t.Fatalf("commit=%v err=%v", commit, err)
	}
	if missed.Load() {
		t.Fatal("a participant saw the decision before it was logged")
	}
	if got, known := log.Lookup(txid(9)); !known || !got {
		t.Fatal("decision missing from the log after Run")
	}
}

// TestRunLogsAbortDecision covers the no-vote path.
func TestRunLogsAbortDecision(t *testing.T) {
	log := NewDecisionLog()
	f := newFake(map[model.SiteID]bool{1: true, 2: false})
	c := f.coordinator()
	c.Log = log
	commit, err := Run(txid(3), []model.SiteID{1, 2}, c, model.SpanContext{})
	if err != nil || commit {
		t.Fatalf("commit=%v err=%v, want abort", commit, err)
	}
	if got, known := log.Lookup(txid(3)); !known || got {
		t.Fatalf("abort not logged (known=%v commit=%v)", known, got)
	}
}
