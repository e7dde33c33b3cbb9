package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/txn"
)

// abortEvents returns the recorded TxnAbort events, which since the
// contention observatory each carry their root-cause reason in the Phase
// tag field.
func (s *system) abortEvents() []trace.Event {
	var out []trace.Event
	for _, ev := range s.tracer.Snapshot() {
		if ev.Kind == trace.TxnAbort {
			out = append(out, ev)
		}
	}
	return out
}

// assertOneClassifiedAbort checks that exactly one abort was recorded and
// that every layer agrees on its root cause: the TxnAbort trace tag, the
// engine's AbortReasons breakdown, and the trace fold's.
func assertOneClassifiedAbort(t *testing.T, s *system, site model.SiteID, reason contend.AbortReason) {
	t.Helper()
	aborts := s.abortEvents()
	if len(aborts) != 1 {
		t.Fatalf("got %d TxnAbort events, want exactly 1: %+v", len(aborts), aborts)
	}
	if aborts[0].Phase != reason.String() {
		t.Errorf("abort event tagged %q, want %q", aborts[0].Phase, reason)
	}
	if aborts[0].Site != site {
		t.Errorf("abort recorded at s%d, want s%d", aborts[0].Site, site)
	}
	breakdown := s.engines[site].(interface{ AbortReasons() map[string]uint64 }).AbortReasons()
	if len(breakdown) != 1 || breakdown[reason.String()] != 1 {
		t.Errorf("AbortReasons = %v, want map[%s:1]", breakdown, reason)
	}
	if got := trace.Explain(s.tracer.Snapshot()).Aborts; !reflect.DeepEqual(got, breakdown) {
		t.Errorf("trace abort breakdown = %v, engine's = %v", got, breakdown)
	}
}

// TestForcedLockTimeoutClassifiedAbort forces the paper's suspected-
// deadlock path: a parked writer makes a second writer outwait
// LockTimeout. Exactly one abort, classified lock_timeout.
func TestForcedLockTimeoutClassifiedAbort(t *testing.T) {
	p := placement(t, 1, []model.SiteID{0}, [][]model.SiteID{{}})
	s := buildSystem(t, PSL, p, testParams(), time.Millisecond)
	e0 := s.engines[0].(*pslEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if err := blocker.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.engines[0].Execute([]model.Op{w(0, 9)}); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("want abort, got %v", err)
	}
	blocker.Abort()
	assertOneClassifiedAbort(t, s, 0, contend.ReasonLockTimeout)
}

// TestForcedWoundClassifiedAbort forces the global-deadlock wound rule of
// §2: s1's primary parks vulnerable on its backedge round trip (the
// special is blocked at s0 by a parked reader), and a secondary arriving
// at s1 wounds it after WoundGrace. Exactly one abort, classified wound.
func TestForcedWoundClassifiedAbort(t *testing.T) {
	p := example41Placement(t)
	params := testParams()
	params.PrepareTimeout = 5 * time.Second // far away: the wound must act first
	params.WoundGrace = 10 * time.Millisecond
	s := buildSystem(t, BackEdge, p, params, time.Millisecond)

	// A parked shared lock on item 1's copy at s0 keeps s1's special (its
	// backedge write of item 1) from completing.
	e0 := s.engines[0].(*backedgeEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if _, err := blocker.Read(1); err != nil {
		t.Fatal(err)
	}

	// s1: read item 0's local copy, write item 1 — parks vulnerable.
	done := make(chan error, 1)
	go func() { done <- s.engines[1].Execute([]model.Op{r(0), w(1, 2)}) }()
	e1 := s.engines[1].(*backedgeEngine)
	deadline := time.Now().Add(5 * time.Second)
	for {
		e1.mu.Lock()
		parked := len(e1.waiters) > 0
		e1.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("s1's primary never parked on its backedge round trip")
		}
		time.Sleep(time.Millisecond)
	}

	// s0 commits a write of item 0; its secondary at s1 blocks behind the
	// parked primary's read lock and wounds it after WoundGrace.
	if err := s.engines[0].Execute([]model.Op{w(0, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("want wound abort, got %v", err)
	}
	blocker.Abort()
	s.quiesce(t)
	assertOneClassifiedAbort(t, s, 1, contend.ReasonWound)
	s.waitValue(t, 1, 0, 5) // the wounding secondary got through
}

// TestForced2PCNoVoteClassifiedAbort loses the 2PC prepare on the wire:
// the coordinator's vote RPC times out, the round decides abort, and the
// abort classifies as 2pc_no_vote.
func TestForced2PCNoVoteClassifiedAbort(t *testing.T) {
	p := example41Placement(t)
	drop := dropKinds(kindPrepare)
	s := buildSystemFull(t, BackEdge, p, testParams(), 0, Shape{},
		func(tr comm.Transport) comm.Transport {
			drop.Transport = tr
			return drop
		}, nil)
	if err := s.engines[1].Execute([]model.Op{w(1, 42)}); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("want 2PC abort, got %v", err)
	}
	s.quiesce(t)
	assertOneClassifiedAbort(t, s, 1, contend.ReasonNoVote)
}
