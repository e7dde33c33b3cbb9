package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/txn"
)

// TestBackEdgeEagerCommitToAncestor: item 0's primary is at s1 with a
// replica at s0 (a backedge under the chain order s0<s1). When the
// transaction at s1 commits, the replica at s0 must ALREADY hold the new
// value — that is the eager arm's guarantee (§4.1 step 3: atomic commit
// via 2PC before the primary returns).
func TestBackEdgeEagerCommitToAncestor(t *testing.T) {
	p := placement(t, 2, []model.SiteID{1}, [][]model.SiteID{{0}})
	s := buildSystem(t, BackEdge, p, testParams(), time.Millisecond)
	if err := s.engines[1].Execute([]model.Op{w(0, 77)}); err != nil {
		t.Fatal(err)
	}
	// No quiesce, no polling: eager means it is already there.
	if got := s.value(t, 0, 0); got != 77 {
		t.Fatalf("backedge replica not updated eagerly: %d", got)
	}
}

// TestBackEdgeReducesToDAGWTWithoutBackedges: on a DAG placement the
// protocol must behave exactly lazily — the primary returns before the
// replica is updated, and propagation arrives later.
func TestBackEdgeReducesToDAGWTWithoutBackedges(t *testing.T) {
	p := example11Placement(t)
	s := buildSystem(t, BackEdge, p, testParams(), 20*time.Millisecond)
	if err := s.engines[0].Execute([]model.Op{w(0, 5)}); err != nil {
		t.Fatal(err)
	}
	// With 20ms edges the lazy secondary cannot have landed yet.
	if got := s.value(t, 1, 0); got != 0 {
		t.Log("note: secondary landed unusually fast; lazy check is advisory")
	}
	s.waitValue(t, 1, 0, 5)
	s.waitValue(t, 2, 0, 5)
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestBackEdgeMultiHopSpecial exercises a three-site chain where the
// farthest backedge target is two hops up: item 0 primary at s2 with
// replicas at s0 AND s1. The special subtransaction must execute at s0,
// relay through s1 (also a participant), and 2PC-commit all three.
func TestBackEdgeMultiHopSpecial(t *testing.T) {
	p := placement(t, 3, []model.SiteID{2}, [][]model.SiteID{{0, 1}})
	s := buildSystem(t, BackEdge, p, testParams(), time.Millisecond)
	if err := s.engines[2].Execute([]model.Op{w(0, 31)}); err != nil {
		t.Fatal(err)
	}
	if got := s.value(t, 0, 0); got != 31 {
		t.Errorf("s0 (farthest backedge target) = %d", got)
	}
	if got := s.value(t, 1, 0); got != 31 {
		t.Errorf("s1 (intermediate backedge target) = %d", got)
	}
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestBackEdgeGlobalDeadlockAborts constructs a guaranteed global
// deadlock: the backedge target's item is held by a local transaction
// that never finishes until the origin gives up. The origin must abort
// after PrepareTimeout and release everything.
func TestBackEdgeGlobalDeadlockAborts(t *testing.T) {
	p := placement(t, 2, []model.SiteID{1}, [][]model.SiteID{{0}})
	params := testParams()
	params.PrepareTimeout = 80 * time.Millisecond
	s := buildSystem(t, BackEdge, p, params, time.Millisecond)

	// Park an exclusive lock on item 0's replica at s0.
	e0 := s.engines[0].(*backedgeEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if err := blocker.Write(0, 1); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err := s.engines[1].Execute([]model.Op{w(0, 9)})
	if !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < params.PrepareTimeout {
		t.Errorf("gave up after %v, before PrepareTimeout", elapsed)
	}
	blocker.Abort()
	s.quiesce(t)
	// Nothing must have been installed anywhere.
	if got := s.value(t, 0, 0); got != 0 {
		t.Errorf("aborted backedge write installed at s0: %d", got)
	}
	if got := s.value(t, 1, 0); got != 0 {
		t.Errorf("aborted write installed at primary: %d", got)
	}
	// And the backedge site's locks must be free again: a fresh write
	// succeeds immediately.
	if err := s.engines[1].Execute([]model.Op{w(0, 10)}); err != nil {
		t.Fatalf("locks leaked after global abort: %v", err)
	}
	if got := s.value(t, 0, 0); got != 10 {
		t.Errorf("recovery write not propagated: %d", got)
	}
}

// TestBackEdgeForgetsAbortTombstones: an eager abort tombstones the
// transaction at every backedge site, and each tombstone goes once the
// delivery it guards has been consumed there. On the chain s0 → s1 → s2,
// item 0's primary s2 has replicas at s0 and s1, so a write at s2 runs
// the eager arm through both. s0 is blocked, so every such transaction
// aborts before s0 executes it, and s1's special can only come relayed
// through s0 after the abort.
func TestBackEdgeForgetsAbortTombstones(t *testing.T) {
	p := placement(t, 3, []model.SiteID{2}, [][]model.SiteID{{0, 1}})
	params := testParams()
	params.PrepareTimeout = 40 * time.Millisecond
	s := buildSystem(t, BackEdge, p, params, 0)

	e0 := s.engines[0].(*backedgeEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if err := blocker.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if err := s.engines[2].Execute([]model.Op{w(0, int64(10+i))}); !errors.Is(err, txn.ErrAborted) {
			t.Fatalf("eager transaction %d: %v, want an abort", i, err)
		}
	}
	blocker.Abort()
	s.quiesce(t)
	for i, e := range s.engines {
		if n := records(e.(*backedgeEngine)); n != 0 {
			t.Errorf("s%d holds %d participant records after quiescing, want 0", i, n)
		}
	}
}

// TestBackEdgeSubtransactionRetriesAreCounted: a backedge subtransaction
// blocked behind a local lock resubmits like any secondary (§2), and every
// resubmission reaches both retry surfaces — the run report and the live
// repl_secondary_retries_total counter — which therefore agree.
func TestBackEdgeSubtransactionRetriesAreCounted(t *testing.T) {
	p := placement(t, 2, []model.SiteID{1}, [][]model.SiteID{{0}})
	params := testParams()
	s := buildSystem(t, BackEdge, p, params, 0)

	// Park a shared lock on item 0's replica at the backedge site s0 for a
	// few lock timeouts, well inside the origin's PrepareTimeout.
	e0 := s.engines[0].(*backedgeEngine)
	blocker := e0.tm.Begin(e0.newTxnID())
	if _, err := blocker.Read(0); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(3*params.LockTimeout, blocker.Abort)

	if err := s.engines[1].Execute([]model.Op{w(0, 9)}); err != nil {
		t.Fatalf("eager transaction: %v", err)
	}
	s.quiesce(t)
	if got := s.value(t, 0, 0); got != 9 {
		t.Errorf("backedge replica = %d, want 9", got)
	}
	report := s.collector.Snapshot(2).Retries
	var live uint64
	for name, v := range s.registry.Snapshot() {
		if strings.HasPrefix(name, "repl_secondary_retries_total") {
			live += uint64(v)
		}
	}
	if report == 0 || live != report {
		t.Errorf("retries: report=%d, repl_secondary_retries_total=%d; want equal and nonzero", report, live)
	}
}

// TestBackEdgeMixedEagerAndLazy: one transaction writes an item whose
// replicas live both above (backedge) and below (DAG edge) the origin.
func TestBackEdgeMixedEagerAndLazy(t *testing.T) {
	// s1 is the primary; replicas at s0 (ancestor: eager) and s2
	// (descendant: lazy).
	p := placement(t, 3, []model.SiteID{1}, [][]model.SiteID{{0, 2}})
	s := buildSystem(t, BackEdge, p, testParams(), time.Millisecond)
	if err := s.engines[1].Execute([]model.Op{w(0, 55)}); err != nil {
		t.Fatal(err)
	}
	if got := s.value(t, 0, 0); got != 55 {
		t.Errorf("eager replica at s0 = %d", got)
	}
	s.waitValue(t, 2, 0, 55) // lazy replica arrives asynchronously
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestBackEdgeWoundResolvesDeadlockFast builds the Example 4.1 deadlock
// and checks it resolves via the wound rule (a secondary blocking on the
// parked primary) long before the PrepareTimeout fallback: the parked
// primary is aborted as the designated victim.
func TestBackEdgeWoundResolvesDeadlockFast(t *testing.T) {
	p := example41Placement(t)
	params := testParams()
	params.PrepareTimeout = 2 * time.Second // far away: the wound must act first
	params.WoundGrace = 20 * time.Millisecond
	s := buildSystem(t, BackEdge, p, params, 500*time.Microsecond)

	var wg sync.WaitGroup
	var err0, err1 error
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		err0 = s.engines[0].Execute([]model.Op{r(1), w(0, 1)})
	}()
	go func() {
		defer wg.Done()
		err1 = s.engines[1].Execute([]model.Op{r(0), w(1, 2)})
	}()
	wg.Wait()
	elapsed := time.Since(start)
	// At least one commits; a genuine deadlock (if the interleaving hit
	// it) is broken well before PrepareTimeout.
	if err0 != nil && err1 != nil {
		t.Errorf("both aborted: %v / %v", err0, err1)
	}
	if elapsed >= params.PrepareTimeout {
		t.Errorf("deadlock resolution took %v, wound rule should beat PrepareTimeout", elapsed)
	}
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestBackEdgeConcurrentMixedWorkload runs several threads of mixed
// read/write transactions over a cyclic placement and checks global
// serializability and convergence.
func TestBackEdgeConcurrentMixedWorkload(t *testing.T) {
	// 3 sites; 6 items spread so that both backedges and DAG edges exist.
	p := placement(t, 3,
		[]model.SiteID{0, 0, 1, 1, 2, 2},
		[][]model.SiteID{{1}, {2}, {0}, {2}, {0}, {1}})
	params := testParams()
	params.PrepareTimeout = 150 * time.Millisecond
	s := buildSystem(t, BackEdge, p, params, 300*time.Microsecond)

	var wg sync.WaitGroup
	for site := 0; site < 3; site++ {
		for th := 0; th < 2; th++ {
			wg.Add(1)
			go func(site, th int) {
				defer wg.Done()
				prims := s.placement.PrimariesAt(model.SiteID(site))
				copies := s.placement.CopiesAt(model.SiteID(site))
				for i := 0; i < 30; i++ {
					ops := []model.Op{
						r(copies[(i+th)%len(copies)]),
						w(prims[i%len(prims)], int64(site*10000+th*1000+i)),
						r(copies[(i+th+1)%len(copies)]),
					}
					if err := s.engines[site].Execute(ops); err != nil && !errors.Is(err, txn.ErrAborted) {
						t.Errorf("unexpected failure: %v", err)
						return
					}
				}
			}(site, th)
		}
	}
	wg.Wait()
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Fatalf("serializability: %v", err)
	}
	for item := 0; item < 6; item++ {
		primary := s.placement.Primary[item]
		want := s.value(t, primary, model.ItemID(item))
		for _, rep := range s.placement.ReplicaSites(model.ItemID(item)) {
			if got := s.value(t, rep, model.ItemID(item)); got != want {
				t.Errorf("item %d: primary=%d replica s%d=%d", item, want, rep, got)
			}
		}
	}
}

// TestBackEdgeUnsettledUntilSettle: Status counts a participant as
// unsettled from its registration until settle, on the commit path and
// the abort path, including the window after the decision has moved its
// record to a terminal state and before its install or discard lands.
// Through the entry points — the message handler and the participant
// loop — the decision also leaves no record behind.
func TestBackEdgeUnsettledUntilSettle(t *testing.T) {
	p := example41Placement(t) // item 1: primary s1, replica s0
	e := newBackEdge(topology(t, BackEdge, p, testParams(), Shape{}), Site{ID: 0}, newCaptureTransport())
	t.Cleanup(e.Stop)
	want := func(step string, prepared, unsettled int) {
		t.Helper()
		if st := e.Status(); st.Prepared != prepared || st.Unsettled != unsettled {
			t.Fatalf("%s: prepared %d, unsettled %d; want %d, %d", step, st.Prepared, st.Unsettled, prepared, unsettled)
		}
	}
	seq := uint64(0)
	register := func() model.TxnID {
		t.Helper()
		seq++
		tid := model.TxnID{Site: 1, Seq: seq}
		sp := specialPayload{TID: tid, Origin: 1, Writes: []model.WriteOp{{Item: 1, Value: int64(seq)}}}
		if got := e.executeHolding(sp, model.SpanContext{TID: tid}); got != beExecOK {
			t.Fatalf("executeHolding = %v, want beExecOK", got)
		}
		want("registered", 1, 1)
		return tid
	}
	for _, commit := range []bool{true, false} {
		name := map[bool]string{true: "commit", false: "abort"}[commit]
		t.Run(name, func(t *testing.T) {
			// The decision's steps one at a time: decided, then settled.
			tid := register()
			e.mu.Lock()
			pe, _ := e.step(tid, decision[commit])
			e.mu.Unlock()
			want("taken", 0, 1)
			if commit {
				e.install(pe, 1)
			} else {
				e.discard(pe)
			}
			want("settled", 0, 0)

			// The same through the entry points: a phase-2 commit, or the
			// origin's abort.
			tid = register()
			msg := comm.Message{From: 1, To: 0, Kind: kindBackedgeAbort, Payload: abortPayload{TID: tid}}
			if commit {
				msg.Kind, msg.ReqID, msg.Payload = kindDecision, 1, decisionPayload{TID: tid, Commit: true}
			}
			e.Handle(msg)
			drainParticipants(e)
			want("decided", 0, 0)
			if n := records(e); n != 0 {
				t.Errorf("%v leaves %d participant records after its decision", tid, n)
			}
		})
	}
	// The commit run installed values 1 and 2; the abort run's 3 and 4
	// were discarded.
	if got := e.Snapshot()[1]; got != 2 {
		t.Errorf("replica of item 1 = %d, want 2", got)
	}
}

// records returns how many participant records e holds, live, terminal or
// tombstones.
func records(e *backedgeEngine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.parts)
}

// drainParticipants runs the participant loop's steps on e's queued
// resolutions until none is left, on the calling goroutine: the tests'
// engines are not started, so no loop runs of its own.
func drainParticipants(e *backedgeEngine) {
	for r, ok := e.inbox.Pop(); ok; r, ok = e.inbox.Pop() {
		e.resolve(r)
	}
}
