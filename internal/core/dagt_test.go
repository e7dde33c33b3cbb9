package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/ts"
)

// TestDAGTProgressWithSilentParent is the §3.3 scenario: s2 has two
// incomparable parents s0 and s1. A transaction committed at s0 must
// still execute at s2 even though s1 stays silent — epoch advancement and
// dummy subtransactions must unblock the scheduler.
func TestDAGTProgressWithSilentParent(t *testing.T) {
	p := placement(t, 3,
		[]model.SiteID{0, 1},
		[][]model.SiteID{{2}, {2}})
	s := buildSystem(t, DAGT, p, testParams(), time.Millisecond)
	if err := s.engines[0].Execute([]model.Op{w(0, 42)}); err != nil {
		t.Fatal(err)
	}
	// s1 never executes anything; the update must still land at s2.
	s.waitValue(t, 2, 0, 42)
	rep := s.collector.Snapshot(3)
	if rep.Dummies == 0 {
		t.Error("no dummy subtransactions were needed — the test did not exercise §3.3")
	}
}

// TestDAGTTimestampOrderAcrossChain verifies that a chain of dependent
// updates applies in order: T1 writes a at s0; after it lands at s1, T2
// writes b at s1; s2 (child of both) must apply a before b even when the
// s0→s2 edge is slower.
func TestDAGTTimestampOrderAcrossChain(t *testing.T) {
	p := example11Placement(t)
	s := buildSystem(t, DAGT, p, testParams(), time.Millisecond)
	s.transport.SetEdgeLatency(0, 2, 60*time.Millisecond)

	if err := s.engines[0].Execute([]model.Op{w(0, 7)}); err != nil {
		t.Fatal(err)
	}
	s.waitValue(t, 1, 0, 7)
	if err := s.engines[1].Execute([]model.Op{r(0), w(1, 8)}); err != nil {
		t.Fatal(err)
	}
	// When b appears at s2, a must already be there (T1's timestamp is a
	// prefix of T2's, so the scheduler is forced to order them).
	s.waitValue(t, 2, 1, 8)
	if got := s.value(t, 2, 0); got != 7 {
		t.Fatalf("s2 applied T2 before T1: a=%d", got)
	}
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestDAGTManyWritersConverge floods one replica site from two parent
// sites and checks convergence plus serializability.
func TestDAGTManyWritersConverge(t *testing.T) {
	p := placement(t, 3,
		[]model.SiteID{0, 1},
		[][]model.SiteID{{2}, {2}})
	s := buildSystem(t, DAGT, p, testParams(), 200*time.Microsecond)
	done := make(chan error, 2)
	go func() {
		var err error
		for i := 0; i < 50 && err == nil; i++ {
			err = s.engines[0].Execute([]model.Op{w(0, int64(i))})
		}
		done <- err
	}()
	go func() {
		var err error
		for i := 0; i < 50 && err == nil; i++ {
			err = s.engines[1].Execute([]model.Op{w(1, int64(1000+i))})
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s.quiesce(t)
	if got := s.value(t, 2, 0); got != 49 {
		t.Errorf("item 0 at s2 = %d, want 49", got)
	}
	if got := s.value(t, 2, 1); got != 1049 {
		t.Errorf("item 1 at s2 = %d, want 1049", got)
	}
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestDAGTSecondaryCarriesOnlyRelevantWrites: DAG(T) ships a child only
// the writes it replicates (§3.2.2 schedules secondaries at *relevant*
// children).
func TestDAGTSecondaryCarriesOnlyRelevantWrites(t *testing.T) {
	// Items 0 and 1 primary at s0; item 0 replicated at s1, item 1 at s2.
	p := placement(t, 3,
		[]model.SiteID{0, 0},
		[][]model.SiteID{{1}, {2}})
	s := buildSystem(t, DAGT, p, testParams(), 0)
	if err := s.engines[0].Execute([]model.Op{w(0, 5), w(1, 6)}); err != nil {
		t.Fatal(err)
	}
	s.quiesce(t)
	if got := s.value(t, 1, 0); got != 5 {
		t.Errorf("s1 item0 = %d", got)
	}
	if got := s.value(t, 2, 1); got != 6 {
		t.Errorf("s2 item1 = %d", got)
	}
	// Exactly two real secondaries (one per replica site).
	if rep := s.collector.Snapshot(3); rep.Secondaries != 2 {
		t.Errorf("secondaries = %d, want 2", rep.Secondaries)
	}
}

// TestDAGTSchedulerPicksGlobalMinimumExhaustive unit-tests the §3.2.3
// scheduling rule directly: for EVERY way of splitting six totally
// ordered timestamps between two parent queues, popping while both
// queues are non-empty must yield the global minimum each time.
func TestDAGTSchedulerPicksGlobalMinimumExhaustive(t *testing.T) {
	// s2 has parents s0 and s1 (items replicated from both).
	p := placement(t, 3,
		[]model.SiteID{0, 1},
		[][]model.SiteID{{2}, {2}})
	base := buildSystem(t, DAGT, p, testParams(), 0)
	_ = base // built only to validate the placement wiring; the engine
	// under test below is constructed fresh and never started.

	mkTS := func(site model.SiteID, lts uint64) ts.Timestamp {
		v := ts.New(site)
		for i := uint64(0); i < lts; i++ {
			v = v.BumpLast()
		}
		return v
	}
	// Six timestamps with a known total order (alternating sites so the
	// reverse-site rule matters).
	all := []ts.Timestamp{
		mkTS(0, 1), mkTS(0, 2), mkTS(0, 3),
		mkTS(1, 1), mkTS(1, 2), mkTS(1, 3),
	}
	sorted := append([]ts.Timestamp(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	s2 := base.engines[2].(*dagtEngine)
	for mask := 0; mask < 1<<len(all); mask++ {
		e := newDAGT(s2.topo, Site{ID: 2, Sinks: s2.sinks}, comm.NewMemTransport(0))
		// Distribute: bit set -> parent 0's queue, else parent 1's. Each
		// queue must stay internally sorted (per-sender FIFO), so feed
		// each queue its subsequence in sorted order.
		var qa, qb []ts.Timestamp
		for i, v := range sorted {
			if mask&(1<<i) != 0 {
				qa = append(qa, v)
			} else {
				qb = append(qb, v)
			}
		}
		for _, v := range qa {
			e.Handle(comm.Message{From: 0, To: 2, Kind: kindSecondary, Payload: secondaryPayload{TS: v, Dummy: true}})
		}
		for _, v := range qb {
			e.Handle(comm.Message{From: 1, To: 2, Kind: kindSecondary, Payload: secondaryPayload{TS: v, Dummy: true}})
		}
		// Pop while both queues are non-empty; the pops must follow the
		// global order exactly.
		pops := 0
		for len(e.queues[0]) > 0 && len(e.queues[1]) > 0 {
			got, _, ok := e.nextSecondary()
			if !ok {
				t.Fatal("scheduler stopped unexpectedly")
			}
			if !got.p.TS.Equal(sorted[pops]) {
				t.Fatalf("mask %06b pop %d: got %v, want %v", mask, pops, got.p.TS, sorted[pops])
			}
			pops++
		}
	}
}

// TestDAGTEpochMonotoneAtInteriorSite observes the site timestamp of a
// middle site and checks the epoch never decreases while traffic flows.
func TestDAGTEpochMonotoneAtInteriorSite(t *testing.T) {
	p := example11Placement(t)
	s := buildSystem(t, DAGT, p, testParams(), 0)
	e1 := s.engines[1].(*dagtEngine)
	var last uint64
	stop := time.After(150 * time.Millisecond)
	for {
		select {
		case <-stop:
			if last == 0 {
				t.Error("epoch never advanced at interior site s1")
			}
			return
		default:
		}
		e1.tsMu.Lock()
		cur := e1.siteTS.Epoch
		e1.tsMu.Unlock()
		if cur < last {
			t.Fatalf("epoch regressed: %d -> %d", last, cur)
		}
		last = cur
		time.Sleep(2 * time.Millisecond)
	}
}
