package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/txn"
)

// TestDAGWTRoutesThroughTree: with the chain s0-s1-s2, an update whose
// only replica lives at s2 still transits s1 (tree routing, §2), which we
// observe through the message counter: two hops, two messages.
func TestDAGWTRoutesThroughTree(t *testing.T) {
	p := placement(t, 3, []model.SiteID{0}, [][]model.SiteID{{2}})
	s := buildSystem(t, DAGWT, p, testParams(), time.Millisecond)
	if err := s.engines[0].Execute([]model.Op{w(0, 9)}); err != nil {
		t.Fatal(err)
	}
	s.waitValue(t, 2, 0, 9)
	s.quiesce(t)
	rep := s.collector.Snapshot(3)
	if rep.Messages != 2 {
		t.Errorf("messages = %d, want 2 (s0->s1->s2)", rep.Messages)
	}
	// s1 has no copy: the relayed subtransaction performed no update there.
	if got := s.value(t, 1, 0); got != 0 {
		t.Errorf("s1 should hold no copy of item 0; snapshot gave %d", got)
	}
}

// TestDAGWTSkipsIrrelevantSubtrees: under a general (bushy) tree, a write
// replicated only in one branch generates no traffic into the other.
func TestDAGWTSkipsIrrelevantSubtrees(t *testing.T) {
	// s0 -> s1 and s0 -> s2 in the copy graph via two items; the bushy
	// tree keeps s1 and s2 as siblings.
	p := placement(t, 3,
		[]model.SiteID{0, 0},
		[][]model.SiteID{{1}, {2}})
	s := buildSystemFull(t, DAGWT, p, testParams(), 0, Shape{GeneralTree: true}, nil, nil)
	if tree := s.topo.Tree; tree.Parent(1) != 0 || tree.Parent(2) != 0 {
		t.Fatalf("expected bushy tree, got parents %v %v", tree.Parent(1), tree.Parent(2))
	}
	if err := s.engines[0].Execute([]model.Op{w(0, 3)}); err != nil {
		t.Fatal(err)
	}
	s.quiesce(t)
	rep := s.collector.Snapshot(3)
	if rep.Messages != 1 {
		t.Errorf("messages = %d, want 1 (only the s1 branch is relevant)", rep.Messages)
	}
	if got := s.value(t, 1, 0); got != 3 {
		t.Errorf("s1 item0 = %d", got)
	}
}

// TestDAGWTFIFOOrderPreserved: two dependent updates committed in order
// at s0 must apply in that order at every descendant.
func TestDAGWTFIFOOrderPreserved(t *testing.T) {
	p := placement(t, 3, []model.SiteID{0}, [][]model.SiteID{{1, 2}})
	s := buildSystem(t, DAGWT, p, testParams(), time.Millisecond)
	for i := 1; i <= 20; i++ {
		if err := s.engines[0].Execute([]model.Op{w(0, int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.quiesce(t)
	// Final value everywhere is the last committed write; intermediate
	// inversions would break version-order acyclicity, checked below.
	for _, site := range []model.SiteID{1, 2} {
		if got := s.value(t, site, 0); got != 20 {
			t.Errorf("s%d final = %d, want 20", site, got)
		}
	}
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestDAGWTSecondaryRetriesUntilCommit: a conflicting local transaction
// holds the lock for several timeout periods; the secondary
// subtransaction must keep resubmitting (§2) and eventually apply.
func TestDAGWTSecondaryRetriesUntilCommit(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	s := buildSystem(t, DAGWT, p, testParams(), 0)

	e1 := s.engines[1].(*dagwtEngine)
	blocker := e1.tm.Begin(e1.newTxnID())
	if _, err := blocker.Read(0); err != nil { // S lock on the replica
		t.Fatal(err)
	}
	if err := s.engines[0].Execute([]model.Op{w(0, 4)}); err != nil {
		t.Fatal(err)
	}
	// Hold the lock across several LockTimeout periods.
	time.Sleep(5 * testParams().LockTimeout)
	if got := s.value(t, 1, 0); got != 0 {
		t.Fatalf("secondary applied through a held lock: %d", got)
	}
	blocker.Abort()
	s.waitValue(t, 1, 0, 4)
	rep := s.collector.Snapshot(2)
	if rep.Retries == 0 {
		t.Error("no retries counted; the blocking scenario did not engage")
	}
}

// TestDAGWTConcurrentSitesSerializable: full mesh of writers/readers on a
// DAG placement stays serializable and converges.
func TestDAGWTConcurrentSitesSerializable(t *testing.T) {
	p := placement(t, 3,
		[]model.SiteID{0, 0, 1, 2},
		[][]model.SiteID{{1, 2}, {1}, {2}, nil})
	s := buildSystem(t, DAGWT, p, testParams(), 200*time.Microsecond)
	var wg sync.WaitGroup
	for site := 0; site < 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			prims := s.placement.PrimariesAt(model.SiteID(site))
			copies := s.placement.CopiesAt(model.SiteID(site))
			for i := 0; i < 40; i++ {
				ops := []model.Op{
					r(copies[i%len(copies)]),
					w(prims[i%len(prims)], int64(site*1000+i)),
				}
				if err := s.engines[site].Execute(ops); err != nil && !errors.Is(err, txn.ErrAborted) {
					t.Errorf("s%d: %v", site, err)
					return
				}
			}
		}(site)
	}
	wg.Wait()
	s.quiesce(t)
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	for item := 0; item < 4; item++ {
		want := s.value(t, s.placement.Primary[item], model.ItemID(item))
		for _, rep := range s.placement.ReplicaSites(model.ItemID(item)) {
			if got := s.value(t, rep, model.ItemID(item)); got != want {
				t.Errorf("item %d diverged at s%d: %d != %d", item, rep, got, want)
			}
		}
	}
}
