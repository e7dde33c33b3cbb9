package core

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/israce"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
)

// discardTransport drops every message, so a test can count what the
// sender allocates and nothing else.
type discardTransport struct{}

func (discardTransport) Send(comm.Message) error             { return nil }
func (discardTransport) Register(model.SiteID, comm.Handler) {}
func (discardTransport) Close() error                        { return nil }

// allocPlacement lays out the chain s0 → s1 → s2: s0 is the primary of
// items 0 and 1, s1 replicates both and s2 replicates item 1.
func allocPlacement(t *testing.T) *model.Placement {
	return placement(t, 3, []model.SiteID{0, 0}, [][]model.SiteID{{1}, {1, 2}})
}

// allocTopology is proto's topology over allocPlacement with testParams.
// Its engines run with no log and no sinks (Site{ID: id}).
func allocTopology(t *testing.T, proto Protocol) *Topology {
	return topology(t, proto, allocPlacement(t), testParams(), Shape{})
}

// TestLazyCommitAllocationBudget: without a log, a lazy commit that fans
// out allocates one block for its routes' writes plus one payload per
// route — on the primary path on top of its Txn, on a relaying
// secondary's with a recycled one. A read-only primary allocates its Txn
// alone, except a lazy snapshot reader, which recycles it and allocates
// nothing. Resubmitting a refused secondary allocates nothing more.
func TestLazyCommitAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	writes := []model.WriteOp{{Item: 0, Value: 1}, {Item: 1, Value: 2}}

	// NaiveLazy routes s0's writes straight to both replica sites.
	primary := newNaive(allocTopology(t, NaiveLazy), Site{ID: 0}, discardTransport{})
	defer primary.Stop()
	if len(primary.routes) != 2 {
		t.Fatalf("s0 has %d routes, want 2", len(primary.routes))
	}
	ops := []model.Op{
		{Kind: model.OpRead, Item: 0},
		{Kind: model.OpWrite, Item: writes[0].Item, Value: writes[0].Value},
		{Kind: model.OpWrite, Item: writes[1].Item, Value: writes[1].Value},
	}
	// DAG(WT)'s s1 applies both writes and relays item 1 to its child s2.
	relay := newDAGWT(allocTopology(t, DAGWT), Site{ID: 1}, discardTransport{})
	defer relay.Stop()
	p := secondaryPayload{TID: model.TxnID{Site: 0, Seq: 1}, Writes: writes}
	apply := func() {
		if !relay.apply(0, p, model.SpanContext{TID: p.TID}) {
			t.Fatal("apply failed")
		}
	}
	// A reader at s1 holds S(0) whenever the refused row starts; the
	// relay's first lock request, on item 0, is refused, and the phase
	// hook — which runs as each request returns — then lets the reader
	// go, so the resubmission's blocking wait is granted at once.
	reader := model.TxnID{Site: 1, Seq: 1 << 40}
	relay.tm.SetPhaseHook(func(metrics.Phase, model.TxnID, time.Time) {
		relay.locks.ReleaseAll(reader)
	})
	retries := &relay.bank[metrics.Retries]
	// A read-only program costs its Txn alone when it reads under S locks
	// (an engine with no snapshot policy: the paper's readers) or as a
	// BackEdge snapshot reader, which first checks its prepared items. A
	// snapshot reader at a lazy site (NaiveLazy, like DAG(WT) and DAG(T))
	// costs nothing: its committed Txn goes back to the pool.
	reads := []model.Op{r(0), r(1)}
	locking := newBackEdge(allocTopology(t, BackEdge), Site{ID: 0}, discardTransport{})
	defer locking.Stop()
	locking.snapshot = nil
	backedge := newBackEdge(allocTopology(t, BackEdge), Site{ID: 0}, discardTransport{})
	defer backedge.Stop()

	for _, row := range []struct {
		name string
		run  func()
		want float64 // the Txn (primary only), the block, a payload per route
	}{
		{"primary, two routes", func() {
			if err := primary.Execute(ops); err != nil {
				t.Fatal(err)
			}
		}, 1 + 1 + 2},
		{"read-only primary, locking reader", func() {
			if err := locking.Execute(reads); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"read-only primary, snapshot reader", func() {
			if err := primary.Execute(reads); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"read-only primary, BackEdge snapshot reader", func() {
			if err := backedge.Execute(reads); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"relaying secondary, one route", apply, 1 + 1},
		{"relaying secondary refused once, one route", func() {
			if err := relay.locks.Acquire(reader, 0, lock.Shared, 0); err != nil {
				t.Fatal(err)
			}
			before := retries.Value()
			apply()
			if retries.Value() != before+1 {
				t.Fatalf("apply resubmitted %d times, want 1", retries.Value()-before)
			}
		}, 1 + 1},
	} {
		row.run() // warm-up: fills the lock manager's and the Txn pools
		if n := testing.AllocsPerRun(1000, row.run); n != row.want {
			t.Errorf("%s: commit allocates %v times, want %v", row.name, n, row.want)
		}
	}
}
