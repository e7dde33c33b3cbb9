package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/israce"
	"repro/internal/model"
)

// discardTransport drops every message, so a test can count what the
// sender allocates and nothing else.
type discardTransport struct{}

func (discardTransport) Send(comm.Message) error             { return nil }
func (discardTransport) Register(model.SiteID, comm.Handler) {}
func (discardTransport) Close() error                        { return nil }

// allocConfig is a no-log, unobserved configuration over the chain
// s0 → s1 → s2, where s0 is the primary of items 0 and 1, s1 replicates
// both and s2 replicates item 1.
func allocConfig(t *testing.T) *SharedConfig {
	t.Helper()
	p := placement(t, 3, []model.SiteID{0, 0}, [][]model.SiteID{{1}, {1, 2}})
	order := []model.SiteID{0, 1, 2}
	tree := graph.BuildChain(order)
	return &SharedConfig{
		Placement:    p,
		Graph:        graph.FromPlacement(p),
		Order:        order,
		Tree:         tree,
		SubtreeItems: graph.SubtreeCopyItems(tree, p),
		Params:       testParams(),
	}
}

// TestLazyCommitAllocationBudget: without a log, a lazy commit that fans
// out allocates one block for its routes' writes plus one payload per
// route, on top of its Txn — on the primary path and on a relaying
// secondary's alike.
func TestLazyCommitAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	writes := []model.WriteOp{{Item: 0, Value: 1}, {Item: 1, Value: 2}}

	// NaiveLazy routes s0's writes straight to both replica sites.
	primary := newNaive(allocConfig(t), 0, discardTransport{})
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
	relay := newDAGWT(allocConfig(t), 1, discardTransport{})
	defer relay.Stop()
	p := secondaryPayload{TID: model.TxnID{Site: 0, Seq: 1}, Writes: writes}

	for _, row := range []struct {
		name string
		run  func()
		want float64 // the Txn, the block, a payload per route
	}{
		{"primary, two routes", func() {
			if err := primary.Execute(ops); err != nil {
				t.Fatal(err)
			}
		}, 1 + 1 + 2},
		{"relaying secondary, one route", func() {
			if !relay.apply(p, model.SpanContext{TID: p.TID}) {
				t.Fatal("apply failed")
			}
		}, 1 + 1 + 1},
	} {
		row.run() // warm-up: fills the lock manager's pools
		if n := testing.AllocsPerRun(1000, row.run); n != row.want {
			t.Errorf("%s: commit allocates %v times, want %v", row.name, n, row.want)
		}
	}
}
