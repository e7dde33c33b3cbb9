package graph

import (
	"testing"

	"repro/internal/model"
)

// decodeGraph turns fuzz bytes into a directed graph over ≤ 8 sites.
func decodeGraph(data []byte) *CopyGraph {
	n := 2
	if len(data) > 0 {
		n = 2 + int(data[0]%7)
		data = data[1:]
	}
	g := New(n)
	for i := 0; i+1 < len(data) && i < 64; i += 2 {
		g.AddEdge(model.SiteID(int(data[i])%n), model.SiteID(int(data[i+1])%n))
	}
	return g
}

// FuzzBackedgeComputation checks on arbitrary graphs that both backedge
// algorithms produce feedback arc sets whose removal yields a DAG, that
// the DFS set is minimal, and that tree construction over the resulting
// DAG preserves the §2 ancestor property. For the DFS set and for the
// minimum-weight set under the tree over what it leaves (the pair a
// minimized-backedge deployment runs), every backedge target is a tree
// ancestor of its origin, as BackEdge routing needs (§4.1).
func FuzzBackedgeComputation(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)

		dfs := DFSBackedges(g)
		gdag := g.Without(dfs)
		if !gdag.IsDAG() {
			t.Fatalf("DFS backedges %v leave a cycle", dfs)
		}
		if !isMinimal(g, dfs) {
			t.Fatalf("DFS backedge set %v not minimal", dfs)
		}

		mw := MinWeightBackedges(g)
		mwDAG := g.Without(mw)
		if !mwDAG.IsDAG() {
			t.Fatalf("greedy FAS backedges %v leave a cycle", mw)
		}
		mwTree, err := BuildTree(mwDAG)
		if err != nil {
			t.Fatalf("BuildTree without the greedy FAS backedges: %v", err)
		}
		if e := CheckAncestorProperty(mwDAG, mwTree); e != nil {
			t.Fatalf("ancestor property violated on %v without the greedy FAS backedges", *e)
		}
		for _, e := range mw {
			if !mwTree.IsAncestor(e.To, e.From) {
				t.Fatalf("greedy FAS backedge %v target not a tree ancestor", e)
			}
		}

		tree, err := BuildTree(gdag)
		if err != nil {
			t.Fatalf("BuildTree on DAG: %v", err)
		}
		if e := CheckAncestorProperty(gdag, tree); e != nil {
			t.Fatalf("ancestor property violated on %v", *e)
		}
		// Minimality of dfs implies every backedge target is a tree
		// ancestor of its origin (§4.1) — verify the property BackEdge
		// routing depends on.
		for _, e := range dfs {
			if !tree.IsAncestor(e.To, e.From) {
				t.Fatalf("backedge %v target not a tree ancestor", e)
			}
		}
	})
}
