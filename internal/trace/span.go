package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// Span-tree reconstruction (docs/OBSERVABILITY.md). Every span-carrying
// event names its span and its causal parent, so rebuilding the tree of
// one transaction is exact bookkeeping, not inference from event timing
// and site adjacency.

// SpanNode is one node of a reconstructed span tree: one site's work on
// behalf of one transaction, plus any auxiliary spans (retransmissions,
// acks, fault attributions) hanging off it.
type SpanNode struct {
	ID       model.SpanID
	Site     model.SiteID
	Parent   *SpanNode
	Children []*SpanNode
	Events   []Event // this span's events in recording order
}

// Has reports whether any event of kind k was recorded under the node.
func (n *SpanNode) Has(k Kind) bool {
	for _, ev := range n.Events {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// SpanTree is the reconstructed causal tree of one transaction.
type SpanTree struct {
	TID   model.TxnID
	Root  *SpanNode
	Nodes map[model.SpanID]*SpanNode
	// Orphans are events whose parent span never appeared in the stream
	// — broken causality, or a trace truncated mid-flight.
	Orphans []Event
}

// BuildSpanTrees reconstructs one tree per transaction from an event
// stream. Events without span attribution (Span == 0) and events with a
// zero TID (dummies, partitions, watchdog alerts) are ignored.
func BuildSpanTrees(events []Event) map[model.TxnID]*SpanTree {
	trees := make(map[model.TxnID]*SpanTree)
	for _, ev := range events {
		if ev.Span == 0 || ev.TID.Zero() {
			continue
		}
		tr := trees[ev.TID]
		if tr == nil {
			tr = &SpanTree{TID: ev.TID, Nodes: make(map[model.SpanID]*SpanNode)}
			trees[ev.TID] = tr
		}
		n := tr.Nodes[ev.Span]
		if n == nil {
			n = &SpanNode{ID: ev.Span, Site: ev.Site}
			tr.Nodes[ev.Span] = n
		}
		n.Events = append(n.Events, ev)
	}
	for _, tr := range trees {
		root := model.RootSpan(tr.TID)
		tr.Root = tr.Nodes[root]
		for _, n := range tr.Nodes {
			if n.ID == root {
				continue
			}
			p := tr.Nodes[n.Events[0].Parent]
			if p == nil {
				tr.Orphans = append(tr.Orphans, n.Events...)
				continue
			}
			n.Parent = p
			p.Children = append(p.Children, n)
		}
		for _, n := range tr.Nodes {
			sort.Slice(n.Children, func(i, j int) bool {
				a, b := n.Children[i], n.Children[j]
				if a.Site != b.Site {
					return a.Site < b.Site
				}
				return a.ID < b.ID
			})
		}
	}
	return trees
}

// VerifySpans checks causal integrity over a whole stream: every
// span-carrying event must belong to a tree whose root is the
// transaction's primary span, and every non-root span's parent must
// resolve to a recorded span. It returns a description per violation.
func VerifySpans(events []Event) []string {
	var problems []string
	for tid, tr := range BuildSpanTrees(events) {
		if tr.Root == nil {
			problems = append(problems, fmt.Sprintf("txn %v: no root span (primary never recorded)", tid))
		}
		for _, ev := range tr.Orphans {
			problems = append(problems, fmt.Sprintf(
				"txn %v: %v at site %d span %d has unresolved parent %d",
				tid, ev.Kind, ev.Site, ev.Span, ev.Parent))
		}
	}
	sort.Strings(problems)
	return problems
}

// Structure renders the propagation skeleton of the tree as a
// deterministic multi-line string: the root plus every span that
// applied the update (SecondaryApplied or BackedgeCommit) and the relay
// spans on the way there, children ordered by site then id. Timestamps,
// retransmissions, acks, and 2PC vote traffic are deliberately
// excluded, so two runs with the same seed render byte-identical
// structures even though their clocks and retransmit counts differ.
func (t *SpanTree) Structure() string {
	if t.Root == nil {
		return ""
	}
	keep := make(map[model.SpanID]bool)
	for _, n := range t.Nodes {
		if n.Has(SecondaryApplied) || n.Has(BackedgeCommit) {
			for m := n; m != nil; m = m.Parent {
				keep[m.ID] = true
			}
		}
	}
	keep[t.Root.ID] = true
	var b strings.Builder
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		fmt.Fprintf(&b, "%ssite=%d", strings.Repeat("  ", depth), n.Site)
		if n.Has(SecondaryApplied) || n.Has(BackedgeCommit) {
			b.WriteString(" applied")
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			if keep[c.ID] {
				walk(c, depth+1)
			}
		}
	}
	walk(t.Root, 0)
	return b.String()
}
