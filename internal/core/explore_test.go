package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/model"
)

// This file implements a bounded-exhaustive interleaving explorer: it
// replays a small scenario under EVERY schedule of primary-transaction
// executions and secondary-subtransaction applications (respecting
// per-edge FIFO), and checks the serializability verdict for each. It is
// the strongest evidence this repository offers that DAG(WT) is
// order-insensitive where it must be — and that NaiveLazy genuinely is
// not: the Example 1.1 anomaly appears in exactly the schedules the paper
// predicts.

// capturePair identifies a directed edge in the captured network.
type capturePair struct{ from, to model.SiteID }

// captureTransport records sends instead of delivering them, so a test
// controls exactly when (and in what interleaving) each message is
// consumed. FIFO per edge is inherent: messages pop from the front.
type captureTransport struct {
	mu     sync.Mutex
	queues map[capturePair][]comm.Message
}

func newCaptureTransport() *captureTransport {
	return &captureTransport{queues: make(map[capturePair][]comm.Message)}
}

func (c *captureTransport) Send(msg comm.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := capturePair{msg.From, msg.To}
	c.queues[p] = append(c.queues[p], msg)
	return nil
}

func (c *captureTransport) Register(model.SiteID, comm.Handler) {}
func (c *captureTransport) Close() error                        { return nil }

// readyEdges lists edges with pending messages, deterministically ordered.
func (c *captureTransport) readyEdges() []capturePair {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []capturePair
	for p, q := range c.queues {
		if len(q) > 0 {
			out = append(out, p)
		}
	}
	// Deterministic order for stable schedule identification.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b capturePair) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}

func (c *captureTransport) pop(p capturePair) (comm.Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queues[p]
	if len(q) == 0 {
		return comm.Message{}, false
	}
	c.queues[p] = q[1:]
	return q[0], true
}

// world is one freshly built scenario instance.
type world struct {
	engines  []Engine
	tr       *captureTransport
	recorder *history.Recorder
	prims    []func() error // primary transactions, executed at most once
}

// applyCaptured synchronously applies one captured secondary at its
// destination engine, through the one kernel apply every lazy engine
// shares.
func (w *world) applyCaptured(msg comm.Message) {
	e := w.engines[msg.To].(interface {
		apply(secondaryPayload, model.SpanContext) bool
	})
	if !e.apply(msg.Payload.(secondaryPayload), msg.Span) {
		panic("explorer: apply refused")
	}
}

// step identifies one scheduled event: a primary index, or a message pop
// from an edge.
type step struct {
	primary int // -1 if this is a delivery
	edge    capturePair
}

func (s step) String() string {
	if s.primary >= 0 {
		return fmt.Sprintf("P%d", s.primary)
	}
	return fmt.Sprintf("d%d>%d", s.edge.from, s.edge.to)
}

// runSchedule replays the given schedule prefix on a fresh world and
// returns the world plus the set of enabled next steps.
func runSchedule(t *testing.T, mk func(t *testing.T) *world, schedule []step) (*world, []step) {
	t.Helper()
	w := mk(t)
	done := make([]bool, len(w.prims))
	for _, s := range schedule {
		if s.primary >= 0 {
			if done[s.primary] {
				t.Fatalf("schedule runs P%d twice", s.primary)
			}
			done[s.primary] = true
			if err := w.prims[s.primary](); err != nil {
				t.Fatalf("primary %d: %v", s.primary, err)
			}
		} else {
			msg, ok := w.tr.pop(s.edge)
			if !ok {
				t.Fatalf("schedule pops empty edge %v", s.edge)
			}
			w.applyCaptured(msg)
		}
	}
	var next []step
	for i, d := range done {
		if !d {
			next = append(next, step{primary: i})
		}
	}
	for _, e := range w.tr.readyEdges() {
		next = append(next, step{primary: -1, edge: e})
	}
	return w, next
}

// explore enumerates every maximal schedule and invokes check on each
// completed world. Returns the number of schedules explored.
func explore(t *testing.T, mk func(t *testing.T) *world, check func(schedule []step, w *world)) int {
	t.Helper()
	count := 0
	var rec func(prefix []step)
	rec = func(prefix []step) {
		w, next := runSchedule(t, mk, prefix)
		if len(next) == 0 {
			check(prefix, w)
			count++
			return
		}
		for _, s := range next {
			rec(append(append([]step(nil), prefix...), s))
		}
	}
	rec(nil)
	return count
}

// example11World builds the Example 1.1 scenario on unstarted engines
// over a capture transport: T1 at s0 writes a; T2 at s1 reads a, writes
// b; T3 at s2 reads a and b.
func example11World(proto Protocol) func(t *testing.T) *world {
	return func(t *testing.T) *world {
		t.Helper()
		p := example11Placement(t)
		g := graph.FromPlacement(p)
		order := []model.SiteID{0, 1, 2}
		tree := graph.BuildChain(order)
		tr := newCaptureTransport()
		rec := history.NewRecorder()
		shared := &SharedConfig{
			Placement:    p,
			Graph:        g,
			Order:        order,
			Tree:         tree,
			SubtreeItems: graph.SubtreeCopyItems(tree, p),
			Params:       testParams(),
			Recorder:     rec,
			Metrics:      metrics.NewCollector(false),
		}
		w := &world{tr: tr, recorder: rec}
		for i := 0; i < 3; i++ {
			e, err := New(proto, shared, model.SiteID(i), tr)
			if err != nil {
				t.Fatal(err)
			}
			// Deliberately NOT started: the explorer is the scheduler.
			w.engines = append(w.engines, e)
		}
		w.prims = []func() error{
			func() error { return w.engines[0].Execute([]model.Op{w1(0, 11)}) },
			func() error { return w.engines[1].Execute([]model.Op{r(0), w1(1, 22)}) },
			func() error { return w.engines[2].Execute([]model.Op{r(0), r(1)}) },
		}
		return w
	}
}

func w1(item model.ItemID, v int64) model.Op {
	return model.Op{Kind: model.OpWrite, Item: item, Value: v}
}

// TestExhaustiveExample11DAGWT: across EVERY schedule, DAG(WT) is
// serializable and, once drained, converged.
func TestExhaustiveExample11DAGWT(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	n := explore(t, example11World(DAGWT), func(schedule []step, w *world) {
		if err := w.recorder.CheckSerializable(); err != nil {
			t.Fatalf("DAG(WT) violated serializability under schedule %v: %v", schedule, err)
		}
		// Drained: replicas match primaries.
		type snap interface {
			Snapshot() map[model.ItemID]int64
		}
		a0 := w.engines[0].(snap).Snapshot()[0]
		for s := 1; s < 3; s++ {
			if got := w.engines[s].(snap).Snapshot()[0]; got != a0 {
				t.Fatalf("item 0 diverged under %v: s0=%d s%d=%d", schedule, a0, s, got)
			}
		}
	})
	// Tree routing serializes deliveries (s0->s1 strictly before s1->s2),
	// so DAG(WT) has fewer schedules than NaiveLazy's parallel fan-out —
	// 42 vs 120 here. That reduction in concurrency IS the protocol.
	if n < 30 {
		t.Fatalf("only %d schedules explored; the scenario should branch more", n)
	}
	t.Logf("DAG(WT): %d schedules, all serializable", n)
}

// TestExhaustiveExample11NaiveLazy: the anomaly appears in SOME schedule
// (the paper's Example 1.1 interleaving), while plenty of schedules are
// fine — indiscriminate propagation is unsafe, not always-wrong.
func TestExhaustiveExample11NaiveLazy(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	bad, good := 0, 0
	n := explore(t, example11World(NaiveLazy), func(schedule []step, w *world) {
		if err := w.recorder.CheckSerializable(); err != nil {
			bad++
		} else {
			good++
		}
	})
	if bad == 0 {
		t.Fatalf("no schedule of %d produced the Example 1.1 anomaly", n)
	}
	if good == 0 {
		t.Fatalf("every schedule was non-serializable; the explorer is broken")
	}
	t.Logf("NaiveLazy: %d schedules, %d serializable, %d anomalous", n, good, bad)
}

// TestExhaustiveBackEdgeWithoutBackedgesIsDAGWT makes §4.1's "such
// transactions execute exactly as they would under DAG(WT)" checkable: on
// an acyclic placement (an empty backedge set) the two protocols must
// admit exactly the same schedules and, under each, leave exactly the
// same version history at every copy.
func TestExhaustiveBackEdgeWithoutBackedgesIsDAGWT(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	p := example11Placement(t)
	histories := func(proto Protocol) map[string]string {
		out := make(map[string]string)
		explore(t, example11World(proto), func(schedule []step, w *world) {
			var h []string
			for site := model.SiteID(0); int(site) < p.NumSites; site++ {
				for _, item := range p.CopiesAt(site) {
					h = append(h, fmt.Sprintf("s%d/x%d=%v", site, item, w.recorder.WriteHistory(site, item)))
				}
			}
			out[fmt.Sprint(schedule)] = fmt.Sprint(h)
		})
		return out
	}
	want, got := histories(DAGWT), histories(BackEdge)
	if len(want) < 30 {
		t.Fatalf("only %d schedules explored; the scenario should branch more", len(want))
	}
	if len(got) != len(want) {
		t.Errorf("BackEdge explored %d schedules, DAG(WT) %d", len(got), len(want))
	}
	for schedule, h := range want {
		if g, ok := got[schedule]; !ok {
			t.Errorf("schedule %s exists under DAG(WT) but not under BackEdge", schedule)
		} else if g != h {
			t.Errorf("schedule %s:\n DAG(WT)  %s\n BackEdge %s", schedule, h, g)
		}
	}
}
