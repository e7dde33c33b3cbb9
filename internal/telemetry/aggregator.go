package telemetry

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/watch"
)

const (
	// maxEvents caps the merged span-event store; past it the oldest
	// events are dropped (span trees of long-gone transactions decay
	// first, since the store is arrival-ordered).
	maxEvents = 1 << 18
	// maxRecentTIDs caps how many distinct transactions are remembered
	// for span-trace display, newest last.
	maxRecentTIDs = 64
)

// procState is everything the aggregator knows about one publishing
// process.
type procState struct {
	protocol string
	sites    []model.SiteID
	seq      uint64 // highest frame sequence seen
	frames   uint64 // frames received
	gaps     uint64 // sequence discontinuities (lost frames or restarts)
	dropped  uint64 // publisher-reported buffer-overflow drops
	metrics  map[string]int64
	phases   map[string]metrics.PhaseStats
	alerts   []watch.Alert
	heat     []contend.HeatEntry
	lastSeen time.Time
}

// Aggregator merges telemetry streams from N processes into one cluster
// view: per-proc metrics re-keyed by site, a single merged span-event
// stream (deterministic span lineage makes cross-process trees stitch
// themselves — see trace.BuildSpanTrees), and a federated staleness
// view folding every process's forwarded/applied events into one
// watch.Inflight, which no single in-process watchdog can compute once
// the copy graph spans processes.
type Aggregator struct {
	mu    sync.Mutex
	procs map[string]*procState // repl:guardedby(mu)

	events   []trace.Event        // repl:guardedby(mu)
	recent   []model.TxnID        // repl:guardedby(mu)
	recentIn map[model.TxnID]bool // repl:guardedby(mu)

	// Federated staleness: outstanding forwarded-but-unapplied
	// subtransactions per edge, stamped with aggregator receipt time.
	// Frames from different connections interleave arbitrarily; the fold
	// tolerates an apply ingested before its forward.
	inflight *watch.Inflight // repl:guardedby(mu)

	// Rate bookkeeping for Snapshot.
	lastSnapAt    time.Time        // repl:guardedby(mu)
	lastCommitted map[string]int64 // per protocol // repl:guardedby(mu)

	start time.Time

	ln         net.Listener // repl:guardedby(mu)
	wg         sync.WaitGroup
	closed     bool                  // repl:guardedby(mu)
	conns      map[net.Conn]struct{} // open publisher connections // repl:guardedby(mu)
	totalConns int                   // repl:guardedby(mu)
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		procs:    make(map[string]*procState),
		recentIn: make(map[model.TxnID]bool),
		inflight: watch.NewInflight(),
		conns:    make(map[net.Conn]struct{}),
		start:    time.Now(),
	}
}

// Listen starts accepting publisher connections on addr (":0" picks a
// port) and returns the bound address.
func (a *Aggregator) Listen(addr string) (string, error) {
	RegisterPayloads()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("telemetry: aggregator closed")
	}
	a.ln = ln
	a.mu.Unlock()
	a.wg.Add(1)
	go a.accept(ln)
	return ln.Addr().String(), nil
}

func (a *Aggregator) accept(ln net.Listener) {
	defer a.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			c.Close()
			return
		}
		a.conns[c] = struct{}{}
		a.totalConns++
		a.mu.Unlock()
		a.wg.Add(1)
		go a.serve(c)
	}
}

func (a *Aggregator) serve(c net.Conn) {
	defer a.wg.Done()
	defer func() {
		c.Close()
		a.mu.Lock()
		delete(a.conns, c)
		a.mu.Unlock()
	}()
	mr := comm.NewMsgReader(c)
	for {
		msg, err := mr.ReadMsg()
		if err != nil {
			return // clean close, peer death, or our own Close
		}
		if msg.Kind != MessageKind {
			continue // foreign traffic; telemetry ports only speak telemetry
		}
		f, ok := msg.Payload.(Frame)
		if !ok {
			continue
		}
		a.Ingest(f)
	}
}

// ConnCounts reports (active, total-ever) publisher connections —
// repltop's -once mode exits once every publisher has connected and
// disconnected.
func (a *Aggregator) ConnCounts() (active, total int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.conns), a.totalConns
}

// Close stops the listener and drops all connections, unblocking every
// serve goroutine's read whether or not its publisher is still
// connected. Ingested state remains readable.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	if a.ln != nil {
		a.ln.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return nil
}

// Ingest merges one frame into the cluster view. Safe for concurrent
// use (each wire connection calls it from its own goroutine).
func (a *Aggregator) Ingest(f Frame) {
	if f.Proc == "" {
		return
	}
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.procs[f.Proc]
	if ps == nil {
		ps = &procState{metrics: make(map[string]int64)}
		a.procs[f.Proc] = ps
	}
	ps.frames++
	if ps.seq != 0 && f.Seq > ps.seq+1 {
		ps.gaps++
	}
	if f.Seq > ps.seq {
		ps.seq = f.Seq
	}
	ps.lastSeen = now

	for k, v := range f.Metrics {
		ps.metrics[k] = v // absolute values: replay-safe
	}
	ps.dropped = max(ps.dropped, f.Dropped)
	a.ingestEvents(f.Events, now)
	// The rest is the process's whole current state: replay-safe.
	ps.protocol, ps.sites = f.Protocol, f.Sites
	ps.phases, ps.alerts, ps.heat = f.Phases, f.Alerts, f.Heat
}

// ingestEvents appends span events to the merged stream and folds them
// into the federated staleness view. Caller holds a.mu.
func (a *Aggregator) ingestEvents(events []trace.Event, now time.Time) {
	for _, ev := range events {
		a.events = append(a.events, ev)
		if !ev.TID.Zero() && !a.recentIn[ev.TID] {
			a.recentIn[ev.TID] = true
			a.recent = append(a.recent, ev.TID)
			if len(a.recent) > maxRecentTIDs {
				delete(a.recentIn, a.recent[0])
				a.recent = a.recent[1:]
			}
		}
		a.inflight.Observe(ev, now)
	}
	if len(a.events) > maxEvents {
		a.events = append([]trace.Event(nil), a.events[len(a.events)-maxEvents:]...)
	}
}

// Events returns a copy of the merged span-event stream, in arrival
// order.
func (a *Aggregator) Events() []trace.Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]trace.Event(nil), a.events...)
}

// SpanTrees reconstructs the cross-process span trees from the merged
// stream.
func (a *Aggregator) SpanTrees() map[model.TxnID]*trace.SpanTree {
	return trace.BuildSpanTrees(a.Events())
}
