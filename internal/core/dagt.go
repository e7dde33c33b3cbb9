package core

import (
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ts"
	"repro/internal/wal"
	"repro/internal/watch"
)

// dagtEngine implements the DAG(T) protocol (§3) as a policy over the lazy
// kernel. Routing: updates travel directly along copy-graph edges, to the
// children replicating an updated item, and are not relayed. Ordering:
// each site keeps one incoming queue per copy-graph parent and executes
// the secondary subtransaction with the minimum timestamp among the queue
// heads, but only once every queue is non-empty; the kernel's commit
// critical section stamps primaries with the site timestamp and advances
// it past each committed secondary. Epoch numbers advanced by the sources,
// plus dummy subtransactions on idle edges, guarantee progress (§3.3).
type dagtEngine struct {
	lazyEngine

	parents  []model.SiteID
	children []model.SiteID

	// tsMu guards the site timestamp state; it is the §3.2.2 critical
	// section together with commitMu.
	tsMu     sync.Mutex
	siteTS   ts.Timestamp               // repl:guardedby(tsMu)
	ltsi     uint64                     // primary subtransactions committed here (LTSi) // repl:guardedby(tsMu)
	lastSent map[model.SiteID]time.Time // repl:guardedby(tsMu)

	// qMu/qCond guard the per-parent queues.
	qMu    sync.Mutex
	qCond  *sync.Cond
	queues map[model.SiteID][]tsItem // repl:guardedby(qMu)
	held   depth
}

// tsItem is one queued secondary subtransaction with the causal context
// it arrived under and its enqueue stamp (queue-wait attribution).
type tsItem struct {
	p  secondaryPayload
	sc model.SpanContext
	at time.Time
}

//lint:allow guardedby construction is single-threaded; the scheduler, tickers, and watchdog callback that share these fields only start in Start, after newDAGT returns
func newDAGT(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *dagtEngine {
	e := &dagtEngine{
		lazyEngine: newLazy(cfg, DAGT, id, tr),
		parents:    cfg.Graph.Parents(id),
		children:   cfg.Graph.Children(id),
		siteTS:     ts.New(id),
		lastSent:   make(map[model.SiteID]time.Time),
		queues:     make(map[model.SiteID][]tsItem),
	}
	e.held = e.newDepth("ts")
	e.qCond = sync.NewCond(&e.qMu)
	// A child is relevant for a transaction iff it replicates one of the
	// updated items (§3.2.2 step 3).
	e.routes, e.enqueue = replicaRoutes(cfg.Placement, id, e.children), e.hold
	e.stamp, e.sent, e.advance = e.stampTS, e.noteSent, e.advanceTS
	for _, c := range e.children {
		e.noteSent(c)
	}
	for _, par := range e.parents {
		e.queues[par] = nil
	}
	e.recoverWAL()
	// The watchdog's DAG(T) liveness probe: the site's current epoch plus
	// any parent whose empty queue is blocking the timestamp scheduler
	// while a sibling queue has work (the §3.3 stall the dummy mechanism
	// exists to prevent).
	cfg.Watch.RegisterEpoch(id, func() watch.EpochStatus {
		e.tsMu.Lock()
		st := watch.EpochStatus{Epoch: e.siteTS.Epoch}
		e.tsMu.Unlock()
		e.qMu.Lock()
		var empty []model.SiteID
		for _, par := range e.parents {
			if len(e.queues[par]) == 0 {
				empty = append(empty, par)
			}
		}
		e.qMu.Unlock()
		if len(empty) < len(e.parents) {
			st.Blocked = empty
		}
		return st
	})
	return e
}

func (e *dagtEngine) Start() {
	if len(e.parents) > 0 {
		go e.scheduler()
	}
	if len(e.children) > 0 {
		go e.dummyTicker()
	}
	if len(e.parents) == 0 && len(e.children) > 0 {
		go e.epochTicker()
	}
}

// recoverWAL rebuilds the timestamp state from the last durable apply,
// then lets the kernel re-send unmarked forwards (each with its logged
// timestamp) and re-admit unconsumed receipts to their parents' queues.
//
//lint:allow guardedby recovery runs inside newDAGT before any goroutine that shares the timestamp or queue state exists
func (e *dagtEngine) recoverWAL() {
	if e.wal == nil {
		return
	}
	rec := e.wal.Recovered()
	if rec.HasApply {
		// The last apply record fully determines the site timestamp: an
		// origin commit stamped its own clone; a secondary commit appended
		// the local tuple to the payload timestamp (advanceTS).
		if rec.LastRole == wal.RoleOrigin {
			e.siteTS = rec.LastTS.Clone()
		} else {
			e.siteTS = rec.LastTS.Append(ts.Tuple{Site: e.id, LTS: rec.LastLTSI})
		}
		e.ltsi = rec.LastLTSI
	}
	// Jump past every LTS advance the pre-crash incarnation could have
	// shipped without logging it (dummy bumps are deliberately not
	// durable): this site's own tuple must keep strictly increasing down
	// every edge. LTS is only ever compared against this site's own
	// earlier tuples, so an over-generous jump costs nothing.
	e.ltsi += 1 << 20
	e.siteTS.Tuples[len(e.siteTS.Tuples)-1].LTS = e.ltsi
	// The epoch is different: ts.Compare orders by epoch first, across
	// sites, so it must resume at *exactly* the largest epoch the disk
	// knows. Regressing (below a pre-crash shipment) breaks per-edge
	// timestamp monotonicity; overshooting (the tempting large jump)
	// makes every post-recovery timestamp dominate the cluster and
	// starves this site's entries in its children's min-timestamp head
	// selection until the sources tick their way up to it. Every
	// pre-crash shipment's epoch is durably backed — apply records carry
	// their timestamp, and source epoch ticks append KindEpoch before
	// publishing — so MaxEpoch is a tight, safe resume point.
	e.siteTS.Epoch = rec.MaxEpoch
	e.replay()
}

func (e *dagtEngine) Stop() {
	e.halt()
	e.qCond.Broadcast()
}

// stampTS is the timestamp assignment of §3.2.2, run by the kernel inside
// the commit critical section just before the redo record is armed. A
// primary subtransaction increments the site's local timestamp counter
// and takes the site timestamp; a secondary keeps the one it arrived
// with. Either way the record carries the current LTSi.
func (e *dagtEngine) stampTS(in ts.Timestamp, primary bool) (ts.Timestamp, uint64) {
	e.tsMu.Lock()
	defer e.tsMu.Unlock()
	if primary {
		e.ltsi++
		e.siteTS.Tuples[len(e.siteTS.Tuples)-1].LTS = e.ltsi
		in = e.siteTS.Clone()
	}
	return in, e.ltsi
}

// noteSent restarts child c's silence clock: a real secondary is about to
// go down the edge, so no dummy is due there for another DummyPeriod.
func (e *dagtEngine) noteSent(c model.SiteID) {
	e.tsMu.Lock()
	//lint:allow nodeterminism lastSent feeds the wall-clock dummy ticker, not protocol ordering
	e.lastSent[c] = time.Now()
	e.tsMu.Unlock()
}

// dummyTicker sends a dummy secondary subtransaction down any copy-graph
// edge that has been silent for DummyPeriod, pushing the site timestamp
// (and with it, epoch advances) forward so children never stall (§3.3).
func (e *dagtEngine) dummyTicker() {
	t := time.NewTicker(e.cfg.Params.DummyPeriod / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-e.stop:
			return
		}
		//lint:allow nodeterminism dummy generation is wall-clock-driven by design (timeout t_w, SS3.2.2)
		now := time.Now()
		// commitMu makes the stamp-and-send atomic against the kernel's
		// stamp → durable-commit → send sequence. Without it a dummy
		// stamped after a primary subtransaction can reach the wire before
		// it, inverting the edge's timestamp order — a race whose window
		// was nanoseconds in-memory but stretches to the whole group-commit
		// fsync once Commit holds commitMu across the log flush.
		e.commitMu.Lock()
		var idle []model.SiteID
		e.tsMu.Lock()
		for _, c := range e.children {
			if now.Sub(e.lastSent[c]) >= e.cfg.Params.DummyPeriod {
				idle = append(idle, c)
				e.lastSent[c] = now
			}
		}
		e.tsMu.Unlock()
		var tsD ts.Timestamp
		if len(idle) > 0 {
			// A dummy is a primary subtransaction with no updates: it bumps
			// LTSi so every timestamp sent down an edge is strictly larger
			// than its predecessors.
			tsD, _ = e.stampTS(tsD, true)
		}
		for _, c := range idle {
			e.emit(metrics.Dummies, c, model.SpanContext{}, 0)
			e.send(comm.Message{
				From: e.id, To: c, Kind: kindSecondary,
				Payload: secondaryPayload{TS: tsD, Dummy: true},
			})
		}
		e.commitMu.Unlock()
	}
}

// epochTicker advances the epoch at source sites with the common period
// (§3.3); the new epoch reaches descendants through the timestamps of
// subsequent (real or dummy) secondary subtransactions.
func (e *dagtEngine) epochTicker() {
	t := time.NewTicker(e.cfg.Params.EpochPeriod)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-e.stop:
			return
		}
		e.tsMu.Lock()
		next := e.siteTS.Epoch + 1
		e.tsMu.Unlock()
		// The advance must be durable before any timestamp bearing it can
		// ship (a dummy may clone the site timestamp immediately after the
		// publish): recovery resumes at the largest durable epoch, and an
		// unlogged advance would let the restarted site send an edge a
		// smaller epoch than it already shipped.
		if e.walAppendSync(wal.Record{Kind: wal.KindEpoch, TS: ts.Timestamp{Epoch: next}}) != nil {
			return // fenced mid-crash: the tick never happened
		}
		// Only this goroutine writes a source's epoch (sources have no
		// parents, so advanceTS never runs here), making the blind store
		// safe.
		e.tsMu.Lock()
		e.siteTS.Epoch = next
		e.tsMu.Unlock()
		e.emit(epochs, model.NoSite, model.SpanContext{}, 0)
	}
}

func (e *dagtEngine) Handle(msg comm.Message) {
	if p, ok := msg.Payload.(secondaryPayload); ok && p.Dummy {
		// Dummies are heartbeats — losing one to a crash costs nothing, so
		// they skip the kernel's durable admission.
		e.hold(queuedMsg{msg: msg})
		return
	}
	e.lazyEngine.Handle(msg)
}

// hold appends an admitted secondary (or a dummy) to its parent's queue.
func (e *dagtEngine) hold(q queuedMsg) {
	e.held.push()
	e.qMu.Lock()
	e.queues[q.msg.From] = append(e.queues[q.msg.From],
		tsItem{p: q.msg.Payload.(secondaryPayload), sc: q.msg.Span, at: q.at})
	e.qCond.Broadcast()
	e.qMu.Unlock()
}

// nextSecondary blocks until every parent queue is non-empty (or the
// engine stops) and pops the head with the minimum timestamp (§3.2.3).
func (e *dagtEngine) nextSecondary() (tsItem, bool) {
	e.qMu.Lock()
	defer e.qMu.Unlock()
	for {
		if e.stopping() {
			return tsItem{}, false
		}
		ready := true
		var minP model.SiteID
		var minTS ts.Timestamp
		first := true
		for _, par := range e.parents {
			q := e.queues[par]
			if len(q) == 0 {
				ready = false
				break
			}
			if first || q[0].p.TS.Less(minTS) {
				minP, minTS, first = par, q[0].p.TS, false
			}
		}
		if ready {
			q := e.queues[minP]
			it := q[0]
			q[0] = tsItem{} // the backing array must not pin a popped item
			e.queues[minP] = q[1:]
			e.held.pop()
			if !it.p.Dummy {
				e.phaseSince(metrics.PhaseQueueWait, minP, it.p.TID, it.at)
			}
			return it, true
		}
		e.qCond.Wait()
	}
}

// scheduler executes secondary subtransactions one at a time in timestamp
// order. On commit the site timestamp becomes TS(Ti)(si, LTSi) and the
// site epoch follows the subtransaction's epoch (§3.2.3, §3.3).
func (e *dagtEngine) scheduler() {
	for {
		it, ok := e.nextSecondary()
		if !ok {
			return
		}
		if it.p.Dummy {
			e.advanceTS(it.p.TS)
			continue
		}
		if !e.apply(it.p, it.sc) {
			return
		}
	}
}

// advanceTS installs the timestamp rule for a committed secondary. In
// steady state the scheduler pops in non-decreasing timestamp order, so
// following the subtransaction's epoch (§3.3) never regresses it; after
// a recovery, though, re-enqueued pre-crash receipts carry epochs below
// the restored MaxEpoch, and letting them roll the site epoch back would
// regress timestamps already shipped down an edge.
func (e *dagtEngine) advanceTS(tsT ts.Timestamp) {
	e.tsMu.Lock()
	nt := tsT.Append(ts.Tuple{Site: e.id, LTS: e.ltsi})
	//lint:allow tscompare scalar epoch max, not a tuple-order comparison
	if nt.Epoch < e.siteTS.Epoch {
		nt.Epoch = e.siteTS.Epoch
	}
	e.siteTS = nt
	e.tsMu.Unlock()
}
