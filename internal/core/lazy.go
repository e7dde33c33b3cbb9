package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ts"
	"repro/internal/txn"
	"repro/internal/wal"
)

// lazyEngine is the lazy-propagation kernel under DAG(WT), DAG(T),
// NaiveLazy and — through DAG(WT) — BackEdge. The paper's lazy protocols
// all run the same five steps: the origin's begin and commit, the
// secondary's apply with resubmission, the fan-out, the durable admission
// of a received secondary, and the replay of all of it at recovery. They
// differ only in *routing* (who receives a committed transaction's
// writes) and *ordering* (how admitted secondaries wait their turn, and
// what a commit must stamp or advance to keep that order). Those
// differences are the fields below, fixed at construction; everything
// else lives here once.
type lazyEngine struct {
	*base

	// routes is the protocol's routing: the fan-out destinations in send
	// order, each with the items it can use.
	routes []route
	// relay says a committed secondary is propagated onward along routes
	// (DAG(WT): under tree routing an update reaches the sites below a
	// child only through that child).
	relay bool
	// enqueue hands an admitted secondary to the protocol's ordering: a
	// FIFO queue, per-parent timestamp queues, or a goroutine of its own.
	enqueue func(queuedMsg)

	// The three hooks of DAG(T)'s timestamp discipline (§3.2.2), nil for
	// the protocols that order without timestamps. stamp runs inside the
	// commit critical section just before the redo record is armed, and
	// returns the timestamp the subtransaction carries plus the site's LTS
	// counter for the record; sent is told each fan-out destination;
	// advance installs a committed secondary's timestamp as the site's.
	stamp   func(in ts.Timestamp, primary bool) (ts.Timestamp, uint64)
	sent    func(to model.SiteID)
	advance func(ts.Timestamp)
}

// route is one fan-out destination and the items whose writes it is sent.
type route struct {
	to    model.SiteID
	items map[model.ItemID]bool
}

// treeRoutes is DAG(WT)'s routing (§2): updates travel only along tree
// edges. A child is relevant iff it or one of its tree descendants holds a
// copy of an updated item, and it receives exactly the writes its subtree
// can use.
func treeRoutes(cfg *SharedConfig, id model.SiteID) []route {
	var out []route
	for _, c := range cfg.Tree.Children(id) {
		out = append(out, route{to: c, items: cfg.SubtreeItems[c]})
	}
	return out
}

// replicaRoutes routes directly to replica holders: each of sites
// receives the writes to the items whose primary is here and which it
// replicates (§3.2.2 step 3). Routes keep the order of sites; callers pass
// it ascending, because the transport draws its seeded jitter in Send
// order and any other order would perturb schedule replay.
func replicaRoutes(p *model.Placement, id model.SiteID, sites []model.SiteID) []route {
	var out []route
	for _, s := range sites {
		items := make(map[model.ItemID]bool)
		for _, item := range p.PrimariesAt(id) {
			for _, r := range p.ReplicaSites(item) {
				if r == s {
					items[item] = true
				}
			}
		}
		if len(items) > 0 {
			out = append(out, route{to: s, items: items})
		}
	}
	return out
}

func newLazy(cfg *SharedConfig, proto Protocol, id model.SiteID, tr comm.Transport) lazyEngine {
	return lazyEngine{base: newBase(cfg, proto, id, tr)}
}

// Execute runs a primary subtransaction: purely local execution under
// strict 2PL, then the atomic commit-and-propagate.
func (k *lazyEngine) Execute(ops []model.Op) error {
	octx, start := k.beginOrigin()
	t := k.tm.Begin(octx.TID)
	if err := k.runOrigin(t, ops); err != nil {
		return err
	}
	return k.finish(t, octx, start, t.Writes())
}

// runOrigin runs a primary subtransaction's program against the local
// copies. On error the transaction has been aborted and accounted.
func (k *lazyEngine) runOrigin(t *txn.Txn, ops []model.Op) error {
	err := k.runLocalOps(t, ops)
	if err != nil {
		k.emit(abortSlot(contend.Classify(err)), model.NoSite, model.SpanContext{TID: t.ID}, 0)
	}
	return err
}

// finish commits a primary subtransaction whose program has run (writes
// is t.Writes()); commit accounts the outcome.
func (k *lazyEngine) finish(t *txn.Txn, octx model.SpanContext, start time.Time, writes []model.WriteOp) error {
	return k.commit(t, wal.Record{
		Kind: wal.KindApply, TID: octx.TID, Role: wal.RoleOrigin,
		Writes: writes, Span: octx,
	}, start)
}

// commit is the critical section of §2 and §3.2.2, the one place a lazy
// subtransaction — primary (rec.Role is RoleOrigin) or secondary — becomes
// durable, visible and scheduled onward: stamp, arm the redo record,
// commit, then the after-commit step (propagate, advance the site
// timestamp). commitMu makes that sequence atomic, so if Ti commits
// before Tj at this site, Ti is stamped and forwarded before Tj. rec.Span
// is the causal context the work runs under: the zero-parent origin
// context at the primary, the received message's context at a secondary.
// A primary's outcome, commit or abort, is reported here too; start is its
// begin stamp, the origin of its response time.
func (k *lazyEngine) commit(t *txn.Txn, rec wal.Record, start time.Time) error {
	primary := rec.Role == wal.RoleOrigin
	forwards := primary || k.relay
	rec.Forwards = forwards && len(rec.Writes) > 0
	// Neither a secondary with no after-commit step (NaiveLazy's) nor a
	// read-only primary has anything to keep in commit order, so neither
	// enters the critical section; the read-only primary is not stamped
	// either, because LTSi need only increase across stamps that ship.
	readOnly := readOnlyOrigin(&rec)
	locked := !readOnly && (forwards || k.advance != nil)
	if locked {
		k.commitMu.Lock()
	}
	if k.stamp != nil && !readOnly {
		rec.TS, rec.LTSI = k.stamp(rec.TS, primary)
	}
	// Arm unconditionally: armDurable is a no-op without a log or for a
	// read-only primary, and guarding it here would leave Commit
	// undominated by the redo append on the guarded path (waldiscipline).
	k.armDurable(t, rec)
	err := t.Commit()
	if err == nil {
		if primary {
			// Inside the critical section, so the event is ordered before
			// the transaction's forward events, and the freshness tracker's
			// latest version equals the one this commit minted.
			k.emit(metrics.Committed, model.NoSite, rec.Span, elapsed(start))
			for _, w := range rec.Writes {
				k.cfg.Fresh.NoteCommit(w.Item)
			}
		}
		if forwards {
			k.propagate(rec.Span, rec.TS, rec.Writes)
		}
		if !primary && k.advance != nil {
			k.advance(rec.TS)
		}
	} else if primary {
		k.emit(abortSlot(contend.Classify(err)), model.NoSite, rec.Span, 0)
	}
	if locked {
		k.commitMu.Unlock()
	}
	return err
}

// propagate is the fan-out: it schedules a secondary subtransaction at
// every route with a use for one of the writes, then marks the
// propagation obligation discharged. The caller holds commitMu (or is
// single-threaded recovery), so the forwarding order matches the site's
// commit order. in is the causal context the forwarding work runs under.
// Every route's writes are carved out of one block, so a commit's fan-out
// allocates that block plus one payload per message.
func (k *lazyEngine) propagate(in model.SpanContext, tsT ts.Timestamp, writes []model.WriteOp) {
	if len(writes) == 0 {
		return
	}
	n := 0
	for _, r := range k.routes {
		for _, w := range writes {
			if r.items[w.Item] {
				n++
			}
		}
	}
	block := make([]model.WriteOp, 0, n)
	for _, r := range k.routes {
		from := len(block)
		for _, w := range writes {
			if r.items[w.Item] {
				block = append(block, w)
			}
		}
		if len(block) == from {
			continue
		}
		if k.sent != nil {
			k.sent(r.to)
		}
		local := block[from:len(block):len(block)]
		k.ship(r.to, kindSecondary, in, secondaryPayload{TID: in.TID, TS: tsT, Writes: local})
	}
	k.walForwarded(in.TID)
}

// ship is the fan-out body: one pending obligation (released by the
// receiver once the delivery is durably consumed), one forwarded step
// under in, and one message carrying in's fork, which makes the hop a
// child span.
func (k *lazyEngine) ship(to model.SiteID, kind int, in model.SpanContext, payload any) {
	k.pendAdd(1)
	k.emit(forwarded, to, in, 0)
	k.send(comm.Message{From: k.id, To: to, Kind: kind, Span: in.Fork(k.id), Payload: payload})
}

// Handle admits secondaries; protocols with more message kinds (or
// DAG(T)'s undurable dummies) take theirs first.
func (k *lazyEngine) Handle(msg comm.Message) {
	switch {
	case msg.IsResp:
		k.rpc.HandleResponse(msg)
	case msg.Kind == kindSecondary:
		k.admit(msg)
	default:
		panic(fmt.Sprintf("core: %v received unexpected message kind %d", k.proto, msg.Kind))
	}
}

// admit makes an incoming propagation message durable — the handler
// returning is the reliable sublayer's ack, so acknowledged means durable
// — and only then hands it to the protocol's ordering.
func (k *lazyEngine) admit(msg comm.Message) {
	if !k.logReceipt(msg) {
		return // fenced mid-crash: dropped unacknowledged, retransmitted
	}
	k.emit(enqueued, msg.From, msg.Span, 0)
	k.phaseSince(metrics.PhaseTransport, msg.From, msg.Span.TID, msg.SentAt)
	k.enqueue(queuedMsg{msg: msg, at: k.phaseClock()})
}

// apply runs one secondary subtransaction to commit, resubmitting after
// every lock timeout (§2), and then releases the delivery's pending
// obligation. It reports false — obligation still outstanding, receipt
// still unconsumed, both inherited by recovery — only if the engine
// stopped or its log was fenced first. On commit the protocol's
// after-commit step has run atomically with it.
func (k *lazyEngine) apply(p secondaryPayload, sc model.SpanContext) bool {
	for {
		if k.stopping() {
			return false
		}
		if k.wasApplied(p.TID) {
			// A crash-recovery re-forward duplicated this delivery:
			// consume its receipt without re-applying (exactly-once).
			return k.consumeAndDone(p.TID)
		}
		t := k.tm.BeginSecondary(p.TID)
		ok := true
		for _, w := range p.Writes {
			if !k.store.Has(w.Item) {
				continue
			}
			k.simulateOp()
			if err := t.Write(w.Item, w.Value); err != nil {
				ok = false
				break
			}
		}
		if ok {
			err := k.commit(t, wal.Record{
				Kind: wal.KindApply, TID: p.TID, Role: wal.RoleSecondary,
				Consumes: true, Writes: p.Writes, TS: p.TS, Span: sc,
			}, time.Time{})
			if err == nil {
				k.noteApplied(p.Writes)
				k.emit(metrics.Secondaries, model.NoSite, sc, 0)
				k.pendDone()
				return true
			}
			// A fenced redo log (crash in progress): loop back to the
			// stopping() check. Otherwise unreachable — writes target local
			// copies only.
		}
		k.retry()
	}
}

// replay rebuilds the engine's in-flight work from the redo log: applies
// whose forwarding was not marked done are re-sent (receivers
// deduplicate), and unconsumed receipts are re-admitted in log order,
// which is per-sender arrival order. Re-forwards take fresh pending
// obligations; re-admitted receipts inherit the ones their original
// deliveries left unreleased, so no pendAdd here.
func (k *lazyEngine) replay() {
	if k.wal == nil {
		return
	}
	rec := k.wal.Recovered()
	for _, f := range rec.Forwards {
		k.propagate(f.Span, f.TS, f.Writes)
	}
	for _, r := range rec.Receipts {
		k.enqueue(queuedMsg{msg: receiptMsg(k.id, r)})
	}
}
