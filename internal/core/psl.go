package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/watch"
)

// pslEngine implements the lazy primary-site-locking baseline of §5.1 (a
// variant of the lazy-master approach of Gray et al.): reads and updates
// of locally-primary items are handled locally; a read of a replica takes
// a shared lock on the item at its *primary* site and the current value
// is shipped back with the lock grant. Updates never propagate — a remote
// site always sees the latest value because it always reads the primary —
// and all locks (local and remote) are released at commit.
type pslEngine struct {
	base

	// reads is the site's remote-read service queue, an inbox of at most
	// inboxBound requests. Like the lazy protocols' single secondary
	// applier, one server goroutine works it: a site is one database
	// instance, and remote requests contend for it the way they did for
	// the prototype's DataBlitz server.
	reads *comm.Inbox[queuedMsg]

	// released tombstones transactions whose remote locks were already
	// released, so a lock granted to a late-racing read request is not
	// leaked (the release and the request travel on the same FIFO edge,
	// but the request is served asynchronously). The map grows with the
	// number of remote transactions that ever touched this site — bounded
	// by the run length, which matches the model's finite workloads; a
	// production system would age entries out.
	relMu    sync.Mutex
	released map[model.TxnID]bool // repl:guardedby(relMu)

	prog *watch.Progress
}

func newPSL(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *pslEngine {
	e := &pslEngine{
		base:     newBase(cfg, PSL, id, tr),
		reads:    comm.NewInbox[queuedMsg](inboxBound),
		released: make(map[model.TxnID]bool),
		prog:     cfg.Watch.Queue(id, "reads"),
	}
	e.recover()
	return e
}

// recover reinstates the remote-lock protocol state the disk knows:
// release tombstones, and the shared locks granted to still-outstanding
// remote readers — re-acquired on the fresh lock manager so a post-crash
// writer cannot slip under a reader the pre-crash primary promised.
//
//lint:allow guardedby recovery runs inside newPSL before Start; the read server that shares the released map has not been spawned
func (e *pslEngine) recover() {
	if e.wal == nil {
		return
	}
	rec := e.wal.Recovered()
	for tid := range rec.Released {
		e.released[tid] = true
	}
	for tid, items := range rec.RLocks {
		for _, it := range items {
			// Cannot fail: the manager is fresh and these are shared locks.
			_ = e.locks.Acquire(tid, it, lock.Shared, e.cfg.Params.LockTimeout)
		}
	}
}

func (e *pslEngine) Start() { go e.readServer() }

func (e *pslEngine) readServer() {
	for {
		q, ok := e.reads.Next(e.stop)
		if !ok {
			return
		}
		e.obs.readsDepth.Dec()
		e.prog.Pop()
		e.serveRead(q.msg, q.at)
	}
}

func (e *pslEngine) Execute(ops []model.Op) error {
	octx, start := e.beginOrigin()
	tid := octx.TID
	t := e.tm.Begin(tid)
	remotes := make(map[model.SiteID]bool)

	fail := func(err error, reason contend.AbortReason) error {
		t.Abort()
		e.releaseRemotes(octx, remotes)
		e.recAbort(tid, reason)
		return err
	}

	for _, op := range ops {
		e.simulateOp()
		switch op.Kind {
		case model.OpRead:
			primary := e.cfg.Placement.Primary[op.Item]
			if primary == e.id {
				if _, err := t.Read(op.Item); err != nil {
					e.releaseRemotes(octx, remotes)
					e.recAbort(tid, contend.Classify(err))
					return err
				}
				// Local primary read: the primary copy IS the latest version.
				e.certifyPrimaryRead(tid)
				continue
			}
			// Replica read: shared lock + value ship from the primary.
			e.cfg.Metrics.RemoteRead()
			e.obs.remoteReads.Inc()
			e.traceCtx(trace.RemoteRead, primary, octx)
			resp, err := e.rpc.CallSpan(primary, kindPSLRead, pslReadReq{TID: tid, Item: op.Item}, e.cfg.Params.RPCTimeout, octx.Fork(e.id))
			if err != nil {
				// The lock may still be granted remotely after our timeout;
				// the release below cancels or undoes it.
				remotes[primary] = true
				// The remote error crossed an RPC boundary, which flattens
				// the wrapped chain: a failed remote read IS a lock wait
				// that outlasted its deadline (the primary's lock timeout
				// or the RPC timeout bounding it), so classify it here.
				return fail(fmt.Errorf("%w: remote r[%d] at s%d: %v", txn.ErrAborted, op.Item, primary, err),
					contend.ReasonLockTimeout)
			}
			remotes[primary] = true
			rr := resp.(pslReadResp)
			t.ObserveRemoteRead(primary, op.Item, rr.Version)
			// The reply shipped the primary copy's current value: fresh by
			// construction, whatever the local replica's lag.
			e.certifyPrimaryRead(tid)
		case model.OpWrite:
			if !e.cfg.Placement.IsPrimary(e.id, op.Item) {
				// Workload misconfiguration, not contention; no reason fits
				// and none should: a nonzero unknown count points here.
				return fail(fmt.Errorf("core: s%d is not the primary of item %d", e.id, op.Item),
					contend.ReasonUnknown)
			}
			if err := t.Write(op.Item, op.Value); err != nil {
				e.releaseRemotes(octx, remotes)
				e.recAbort(tid, contend.Classify(err))
				return err
			}
		}
	}
	e.armDurable(t, wal.Record{
		Kind: wal.KindApply, TID: tid, Role: wal.RoleOrigin,
		Writes: t.Writes(), Span: octx,
	})
	if err := t.Commit(); err != nil {
		e.releaseRemotes(octx, remotes)
		e.recAbort(tid, contend.Classify(err))
		return err
	}
	e.traceCtx(trace.TxnCommit, model.NoSite, octx)
	e.releaseRemotes(octx, remotes)
	e.recCommit(tid, start)
	return nil
}

func (e *pslEngine) releaseRemotes(sc model.SpanContext, remotes map[model.SiteID]bool) {
	// Release in site order: the transport draws its seeded jitter in Send
	// order, so map-ordered sends would perturb schedule replay.
	sites := make([]model.SiteID, 0, len(remotes))
	for s := range remotes {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	out := sc.Fork(e.id)
	for _, s := range sites {
		e.send(comm.Message{
			From: e.id, To: s, Kind: kindPSLRelease, Span: out,
			Payload: pslReleasePayload{TID: sc.TID},
		})
	}
}

func (e *pslEngine) Handle(msg comm.Message) {
	if msg.IsResp {
		e.rpc.HandleResponse(msg)
		return
	}
	switch msg.Kind {
	case kindPSLRead:
		// Lock waits block; serve through the site's read server, off the
		// transport goroutine. A request dropped because the site stopped
		// is never answered; the reader's RPC times out.
		e.obs.readsDepth.Inc()
		e.prog.Push()
		e.reads.Push(queuedMsg{msg: msg, at: e.phaseClock()}, e.stop)
	case kindPSLRelease:
		tid := msg.Payload.(pslReleasePayload).TID
		e.recTransport(msg, tid)
		// The tombstone must be durable before this delivery is
		// acknowledged (the handler returning is the ack): a release, once
		// acked, is never retransmitted, and losing it would leak the
		// reader's shared lock at the recovered primary forever.
		if e.walAppendSync(wal.Record{Kind: wal.KindRUnlock, TID: tid}) != nil {
			return // fenced mid-crash: dropped unacknowledged, retransmitted
		}
		go e.serveRelease(tid)
	default:
		panic("core: PSL received unexpected message kind")
	}
}

// serveRead grants a shared lock on the primary copy and ships the
// current value (§5.1); enq is the request's service-queue entry stamp.
func (e *pslEngine) serveRead(msg comm.Message, enq time.Time) {
	req := msg.Payload.(pslReadReq)
	e.phaseSince(metrics.PhaseQueueWait, msg.From, req.TID, enq)
	if e.isReleased(req.TID) {
		e.rpc.ReplyError(msg, fmt.Errorf("transaction already released"))
		return
	}
	// Serving a remote read is real work at the primary (hash lookup, lock
	// management, marshaling the value for shipment): it costs one
	// operation, like the reader's own operations do.
	e.simulateOp()
	lockStart := e.phaseClock()
	err := e.locks.Acquire(req.TID, req.Item, lock.Shared, e.cfg.Params.LockTimeout)
	e.phaseSince(metrics.PhaseLockWait, msg.From, req.TID, lockStart)
	if err != nil {
		e.rpc.ReplyError(msg, err)
		return
	}
	if e.isReleased(req.TID) {
		// The caller aborted while we waited; undo the grant.
		e.locks.ReleaseAll(req.TID)
		e.rpc.ReplyError(msg, fmt.Errorf("transaction aborted during lock wait"))
		return
	}
	// The grant must be durable before the reply externalizes it, so a
	// crashed-and-recovered primary still honors the outstanding reader.
	if e.walAppendSync(wal.Record{Kind: wal.KindRLock, TID: req.TID, Item: req.Item}) != nil {
		e.locks.ReleaseAll(req.TID)
		return // fenced mid-crash: no reply; the caller times out and aborts
	}
	ver, err := e.store.Read(req.Item)
	if err != nil {
		e.locks.ReleaseAll(req.TID)
		e.rpc.ReplyError(msg, err)
		return
	}
	e.rpc.Reply(msg, pslReadResp{Value: ver.Value, Version: ver.Num})
}

func (e *pslEngine) serveRelease(tid model.TxnID) {
	e.relMu.Lock()
	e.released[tid] = true
	e.relMu.Unlock()
	e.locks.ReleaseAll(tid)
}

func (e *pslEngine) isReleased(tid model.TxnID) bool {
	e.relMu.Lock()
	defer e.relMu.Unlock()
	return e.released[tid]
}
