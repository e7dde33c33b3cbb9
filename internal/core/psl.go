package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
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
//
// Remote grants are leases, not log records: a grant is honoured for
// readLease from when the reader sent its request. The reader commits
// only inside the lease of its earliest grant, and a primary restarted
// from its log grants no exclusive lock until readLease after boot. A
// crash that loses the primary's lock table therefore never lets a writer
// under a reader that can still commit, and remote reads write nothing to
// the log, as in the paper's baseline, which had none (docs/DURABILITY.md).
type pslEngine struct {
	*base

	// reads is the site's remote-read service queue, an inbox of at most
	// inboxBound requests. Like the lazy protocols' single secondary
	// applier, one server goroutine works it: a site is one database
	// instance, and remote requests contend for it the way they did for
	// the prototype's DataBlitz server.
	reads *comm.Inbox[queuedMsg]

	// readers holds the active remote readers: an entry is made when a
	// reader's request is delivered, which on the FIFO edge is always
	// before that reader's release, and goes at the release or, when a
	// read of the released reader is still in flight, with the last such
	// read, which undoes any grant it raced. The table is bounded by the
	// live readers.
	relMu   sync.Mutex
	readers map[model.TxnID]remoteReader // repl:guardedby(relMu)

	// fenceUntil is when a restarted primary may grant exclusive locks
	// again; zero on a fresh start. Immutable after construction.
	fenceUntil time.Time
}

// remoteReader is one active remote reader's entry at a primary.
type remoteReader struct {
	inflight int  // its delivered read requests not yet served
	released bool // its release arrived while a read was in flight
}

// errReaderGone answers a read whose reader already released.
var errReaderGone = errors.New("transaction already released")

func newPSL(topo *Topology, site Site, tr comm.Transport) *pslEngine {
	e := &pslEngine{
		base:    newBase(topo, PSL, site, tr),
		reads:   comm.NewInbox[queuedMsg](inboxBound),
		readers: make(map[model.TxnID]remoteReader),
	}
	if e.wal != nil && e.wal.Incarnation() > 1 {
		// A lease granted before the crash was stamped before it, so it
		// ends before this fence does.
		e.fenceUntil = leaseNow().Add(topo.Params.readLease())
	}
	return e
}

// leaseNow is the lease's one clock: the reader's lease stamp and commit
// check and the restarted primary's fence all read it. In-process every
// site shares it; across processes the lease is sound only up to the
// sites' clock skew, which must stay well under readLease.
func leaseNow() time.Time {
	//lint:allow nodeterminism a lease is wall-clock time by definition; only lease stamps, checks and the restart fence read it
	return time.Now()
}

func (e *pslEngine) Start() { go e.readServer() }

// Status adds the read queue's depth and pops to the base status.
func (e *pslEngine) Status() watch.Status {
	st := e.base.Status()
	st.Queue, st.Depth, st.Pops = "reads", e.reads.Len(), e.reads.Pops()
	return st
}

func (e *pslEngine) readServer() {
	for {
		q, ok := e.reads.Next(e.stop)
		if !ok {
			return
		}
		e.serveRead(q.msg, q.at)
	}
}

func (e *pslEngine) Execute(ops []model.Op) error {
	octx, start := e.beginOrigin()
	tid := octx.TID
	t := e.tm.Begin(tid)
	remotes := make(map[model.SiteID]bool)
	var leased time.Time // when the first remote read was sent

	fail := func(err error, reason contend.AbortReason) error {
		t.Abort()
		e.releaseRemotes(octx, remotes)
		e.emit(abortSlot(reason), model.NoSite, octx, 0)
		return err
	}

	if !e.awaitFence(ops) {
		return fail(fmt.Errorf("core: engine stopped: %w", txn.ErrAborted), contend.ReasonCrash)
	}
	for _, op := range ops {
		e.simulateOp()
		switch op.Kind {
		case model.OpRead:
			if primary := e.topo.Placement.Primary[op.Item]; primary == e.id {
				if _, err := t.Read(op.Item); err != nil {
					return fail(err, contend.Classify(err))
				}
			} else {
				// Replica read: shared lock + value ship from the primary.
				if leased.IsZero() {
					leased = leaseNow()
				}
				e.emit(metrics.RemoteReads, primary, octx, 0)
				resp, err := e.rpc.CallSpan(primary, kindPSLRead, pslReadReq{TID: tid, Item: op.Item}, e.topo.Params.RPCTimeout, octx.Fork(e.id))
				// Even after a timeout the lock may still be granted
				// remotely; the release cancels or undoes it.
				remotes[primary] = true
				if err != nil {
					// The remote error crossed an RPC boundary, which
					// flattens the wrapped chain: a failed remote read IS a
					// lock wait that outlasted its deadline (the primary's
					// lock timeout or the RPC timeout bounding it), so
					// classify it here.
					return fail(fmt.Errorf("%w: remote r[%d] at s%d: %v", txn.ErrAborted, op.Item, primary, err),
						contend.ReasonLockTimeout)
				}
				t.ObserveRemoteRead(primary, op.Item, resp.(pslReadResp).Version)
			}
			e.bank[reads].Inc()
		case model.OpWrite:
			if !e.topo.Placement.IsPrimary(e.id, op.Item) {
				// Workload misconfiguration, not contention; no reason fits
				// and none should: a nonzero unknown count points here.
				return fail(fmt.Errorf("core: s%d is not the primary of item %d", e.id, op.Item),
					contend.ReasonUnknown)
			}
			if err := t.Write(op.Item, op.Value); err != nil {
				return fail(err, contend.Classify(err))
			}
		}
	}
	// Every lock is held: past this check the transaction observes nothing
	// new, so a grant still inside its lease at the check is still honoured
	// at the commit.
	if !leased.IsZero() {
		if held := leaseNow().Sub(leased); held >= e.topo.Params.readLease() {
			err := fmt.Errorf("%w: %w: first remote grant %v ago", txn.ErrAborted, lock.ErrLeaseExpired, held)
			return fail(err, contend.Classify(err))
		}
	}
	e.armDurable(t, wal.Record{
		Kind: wal.KindApply, TID: tid, Role: wal.RoleOrigin,
		Writes: t.Writes(), Span: octx,
	})
	if err := t.Commit(); err != nil {
		return fail(err, contend.Classify(err))
	}
	e.emit(metrics.Committed, model.NoSite, octx, elapsed(start))
	e.releaseRemotes(octx, remotes)
	return nil
}

// awaitFence holds a transaction that writes until a restarted primary's
// fence is past, before it takes any lock; false means the engine stopped
// first.
func (e *pslEngine) awaitFence(ops []model.Op) bool {
	if e.fenceUntil.IsZero() || !slices.ContainsFunc(ops, func(op model.Op) bool { return op.Kind == model.OpWrite }) {
		return true
	}
	select {
	case <-time.After(e.fenceUntil.Sub(leaseNow())):
		return true
	case <-e.stop:
		return false
	}
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
		tid := msg.Payload.(pslReadReq).TID
		e.relMu.Lock()
		r := e.readers[tid]
		r.inflight++
		e.readers[tid] = r
		e.relMu.Unlock()
		// Lock waits block; serve through the site's read server, off the
		// transport goroutine. A request dropped because the site stopped
		// is never answered; the reader's RPC times out.
		e.reads.Push(queuedMsg{msg: msg, at: e.phaseClock()}, e.stop)
	case kindPSLRelease:
		tid := msg.Payload.(pslReleasePayload).TID
		e.phaseSince(metrics.PhaseTransport, msg.From, tid, msg.SentAt)
		e.release(tid)
	default:
		panic("core: PSL received unexpected message kind")
	}
}

// release ends a remote reader's stay: its locks go now, and its entry
// with them unless one of its reads is in flight, whose retirement then
// removes it. Nothing is logged: a release lost to a crash leaves nothing
// behind, since the restarted primary starts with no locks at all.
func (e *pslEngine) release(tid model.TxnID) {
	e.relMu.Lock()
	if r, ok := e.readers[tid]; ok {
		if r.inflight == 0 {
			delete(e.readers, tid)
		} else {
			r.released = true
			e.readers[tid] = r
		}
	}
	e.relMu.Unlock()
	e.locks.ReleaseAll(tid)
}

// serveRead grants a shared lock on the primary copy and ships the
// current value (§5.1); enq is the request's service-queue entry stamp.
func (e *pslEngine) serveRead(msg comm.Message, enq time.Time) {
	req := msg.Payload.(pslReadReq)
	e.phaseSince(metrics.PhaseQueueWait, msg.From, req.TID, enq)
	defer e.retire(req.TID)
	if e.isReleased(req.TID) {
		e.rpc.ReplyError(msg, errReaderGone)
		return
	}
	// Serving a remote read is real work at the primary (hash lookup, lock
	// management, marshaling the value for shipment): it costs one
	// operation, like the reader's own operations do.
	e.simulateOp()
	lockStart := e.phaseClock()
	err := e.locks.Acquire(req.TID, req.Item, lock.Shared, e.topo.Params.LockTimeout)
	e.phaseSince(metrics.PhaseLockWait, msg.From, req.TID, lockStart)
	if err != nil {
		e.rpc.ReplyError(msg, err)
		return
	}
	if e.isReleased(req.TID) {
		// The caller gave up while we waited; undo the grant.
		e.locks.ReleaseAll(req.TID)
		e.rpc.ReplyError(msg, errReaderGone)
		return
	}
	ver, err := e.store.Read(req.Item)
	if err != nil {
		e.locks.ReleaseAll(req.TID)
		e.rpc.ReplyError(msg, err)
		return
	}
	e.rpc.Reply(msg, pslReadResp{Value: ver.Value, Version: ver.Num})
}

func (e *pslEngine) isReleased(tid model.TxnID) bool {
	e.relMu.Lock()
	defer e.relMu.Unlock()
	return e.readers[tid].released
}

// retire counts one of tid's reads served, removing the entry of a
// released reader with the last of them.
func (e *pslEngine) retire(tid model.TxnID) {
	e.relMu.Lock()
	defer e.relMu.Unlock()
	r := e.readers[tid]
	if r.inflight--; r.inflight == 0 && r.released {
		delete(e.readers, tid)
	} else {
		e.readers[tid] = r
	}
}
