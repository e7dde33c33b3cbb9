package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/watch"
)

// base carries the per-site substrate every protocol engine shares: the
// main-memory store holding the site's copies, the strict-2PL lock
// manager, the local transaction manager, the transport endpoints, and the
// commit mutex that makes commit-and-forward atomic (the critical sections
// of §2 and §3.2.2).
type base struct {
	topo  *Topology
	sinks Sinks
	id    model.SiteID
	proto Protocol

	store *storage.Store
	locks *lock.Manager
	tm    *txn.Manager
	tr    comm.Transport
	rpc   *comm.RPC

	// bank is the site's counter bank, the only home of its counts
	// (observe.go); shard buffers its response times for the run
	// collector.
	bank  metrics.Bank
	shard *metrics.Shard

	seq atomic.Uint64
	// seqBase offsets newTxnID by the log incarnation (incarnation<<48) so
	// transaction identifiers never repeat across crash restarts.
	seqBase uint64

	// wal is the site's write-ahead redo log; nil runs without durability.
	wal *wal.SiteLog

	// commitMu serializes transaction commits with the scheduling of their
	// secondary subtransactions, so that if Ti commits before Tj at this
	// site, Ti's updates are forwarded before Tj's.
	commitMu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
}

func newBase(topo *Topology, proto Protocol, site Site, tr comm.Transport) *base {
	id, lg := site.ID, site.Log
	st := storage.NewStore()
	for _, item := range topo.Placement.CopiesAt(id) {
		if err := st.Create(item, 0); err != nil {
			panic(fmt.Sprintf("core: duplicate copy at s%d: %v", id, err))
		}
	}
	var seqBase uint64
	if lg != nil {
		// Rebuild the store image the disk knows — Load installs the
		// replayed version verbatim — and carve out a fresh TxnID range for
		// this incarnation.
		for item, is := range lg.Recovered().Items {
			ver := storage.Version{Value: is.Value, Num: is.Num, Writer: is.Writer}
			if err := st.Load(item, ver); err != nil {
				panic(fmt.Sprintf("core: recovered item not placed at s%d: %v", id, err))
			}
		}
		seqBase = lg.Incarnation() << 48
	}
	lm := lock.NewManager(topo.Params.DetectDeadlocks)
	lm.SetWoundGrace(topo.Params.WoundGrace)
	// The transaction manager is the site's one observation point: it
	// records and certifies every read and notes every install.
	tm := txn.NewManager(id, st, lm, topo.Params.LockTimeout, site.Recorder)
	tm.Fresh = site.Fresh
	b := &base{
		topo:    topo,
		sinks:   site.Sinks,
		id:      id,
		proto:   proto,
		store:   st,
		locks:   lm,
		tm:      tm,
		tr:      tr,
		rpc:     comm.NewRPC(id, tr),
		bank:    site.Metrics.Bank(id, int(numSlots)),
		shard:   site.Metrics.Shard(id),
		seqBase: seqBase,
		wal:     lg,
		stop:    make(chan struct{}),
	}
	b.exportBank()
	b.rpc.SetLateHook(func(model.SiteID, int) { b.bank[lateReplies].Inc() })
	if site.Metrics != nil || site.Trace != nil {
		b.tm.SetPhaseHook(func(p metrics.Phase, tid model.TxnID, start time.Time) {
			b.phaseSince(p, model.NoSite, tid, start)
		})
	}
	return b
}

func (b *base) Site() model.SiteID { return b.id }

// Status reads the site's state: whether the engine is stopped, and its
// bank's forward and consumption counts. Engines with a queue or protocol
// state of their own extend it, reading that state after the consumed
// count, as Quiescent requires.
func (b *base) Status() watch.Status {
	st := watch.Status{Site: b.id, Consumed: b.bank[consumed].Value()}
	st.Forwarded, st.Down = b.bank[forwarded].Value(), b.stopping()
	return st
}

// Snapshot exposes the site's store contents for convergence checks on a
// quiesced cluster.
func (b *base) Snapshot() map[model.ItemID]int64 { return b.store.Snapshot() }

// newTxnID mints a system-wide unique transaction identifier. The
// incarnation offset keeps identifiers unique across crash restarts.
func (b *base) newTxnID() model.TxnID {
	return model.TxnID{Site: b.id, Seq: b.seqBase + b.seq.Add(1)}
}

// halt closes the stop channel exactly once, so a crash (the cluster's
// OnCrash lifecycle hook) and the end-of-run Stop can both call it. The
// lock manager's counters are published on the way down — the one moment
// they are both final and still reachable.
func (b *base) halt() {
	b.stopOnce.Do(func() {
		// Added once, so the cumulative values ARE the deltas; reading
		// Stats per grant would put a second mutex acquisition on the lock
		// hot path for numbers nobody reads mid-run.
		s := b.lockStats()
		for i, n := range [...]uint64{s.Acquired, s.Waited, s.Wounds, s.Timeouts, s.Deadlocks} {
			b.bank[lockGrants+metrics.Count(i)].Add(n)
		}
		close(b.stop)
	})
}

// Stop terminates the site's background workers; engines with sleepers
// to wake (DAG(T)'s scheduler) extend it.
func (b *base) Stop() { b.halt() }

// lockStats returns the lock manager's cumulative counters.
func (b *base) lockStats() lock.Stats { return b.locks.Stats() }

// LockHeat returns the site's per-item lock contention accounting, for
// the cluster-wide heat table (internal/contend).
func (b *base) LockHeat() []lock.ItemStats { return b.locks.ItemStats() }

// LockWaitGraph snapshots the site's current wait-for state: every live
// queued lock request, deterministically ordered.
func (b *base) LockWaitGraph() []lock.WaitEdge { return b.locks.WaitGraph() }

// walAppendSync appends one record and waits for the group commit; nil
// without a log. A non-nil error means the record is NOT durable — the
// site is crashing — and the transition the record guards must not be
// externalized.
func (b *base) walAppendSync(rec wal.Record) error {
	if b.wal == nil {
		return nil
	}
	if err := b.wal.Append(rec); err != nil {
		return err
	}
	return b.wal.Sync()
}

// armDurable installs rec as t's log-then-mutate redo record: Commit
// appends and group-commits it before any store mutation. A read-only
// primary owes the log nothing (readOnlyOrigin), so nothing is armed.
func (b *base) armDurable(t *txn.Txn, rec wal.Record) {
	if b.wal == nil || readOnlyOrigin(&rec) {
		return
	}
	// The hook captures a copy made past the guard: capturing rec itself
	// would move it to the heap on entry, on the no-log path too.
	logged := rec
	t.SetDurable(func() error { return b.walAppendSync(logged) })
}

// readOnlyOrigin reports whether rec commits a primary subtransaction with
// no writes. Such a commit mutates nothing, forwards nothing and leaves no
// obligation to recover, and under log-then-mutate every version it read
// was already durable: it needs no redo record, no flush wait, no commit
// critical section and no DAG(T) stamp (docs/DURABILITY.md, "The logging
// discipline").
func readOnlyOrigin(rec *wal.Record) bool {
	return rec.Role == wal.RoleOrigin && len(rec.Writes) == 0
}

// logReceipt makes an incoming propagation message durable before the
// reliable sublayer acknowledges it (the handler returning is the ack),
// so acknowledged means durable. It reports false when the log is
// fenced: the caller must drop the message unprocessed — it was never
// acknowledged, and the sender retransmits it to the recovered engine.
func (b *base) logReceipt(msg comm.Message) bool {
	if b.wal == nil {
		return true
	}
	rec := wal.Record{Kind: wal.KindReceipt, From: msg.From, MsgKind: msg.Kind, Span: msg.Span}
	switch p := msg.Payload.(type) {
	case secondaryPayload:
		rec.TID, rec.TS, rec.Writes = p.TID, p.TS, p.Writes
	case specialPayload:
		rec.TID, rec.Origin, rec.Writes = p.TID, p.Origin, p.Writes
	}
	return b.walAppendSync(rec) == nil
}

// receiptMsg rebuilds the message a logged receipt acknowledged — the
// inverse of logReceipt, for recovery to re-admit it.
func receiptMsg(to model.SiteID, r wal.Receipt) comm.Message {
	msg := comm.Message{From: r.From, To: to, Kind: r.MsgKind, Span: r.Span}
	if r.MsgKind == kindSecondary {
		msg.Payload = secondaryPayload{TID: r.TID, TS: r.TS, Writes: r.Writes}
	} else {
		msg.Payload = specialPayload{TID: r.TID, Origin: r.Origin, Writes: r.Writes}
	}
	return msg
}

// wasApplied reports whether a subtransaction of tid already durably
// committed here — the exactly-once dedup check for deliveries
// duplicated by crash-recovery re-forwards.
func (b *base) wasApplied(tid model.TxnID) bool {
	return b.wal != nil && b.wal.WasApplied(tid)
}

// consumeAndDone durably marks one receipt of sc's transaction from
// sender consumed without an apply (a deduplicated duplicate, a
// backedge execution or pure relay, a special come home) and then
// releases it. The release strictly follows durability: on false the
// marker was lost to a fence, the receipt stays unconsumed and its
// forward open, and recovery re-processes the receipt and releases it
// then.
func (b *base) consumeAndDone(from model.SiteID, sc model.SpanContext) bool {
	if b.walAppendSync(wal.Record{Kind: wal.KindConsumed, TID: sc.TID}) != nil {
		return false
	}
	b.release(from, sc)
	return true
}

// release reports one receipt from sender consumed: the bank's consumed
// count that Quiescent sums, and the SecondaryConsumed event that settles
// the sender's forward (trace.Open). Every receipt is released here and
// nowhere else.
func (b *base) release(from model.SiteID, sc model.SpanContext) {
	b.emit(consumed, from, sc, 0)
}

// walForwarded marks an apply's propagation obligation discharged.
// Append-only, no sync: losing the marker only causes a duplicate
// re-forward at recovery, which receivers deduplicate.
func (b *base) walForwarded(tid model.TxnID) {
	if b.wal == nil {
		return
	}
	//lint:allow senderr the forwarded marker is advisory; losing it only causes a deduplicated re-forward
	_ = b.wal.Append(wal.Record{Kind: wal.KindForwarded, TID: tid})
}

// simulateOp burns the configured per-operation CPU cost. It spins
// (yielding to the scheduler) rather than sleeping: time.Sleep has a
// millisecond-scale floor on many kernels, which would inflate a 200µs
// operation ~6x and poison every lock-contention measurement, whereas
// spinning both hits the target precisely and models what the prototype's
// CPUs actually did — execute, time-shared among the site's threads.
func (b *base) simulateOp() {
	c := b.topo.Params.OpCost
	if c <= 0 {
		return
	}
	//lint:allow nodeterminism busy-wait simulates CPU cost; only the elapsed duration matters
	end := time.Now().Add(c)
	//lint:allow nodeterminism busy-wait simulates CPU cost; only the elapsed duration matters
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

// beginOrigin is the prologue of every primary subtransaction: stamp the
// start, mint the tid, and record TxnBegin on the root span. The caller
// opens the local transaction itself (tm.Begin(octx.TID)), and may
// recycle it once nothing references it.
func (b *base) beginOrigin() (model.SpanContext, time.Time) {
	//lint:allow nodeterminism commit-latency stamp for metrics; never branches protocol logic
	start := time.Now()
	octx := model.SpanContext{TID: b.newTxnID()}
	b.emit(begun, model.NoSite, octx, 0)
	return octx, start
}

// runLocalOps executes a transaction program against local copies under
// strict 2PL, or, when the program only reads and snapshot grants a pin, as
// a snapshot reader at it. On any failure the transaction has been aborted.
func (b *base) runLocalOps(t *txn.Txn, ops []model.Op, snapshot func([]model.Op) (uint64, bool)) error {
	if snapshot != nil && readsOnly(ops) {
		if pin, ok := snapshot(ops); ok {
			return b.runSnapshot(t, ops, pin)
		}
	}
	for _, op := range ops {
		b.simulateOp()
		switch op.Kind {
		case model.OpRead:
			if !b.store.Has(op.Item) {
				t.Abort()
				return fmt.Errorf("core: s%d has no copy of item %d to read", b.id, op.Item)
			}
			if _, err := t.Read(op.Item); err != nil {
				return err
			}
			b.bank[reads].Inc()
		case model.OpWrite:
			if !b.topo.Placement.IsPrimary(b.id, op.Item) {
				t.Abort()
				return fmt.Errorf("core: s%d is not the primary of item %d", b.id, op.Item)
			}
			if err := t.Write(op.Item, op.Value); err != nil {
				return err
			}
		default:
			t.Abort()
			return fmt.Errorf("core: unknown op kind %d", op.Kind)
		}
	}
	return nil
}

// readsOnly reports whether every operation of ops is a read.
func readsOnly(ops []model.Op) bool {
	for _, op := range ops {
		if op.Kind != model.OpRead {
			return false
		}
	}
	return true
}

// pin is the snapshot policy of the engines whose install order is their
// commit order: every read-only program is a snapshot reader at the
// current install point.
func (b *base) pin([]model.Op) (uint64, bool) { return b.store.Pin(), true }

// runSnapshot runs a read-only program without locks: it reads every item
// as of pin, the site's install point taken once, which is the state after
// some prefix of the site's commit order (DESIGN.md §6), and unpins it.
// Its successful reads are counted once, when it ends.
func (b *base) runSnapshot(t *txn.Txn, ops []model.Op, pin uint64) error {
	defer b.store.Unpin(pin)
	for i, op := range ops {
		b.simulateOp()
		if err := b.readAt(t, op.Item, pin); err != nil {
			b.bank[reads].Add(uint64(i))
			return err
		}
	}
	b.bank[reads].Add(uint64(len(ops)))
	return nil
}

// readAt is one snapshot read of item at pin.
func (b *base) readAt(t *txn.Txn, item model.ItemID, pin uint64) error {
	if _, err := t.ReadAt(item, pin); err != nil {
		return fmt.Errorf("core: s%d snapshot read of item %d: %w", b.id, item, err)
	}
	return nil
}

// send transmits a message and counts it. One-way protocol traffic is
// stamped so the receiver can attribute the transport phase; the stamp is
// observation-only and never branches protocol logic.
func (b *base) send(msg comm.Message) {
	b.bank[metrics.Messages].Inc()
	msg.SentAt = b.phaseClock()
	if err := b.tr.Send(msg); err != nil {
		// Shutdown race: the run is over and the transport is closed.
		return
	}
}

// queuedMsg pairs a queued message with its enqueue stamp so the applier
// that pops it can attribute the queue-wait phase.
type queuedMsg struct {
	msg comm.Message
	at  time.Time
}

// inboxBound bounds a site's secondary queue (DAG(WT), BackEdge) and its
// PSL read queue. Once a queue holds this many messages, Handle blocks the
// transport's delivery goroutine until the consumer pops one, and senders
// block in turn once that transport edge fills. The queue's memory follows
// its content, not this number (comm.Inbox).
const inboxBound = 1 << 16

// stopping reports whether Stop was called.
func (b *base) stopping() bool {
	select {
	case <-b.stop:
		return true
	default:
		return false
	}
}

// lockSecondary takes the exclusive locks of a secondary subtransaction's
// writes to local copies and buffers them in t, under the one-wait
// discipline: the subtransaction blocks on at most one lock at a time, and
// only while it holds none. *wait indexes that lock's write — the one the
// previous attempt was refused, -1 on a first attempt — and is requested
// first, blocking, which is also the one request that wounds a vulnerable
// holder (DESIGN.md §4). Every other lock is a no-wait request; a refusal
// aborts t and makes the refused write the next attempt's wait. A waiter
// that holds nothing closes no wait-for cycle, so a secondary never
// deadlocks with the site's clients. opCost charges the simulated CPU cost
// per write, before its lock request. On error t holds nothing and the
// caller resubmits.
func (b *base) lockSecondary(t *txn.Txn, writes []model.WriteOp, wait *int, opCost bool) error {
	if *wait >= 0 {
		if opCost {
			b.simulateOp()
		}
		if err := t.Write(writes[*wait].Item, writes[*wait].Value); err != nil {
			return err
		}
	}
	for i, w := range writes {
		if i == *wait || !b.store.Has(w.Item) {
			continue
		}
		if opCost {
			b.simulateOp()
		}
		if err := t.TryWrite(w.Item, w.Value); err != nil {
			*wait = i
			return err
		}
	}
	return nil
}

// resubmit is the resubmission step of every subtransaction that must run
// to completion (§2): count it and restart t. A refused no-wait request
// resubmits at once, since the next attempt blocks on the refused lock
// anyway; after a timed-out wait or a fenced commit it first sleeps
// briefly, so a retry storm does not starve the lock holders it waits for.
func (b *base) resubmit(t *txn.Txn, err error) {
	b.bank[metrics.Retries].Inc()
	if !errors.Is(err, txn.ErrBusy) {
		d := b.topo.Params.LockTimeout / 10
		if d < 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		select {
		case <-time.After(d):
		case <-b.stop:
		}
	}
	t.Restart()
}
