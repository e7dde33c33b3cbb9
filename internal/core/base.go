package core

import (
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
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wal"
)

// base carries the per-site substrate every protocol engine shares: the
// main-memory store holding the site's copies, the strict-2PL lock
// manager, the local transaction manager, the transport endpoints, and the
// commit mutex that makes commit-and-forward atomic (the critical sections
// of §2 and §3.2.2).
type base struct {
	cfg   *SharedConfig
	id    model.SiteID
	proto Protocol

	store *storage.Store
	locks *lock.Manager
	tm    *txn.Manager
	tr    comm.Transport
	rpc   *comm.RPC
	obs   siteObs

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

func newBase(cfg *SharedConfig, proto Protocol, id model.SiteID, tr comm.Transport) base {
	st := storage.NewStore()
	for _, item := range cfg.Placement.CopiesAt(id) {
		if err := st.Create(item, 0); err != nil {
			panic(fmt.Sprintf("core: duplicate copy at s%d: %v", id, err))
		}
	}
	var lg *wal.SiteLog
	var seqBase uint64
	if cfg.WALs != nil {
		lg = cfg.WALs[id]
	}
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
	lm := lock.NewManager(cfg.Params.DetectDeadlocks)
	lm.SetWoundGrace(cfg.Params.WoundGrace)
	so := newSiteObs(cfg.Obs, id)
	rpc := comm.NewRPC(id, tr)
	rpc.SetLateHook(func(model.SiteID, int) { so.rpcLate.Inc() })
	tm := txn.NewManager(id, st, lm, cfg.Params.LockTimeout, cfg.Recorder)
	tm.SetMetrics(cfg.Metrics)
	if cfg.Trace != nil {
		// Per-transaction lock-wait and apply segments for the critical-path
		// analyzer (internal/contend): the aggregate PhaseSample the manager
		// already takes cannot say whose latency it was.
		tm.SetPhaseTrace(func(p metrics.Phase, tid model.TxnID, d time.Duration) {
			cfg.Trace.RecordPhase(id, model.NoSite, tid, uint8(proto), p.String(), d)
		})
	}
	return base{
		cfg:     cfg,
		id:      id,
		proto:   proto,
		store:   st,
		locks:   lm,
		tm:      tm,
		tr:      tr,
		rpc:     rpc,
		obs:     so,
		seqBase: seqBase,
		wal:     lg,
		stop:    make(chan struct{}),
	}
}

func (b *base) Site() model.SiteID { return b.id }

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
		b.flushLockStats()
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
// appends and group-commits it before any store mutation.
func (b *base) armDurable(t *txn.Txn, rec wal.Record) {
	if b.wal == nil {
		return
	}
	t.SetDurable(func() error { return b.walAppendSync(rec) })
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

// consumeAndDone durably marks one receipt of tid consumed without an
// apply (a deduplicated duplicate, a failed execution, a special come
// home) and then releases its pending obligation. pendDone strictly
// follows durability: on false the marker was lost to a fence, the
// receipt stays unconsumed, and the obligation is deliberately left
// outstanding for recovery, which re-processes the receipt and releases
// it then.
func (b *base) consumeAndDone(tid model.TxnID) bool {
	if b.walAppendSync(wal.Record{Kind: wal.KindConsumed, TID: tid}) != nil {
		return false
	}
	b.pendDone()
	return true
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
	c := b.cfg.Params.OpCost
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
// opens the local transaction itself (tm.Begin(octx.TID)): returned from
// here the Txn would escape its caller's frame, one heap allocation per
// transaction.
func (b *base) beginOrigin() (model.SpanContext, time.Time) {
	//lint:allow nodeterminism commit-latency stamp for metrics; never branches protocol logic
	start := time.Now()
	octx := model.SpanContext{TID: b.newTxnID()}
	b.traceCtx(trace.TxnBegin, model.NoSite, octx)
	return octx, start
}

// runLocalOps executes a transaction program against local copies under
// strict 2PL. On any failure the transaction has been aborted.
func (b *base) runLocalOps(t *txn.Txn, ops []model.Op) error {
	for _, op := range ops {
		b.simulateOp()
		switch op.Kind {
		case model.OpRead:
			if !b.store.Has(op.Item) {
				t.Abort()
				return fmt.Errorf("core: s%d has no copy of item %d to read", b.id, op.Item)
			}
			_, ver, fromStore, err := t.ReadVersioned(op.Item)
			if err != nil {
				return err
			}
			b.certifyRead(t.ID, op.Item, ver, fromStore)
		case model.OpWrite:
			if !b.cfg.Placement.IsPrimary(b.id, op.Item) {
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

// send transmits a message and counts it. One-way protocol traffic is
// stamped so the receiver can attribute the transport phase; the stamp is
// observation-only and never branches protocol logic.
func (b *base) send(msg comm.Message) {
	b.cfg.Metrics.MsgSent(1)
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

// pendAdd/pendDone track in-flight propagation for cluster quiescing.
func (b *base) pendAdd(n int) {
	if b.cfg.Pending != nil {
		b.cfg.Pending.Add(n)
	}
}

func (b *base) pendDone() {
	if b.cfg.Pending != nil {
		b.cfg.Pending.Done()
	}
}

// stopping reports whether Stop was called.
func (b *base) stopping() bool {
	select {
	case <-b.stop:
		return true
	default:
		return false
	}
}

// retry is the resubmission step of every subtransaction that must run
// to completion (§2): count it, then sleep briefly so a retry storm does
// not starve the lock holders it waits for.
func (b *base) retry() {
	b.recRetry()
	d := b.cfg.Params.LockTimeout / 10
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	select {
	case <-time.After(d):
	case <-b.stop:
	}
}
