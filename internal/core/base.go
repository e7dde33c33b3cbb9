package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/fresh"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
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
	cfg   *SharedConfig
	id    model.SiteID
	proto Protocol

	store *storage.Store
	locks *lock.Manager
	tm    *txn.Manager
	tr    comm.Transport
	rpc   *comm.RPC

	// bank is the site's counter bank, the only home of its counts
	// (observe.go).
	bank metrics.Bank

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

func newBase(cfg *SharedConfig, proto Protocol, id model.SiteID, tr comm.Transport) *base {
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
	b := &base{
		cfg:     cfg,
		id:      id,
		proto:   proto,
		store:   st,
		locks:   lm,
		tm:      txn.NewManager(id, st, lm, cfg.Params.LockTimeout, cfg.Recorder),
		tr:      tr,
		rpc:     comm.NewRPC(id, tr),
		bank:    cfg.Metrics.Bank(id, int(numSlots)),
		seqBase: seqBase,
		wal:     lg,
		stop:    make(chan struct{}),
	}
	b.exportBank()
	// Every site exports all four queue depths, whichever queues its
	// engine has.
	for _, q := range []string{"fifo", "ts", "eager", "reads"} {
		b.queueGauge(q)
	}
	b.rpc.SetLateHook(func(model.SiteID, int) { b.bank[lateReplies].Inc() })
	if cfg.Metrics != nil || cfg.Trace != nil {
		b.tm.SetPhaseHook(func(p metrics.Phase, tid model.TxnID, start time.Time) {
			b.phaseSince(p, model.NoSite, tid, start)
		})
	}
	return b
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
	b.emit(begun, model.NoSite, octx, 0)
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

// Freshness observatory hooks (docs/OBSERVABILITY.md). They keep every
// disabled hot path down to one nil check; the wall-clock reads live
// inside internal/fresh, outside the deterministic core — the engines
// pass only item ids and version numbers.

// noteApplied advances the tracker's per-(item, site) applied counters
// for a propagated update installed at this secondary, sampling the
// replica's version and time lag. Writes without a local copy are
// skipped, mirroring the appliers' own store.Has filter, so the applied
// counter only advances for versions this site actually installed.
func (b *base) noteApplied(writes []model.WriteOp) {
	if b.cfg.Fresh == nil {
		return
	}
	for _, w := range writes {
		if b.store.Has(w.Item) {
			b.cfg.Fresh.NoteApply(b.id, w.Item)
		}
	}
}

// certifyRead issues the read-freshness certificate for a read that
// observed the given storage version of item at this site; fromStore is
// false for a read that observed no stored replica — one served from the
// transaction's own write buffer, or from the primary copy itself (PSL) —
// which is fresh by construction. The reads count bumps before the
// tracker check: a process without a tracker still counts its reads.
// Certificates are span-less because whether a read catches the latest
// version races propagation timing.
func (b *base) certifyRead(tid model.TxnID, item model.ItemID, version uint64, fromStore bool) {
	b.bank[reads].Inc()
	f := b.cfg.Fresh
	if f == nil {
		return
	}
	var c fresh.Cert
	if fromStore {
		c = f.CertifyRead(b.id, item, version)
	} else {
		c = f.CertifyFresh(b.id)
	}
	s := readsFresh
	if c.Stale() {
		s = readsStale
	}
	b.emit(s, model.NoSite, model.SpanContext{TID: tid}, c.Behind)
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

// depth is one engine queue's length as its two observers see it: the
// repl_queue_depth gauge and the watchdog's queue handle. Every enqueue
// reports to both through push, every dequeue through pop.
type depth struct {
	gauge *obs.Gauge
	prog  *watch.Progress
}

func (d depth) push() {
	d.gauge.Inc()
	d.prog.Push()
}

func (d depth) pop() {
	d.gauge.Dec()
	d.prog.Pop()
}

// newDepth returns the depth handles of this site's queue q.
func (b *base) newDepth(q string) depth {
	return depth{gauge: b.queueGauge(q), prog: b.cfg.Watch.Queue(b.id, q)}
}

// queueGauge returns the live depth gauge of this site's queue q, nil
// without a registry.
func (b *base) queueGauge(q string) *obs.Gauge {
	return b.cfg.Obs.Gauge("repl_queue_depth",
		obs.Label{Key: "site", Value: strconv.Itoa(int(b.id))}, obs.Label{Key: "queue", Value: q})
}

// inboxBound bounds a site's secondary queue (DAG(WT), BackEdge) and its
// PSL read queue. Once a queue holds this many messages, Handle blocks the
// transport's delivery goroutine until the consumer pops one, and senders
// block in turn once that transport edge fills. The queue's memory follows
// its content, not this number (comm.Inbox).
const inboxBound = 1 << 16

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
	b.bank[metrics.Retries].Inc()
	d := b.cfg.Params.LockTimeout / 10
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	select {
	case <-time.After(d):
	case <-b.stop:
	}
}
