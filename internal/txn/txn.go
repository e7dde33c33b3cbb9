// Package txn implements the local transaction manager each site runs:
// begin/read/write/commit/abort over the site's store and lock manager
// under strict two-phase locking (§1.1). Writes are buffered and installed
// at commit, so abort is trivially atomic; reads see the transaction's own
// buffered writes. Locks are held until commit or abort and then released
// in one step, which makes the local serialization order equal the local
// commit order — the property all four protocols build on.
//
// The manager is also the site's one observation point: every read it
// serves is certified against the freshness tracker (internal/fresh) when
// it is made, and every install a commit makes is noted in the tracker and
// the serializability recorder while its exclusive locks are still held.
// A transaction counts its fresh certificates itself and adds them to the
// tracker once, when it commits or aborts; a stale one is recorded at once.
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/fresh"
	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/storage"
)

// ErrAborted wraps lock failures that force the caller to abort.
var ErrAborted = errors.New("txn: aborted")

// ErrBusy is TryWrite's refusal: the lock was not free, so the
// transaction aborted. It is returned as is, never wrapped, so a refusal
// allocates nothing, and it wraps no lock error: a refusal is not a lock
// timeout.
var ErrBusy = errors.New("txn: lock busy")

// Manager coordinates transactions at one site.
type Manager struct {
	Site     model.SiteID
	Store    *storage.Store
	Locks    *lock.Manager
	Timeout  time.Duration     // lock-wait timeout (the paper's 50 ms)
	Recorder *history.Recorder // nil disables observation recording
	Fresh    *fresh.Tracker    // nil disables read certificates and install notes

	phase func(p metrics.Phase, tid model.TxnID, start time.Time) // nil disables phase attribution
}

// NewManager returns a transaction manager over the given store and lock
// manager.
func NewManager(site model.SiteID, st *storage.Store, lm *lock.Manager, timeout time.Duration, rec *history.Recorder) *Manager {
	return &Manager{Site: site, Store: st, Locks: lm, Timeout: timeout, Recorder: rec}
}

// SetPhaseHook installs fn, invoked as each lock-wait and write-apply
// segment ends, with the segment's start and the id of the transaction it
// belongs to. Engines point it at their phase reporting, which feeds both
// the run's phase breakdown and the per-transaction PhaseLatency trace
// events the contention observatory's critical-path analyzer needs. Call
// before transactions run; a nil hook (the default) keeps both paths free
// of clock reads.
func (m *Manager) SetPhaseHook(fn func(p metrics.Phase, tid model.TxnID, start time.Time)) {
	m.phase = fn
}

// acquire wraps Locks.AcquireEx with lock-wait phase attribution; a
// timeout of zero makes the request no-wait. The clock is read only when
// a phase hook is installed, so the default path costs one nil check.
func (t *Txn) acquire(item model.ItemID, mode lock.Mode, timeout time.Duration) error {
	m := t.m
	t.locked = true
	if m.phase == nil {
		return m.Locks.AcquireEx(t.ID, item, mode, timeout, t.prio)
	}
	start := time.Now()
	err := m.Locks.AcquireEx(t.ID, item, mode, timeout, t.prio)
	m.phase(metrics.PhaseLockWait, t.ID, start)
	return err
}

// inlineWrites is how many writes a Txn buffers without allocating: every
// program of the paper's workload (§5.2, ten operations) fits.
const inlineWrites = 10

// Txn is one local (sub)transaction. It is not safe for concurrent use by
// multiple goroutines; each thread owns its transaction.
type Txn struct {
	ID model.TxnID
	m  *Manager

	// writes is the write buffer, one entry per item in first-write order,
	// searched linearly; it starts on inline, so a transaction of up to
	// inlineWrites items never allocates for it.
	writes []model.WriteOp
	inline [inlineWrites]model.WriteOp
	// readObs buffers read observations for the recorder, and stays empty
	// without one.
	readObs  []history.ReadObs
	prio     lock.Priority
	finished bool
	// locked is set once t asks the lock manager for a lock; a
	// transaction that never did (a snapshot reader) finishes without
	// taking the lock manager's mutex.
	locked bool
	// fresh counts t's fresh read certificates not yet added to the
	// tracker; release adds them.
	fresh   uint32
	durable func() error
}

// SetDurable installs the write-ahead hook Commit runs before any store
// mutation: typically an engine closure that appends the commit's redo
// record to the site log and waits for the group commit. If the hook
// fails (the site's log was fenced by a crash) Commit releases all locks
// and returns an error wrapping both ErrAborted and the hook's error —
// nothing was installed, exactly as if the transaction never committed.
// Conversely, once the hook returns nil the commit is durable and Commit
// always completes the in-memory installation.
func (t *Txn) SetDurable(hook func() error) { t.durable = hook }

// Begin starts a transaction with the given system-wide unique id.
func (m *Manager) Begin(id model.TxnID) *Txn {
	t := spares.Get().(*Txn)
	t.reset(id, m, lock.Normal)
	return t
}

// spares holds finished transactions handed back by Recycle — secondary
// subtransactions and read-only primaries — so an applier that keeps up,
// or a client running read-only programs, reuses one Txn instead of
// allocating one per transaction.
var spares = sync.Pool{New: func() any { return new(Txn) }}

// BeginSecondary starts a secondary subtransaction: its blocking lock
// requests carry Secondary priority, which wounds vulnerable lock holders
// (primaries parked on a backedge round-trip) instead of stalling behind
// them — the paper's §2 fair victim selection.
func (m *Manager) BeginSecondary(id model.TxnID) *Txn {
	t := spares.Get().(*Txn)
	t.reset(id, m, lock.Secondary)
	return t
}

// Recycle hands a committed or aborted transaction back for a later
// Begin or BeginSecondary to reuse. The caller must keep no reference to
// t or to its Writes.
func (m *Manager) Recycle(t *Txn) { spares.Put(t) }

// Restart makes t a fresh transaction under the same id and priority,
// aborting it first if it is still running, and reuses its buffers: the
// resubmission of a subtransaction that must run to completion (§2)
// allocates nothing.
func (t *Txn) Restart() {
	t.Abort()
	t.reset(t.ID, t.m, t.prio)
}

// reset makes t a fresh transaction, keeping only its buffers' storage.
func (t *Txn) reset(id model.TxnID, m *Manager, prio lock.Priority) {
	*t = Txn{ID: id, m: m, prio: prio, readObs: t.readObs[:0]}
	t.writes = t.inline[:0]
}

// buffered returns the index of item in the write buffer, or -1.
func (t *Txn) buffered(item model.ItemID) int {
	for i := range t.writes {
		if t.writes[i].Item == item {
			return i
		}
	}
	return -1
}

// Read returns the current value of item, first consulting the
// transaction's own write buffer, otherwise taking a shared lock and
// reading the store. A lock timeout aborts the transaction. The read is
// certified as it is made: a value served from the transaction's own
// write buffer is fresh by construction, and a store read is certified by
// the version it observed. A read that fails certifies nothing. A fresh
// certificate is counted in the tracker when t commits or aborts.
func (t *Txn) Read(item model.ItemID) (int64, error) {
	if t.finished {
		return 0, fmt.Errorf("txn %v: read after finish", t.ID)
	}
	if i := t.buffered(item); i >= 0 {
		t.fresh++
		return t.writes[i].Value, nil
	}
	if err := t.acquire(item, lock.Shared, t.m.Timeout); err != nil {
		t.Abort()
		// Wrap (not format) the lock error: abort classification walks the
		// chain with errors.Is to tell a timeout from a detected deadlock.
		return 0, fmt.Errorf("%w: r[%d] at s%d: %w", ErrAborted, item, t.m.Site, err)
	}
	ver, err := t.m.Store.Read(item)
	if err != nil {
		t.Abort()
		return 0, err
	}
	t.observeRead(t.m.Site, item, ver.Num)
	return ver.Value, nil
}

// ReadAt is a snapshot read for a read-only transaction: it returns the
// value of item as of pin, an install point the caller holds with
// Store.Pin, and takes no lock. Like a locking read it is certified at
// once and recorded for the serializability checker when t commits; its
// freshness is that of the pinned version. A failed read aborts the
// transaction and certifies nothing.
func (t *Txn) ReadAt(item model.ItemID, pin uint64) (int64, error) {
	if t.finished {
		return 0, fmt.Errorf("txn %v: read after finish", t.ID)
	}
	ver, err := t.m.Store.ReadAt(item, pin)
	if err != nil {
		t.Abort()
		return 0, err
	}
	t.observeRead(t.m.Site, item, ver.Num)
	return ver.Value, nil
}

// Write buffers a new value for item after taking the exclusive lock
// (upgrading a held shared lock if necessary). A lock timeout aborts the
// transaction.
func (t *Txn) Write(item model.ItemID, value int64) error {
	return t.write(item, value, t.m.Timeout)
}

// TryWrite is Write with a no-wait lock request, which never waits and
// never wounds: if the exclusive lock cannot be granted at once, the
// transaction aborts — every lock released, every buffered write
// discarded — and TryWrite returns ErrBusy.
func (t *Txn) TryWrite(item model.ItemID, value int64) error {
	return t.write(item, value, 0)
}

// write is Write with a lock timeout; zero makes the request no-wait.
func (t *Txn) write(item model.ItemID, value int64, timeout time.Duration) error {
	if t.finished {
		return fmt.Errorf("txn %v: write after finish", t.ID)
	}
	if err := t.acquire(item, lock.Exclusive, timeout); err != nil {
		t.Abort()
		if timeout <= 0 {
			return ErrBusy
		}
		// Wrap (not format) the lock error, as in Read, for abort
		// classification.
		return fmt.Errorf("%w: w[%d] at s%d: %w", ErrAborted, item, t.m.Site, err)
	}
	if i := t.buffered(item); i >= 0 {
		t.writes[i].Value = value
	} else {
		t.writes = append(t.writes, model.WriteOp{Item: item, Value: value})
	}
	return nil
}

// Commit installs the buffered writes as one batch, notes each install in
// the freshness tracker — a primary commit for a Begin transaction, a
// propagated apply for a BeginSecondary one — flushes the read/write
// observations to the recorder, and releases all locks. Callers that need
// commit to be atomic with respect to other commits at the site (the
// critical sections of §2 and §3.2.2) serialize calls with a site-level
// commit mutex.
//
// Commit mutates durable state, so on WAL-backed paths every call must
// be dominated by arming the write-ahead hook (armDurable/SetDurable
// reaching the site log's Append); the waldiscipline analyzer enforces
// this at every call site in the engines.
//
// repl:durable
func (t *Txn) Commit() error {
	if t.finished {
		return fmt.Errorf("txn %v: double finish", t.ID)
	}
	t.finished = true
	if t.durable != nil {
		// Log then mutate: the redo record must be on disk before any
		// effect of this commit can be observed (or externalized by the
		// caller under its commit critical section).
		if err := t.durable(); err != nil {
			t.release()
			return fmt.Errorf("txn %v: %w: %w", t.ID, ErrAborted, err)
		}
	}
	var applyStart time.Time
	if t.m.phase != nil && len(t.writes) > 0 {
		applyStart = time.Now()
	}
	// One batch: a snapshot reader sees all of this commit or none of it.
	// A commit that wrote nothing installs no batch and leaves the store
	// unlocked.
	if len(t.writes) > 0 {
		if err := t.m.Store.ApplyAll(t.writes, t.ID); err != nil {
			// Unreachable with a correct engine: writes target local copies.
			t.release()
			return err
		}
	}
	// The exclusive locks are still held, so Read returns the versions
	// this commit installed, and no reader can see one before the tracker
	// has counted it.
	for _, w := range t.writes {
		if t.m.Recorder != nil {
			ver, _ := t.m.Store.Read(w.Item)
			t.m.Recorder.Write(t.m.Site, w.Item, ver.Num, t.ID)
		}
		if t.prio == lock.Secondary {
			t.m.Fresh.NoteApply(t.m.Site, w.Item)
		} else {
			t.m.Fresh.NoteCommit(w.Item)
		}
	}
	if !applyStart.IsZero() {
		t.m.phase(metrics.PhaseApply, t.ID, applyStart)
	}
	for _, ro := range t.readObs {
		t.m.Recorder.Read(ro.Site, ro.Item, ro.Version, ro.Reader)
	}
	t.release()
	return nil
}

// release adds t's fresh certificates to the tracker and releases all of
// t's locks, if it asked for any.
func (t *Txn) release() {
	t.m.Fresh.AddFresh(t.m.Site, t.fresh)
	t.fresh = 0
	if t.locked {
		t.m.Locks.ReleaseAll(t.ID)
	}
}

// ObserveRemoteRead observes a read made at another site on this
// transaction's behalf (PSL remote reads) that returned the given version
// of item, shipped by site under its shared lock. It is certified now and,
// like local reads, flushed to the recorder only if the transaction
// commits.
func (t *Txn) ObserveRemoteRead(site model.SiteID, item model.ItemID, version uint64) {
	t.observeRead(site, item, version)
}

// observeRead observes one read of item that returned version at site:
// it buffers the observation for Commit to flush, if a recorder is
// attached to flush it to, and certifies the read for this transaction's
// site: a stale certificate is recorded now, a fresh one counted in t.
func (t *Txn) observeRead(site model.SiteID, item model.ItemID, version uint64) {
	if t.m.Recorder != nil {
		t.readObs = append(t.readObs, history.ReadObs{Site: site, Item: item, Version: version, Reader: t.ID})
	}
	if !t.m.Fresh.CertifyReadUncounted(t.m.Site, item, version).Stale() {
		t.fresh++
	}
}

// Abort discards buffered writes and releases all locks. Safe to call
// multiple times.
func (t *Txn) Abort() {
	if t.finished {
		return
	}
	t.finished = true
	t.writes = t.writes[:0]
	t.release()
}

// Finished reports whether the transaction has committed or aborted.
func (t *Txn) Finished() bool { return t.finished }

// Writes returns the buffered writes, one per item in first-write order
// with the last value written: the payload of a secondary subtransaction.
// It returns the buffer itself, not a copy, so callers must not mutate it,
// and the transaction must take no writes after the call.
func (t *Txn) Writes() []model.WriteOp { return slices.Clip(t.writes) }

// NumWrites returns the number of distinct items written.
func (t *Txn) NumWrites() int { return len(t.writes) }
