// Package txn implements the local transaction manager each site runs:
// begin/read/write/commit/abort over the site's store and lock manager
// under strict two-phase locking (§1.1). Writes are buffered and installed
// at commit, so abort is trivially atomic; reads see the transaction's own
// buffered writes. Locks are held until commit or abort and then released
// in one step, which makes the local serialization order equal the local
// commit order — the property all four protocols build on.
package txn

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/storage"
)

// ErrAborted wraps lock failures that force the caller to abort.
var ErrAborted = errors.New("txn: aborted")

// Manager coordinates transactions at one site.
type Manager struct {
	Site     model.SiteID
	Store    *storage.Store
	Locks    *lock.Manager
	Timeout  time.Duration     // lock-wait timeout (the paper's 50 ms)
	Recorder *history.Recorder // nil disables observation recording

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

// acquire wraps Locks.AcquireEx with lock-wait phase attribution. The
// clock is read only when a phase hook is installed, so the default path
// costs one nil check.
func (t *Txn) acquire(item model.ItemID, mode lock.Mode) error {
	m := t.m
	if m.phase == nil {
		return m.Locks.AcquireEx(t.ID, item, mode, m.Timeout, t.prio)
	}
	start := time.Now()
	err := m.Locks.AcquireEx(t.ID, item, mode, m.Timeout, t.prio)
	m.phase(metrics.PhaseLockWait, t.ID, start)
	return err
}

// Txn is one local (sub)transaction. It is not safe for concurrent use by
// multiple goroutines; each thread owns its transaction.
type Txn struct {
	ID model.TxnID
	m  *Manager

	writes     map[model.ItemID]int64
	writeOrder []model.ItemID
	readObs    []history.ReadObs
	prio       lock.Priority
	finished   bool
	durable    func() error
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
	return &Txn{ID: id, m: m, writes: make(map[model.ItemID]int64)}
}

// BeginSecondary starts a secondary subtransaction: its lock requests
// carry Secondary priority, which wounds vulnerable lock holders
// (primaries parked on a backedge round-trip) instead of stalling behind
// them — the paper's §2 fair victim selection.
func (m *Manager) BeginSecondary(id model.TxnID) *Txn {
	return &Txn{ID: id, m: m, writes: make(map[model.ItemID]int64), prio: lock.Secondary}
}

// Read returns the current value of item, first consulting the
// transaction's own write buffer, otherwise taking a shared lock and
// reading the store. A lock timeout aborts the transaction.
func (t *Txn) Read(item model.ItemID) (int64, error) {
	v, _, _, err := t.ReadVersioned(item)
	return v, err
}

// ReadVersioned is Read plus freshness provenance: it additionally
// returns the storage version number the value came from and whether the
// read hit the store at all (false for a value served from the
// transaction's own write buffer, whose version is meaningless until
// commit). The version feeds read-freshness certificates
// (internal/fresh) without a second store access.
func (t *Txn) ReadVersioned(item model.ItemID) (int64, uint64, bool, error) {
	if t.finished {
		return 0, 0, false, fmt.Errorf("txn %v: read after finish", t.ID)
	}
	if v, ok := t.writes[item]; ok {
		return v, 0, false, nil
	}
	if err := t.acquire(item, lock.Shared); err != nil {
		t.Abort()
		// Wrap (not format) the lock error: abort classification walks the
		// chain with errors.Is to tell a timeout from a detected deadlock.
		return 0, 0, false, fmt.Errorf("%w: r[%d] at s%d: %w", ErrAborted, item, t.m.Site, err)
	}
	ver, err := t.m.Store.Read(item)
	if err != nil {
		t.Abort()
		return 0, 0, false, err
	}
	t.readObs = append(t.readObs, history.ReadObs{Site: t.m.Site, Item: item, Version: ver.Num, Reader: t.ID})
	return ver.Value, ver.Num, true, nil
}

// Write buffers a new value for item after taking the exclusive lock
// (upgrading a held shared lock if necessary). A lock timeout aborts the
// transaction.
func (t *Txn) Write(item model.ItemID, value int64) error {
	if t.finished {
		return fmt.Errorf("txn %v: write after finish", t.ID)
	}
	if err := t.acquire(item, lock.Exclusive); err != nil {
		t.Abort()
		// Wrap (not format) the lock error, as in Read, for abort
		// classification.
		return fmt.Errorf("%w: w[%d] at s%d: %w", ErrAborted, item, t.m.Site, err)
	}
	if _, ok := t.writes[item]; !ok {
		t.writeOrder = append(t.writeOrder, item)
	}
	t.writes[item] = value
	return nil
}

// Commit installs the buffered writes, flushes the read/write
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
			t.m.Locks.ReleaseAll(t.ID)
			return fmt.Errorf("txn %v: %w: %w", t.ID, ErrAborted, err)
		}
	}
	var applyStart time.Time
	if t.m.phase != nil && len(t.writeOrder) > 0 {
		applyStart = time.Now()
	}
	for _, item := range t.writeOrder {
		ver, err := t.m.Store.Apply(item, t.writes[item], t.ID)
		if err != nil {
			// Unreachable with a correct engine: writes target local copies.
			t.m.Locks.ReleaseAll(t.ID)
			return err
		}
		t.m.Recorder.Write(t.m.Site, item, ver.Num, t.ID)
	}
	if !applyStart.IsZero() {
		t.m.phase(metrics.PhaseApply, t.ID, applyStart)
	}
	for _, ro := range t.readObs {
		t.m.Recorder.Read(ro.Site, ro.Item, ro.Version, ro.Reader)
	}
	t.m.Locks.ReleaseAll(t.ID)
	return nil
}

// ObserveRemoteRead buffers a read observation made at another site on
// this transaction's behalf (PSL remote reads); like local reads it is
// flushed to the recorder only if the transaction commits.
func (t *Txn) ObserveRemoteRead(site model.SiteID, item model.ItemID, version uint64) {
	t.readObs = append(t.readObs, history.ReadObs{Site: site, Item: item, Version: version, Reader: t.ID})
}

// Abort discards buffered writes and releases all locks. Safe to call
// multiple times.
func (t *Txn) Abort() {
	if t.finished {
		return
	}
	t.finished = true
	t.m.Locks.ReleaseAll(t.ID)
}

// Finished reports whether the transaction has committed or aborted.
func (t *Txn) Finished() bool { return t.finished }

// Writes returns the buffered writes in write order, the payload of a
// secondary subtransaction.
func (t *Txn) Writes() []model.WriteOp {
	out := make([]model.WriteOp, 0, len(t.writeOrder))
	for _, item := range t.writeOrder {
		out = append(out, model.WriteOp{Item: item, Value: t.writes[item]})
	}
	return out
}

// NumWrites returns the number of distinct items written.
func (t *Txn) NumWrites() int { return len(t.writeOrder) }
