// Package lock implements the strict two-phase-locking lock manager every
// site runs (§1.1 of the paper): shared/exclusive item locks with FIFO
// wait queues, lock upgrade, and the two deadlock-handling policies the
// paper discusses — lock-request timeouts (the prototype's mechanism,
// default 50 ms, handling both local and global deadlocks) and an optional
// local wait-for-graph detector.
//
// "Strict" 2PL here means callers hold every lock until commit/abort and
// then call ReleaseAll; the manager itself never releases early.
package lock

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/model"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ErrTimeout is returned when a lock request waits longer than its
// timeout; the caller is expected to treat itself as the deadlock victim
// and abort.
var ErrTimeout = errors.New("lock: request timed out (deadlock victim)")

// ErrDeadlock is returned when the wait-for-graph detector (if enabled)
// proves that blocking this request would close a waits-for cycle.
var ErrDeadlock = errors.New("lock: wait-for cycle detected")

// ErrLeaseExpired reports a lock granted under a lease (a PSL remote read
// grant) whose lease ran out before its holder could commit: the grantor
// may since have crashed, forgotten the lock and granted a conflicting
// one. The manager never returns it; the holder's engine does.
var ErrLeaseExpired = errors.New("lock: lease expired")

// Stats counts lock-manager events; read them with Manager.Stats.
type Stats struct {
	Acquired  uint64
	Waited    uint64
	Timeouts  uint64
	Deadlocks uint64 // detector-resolved
	Wounds    uint64 // vulnerable holders wounded by blocking secondaries
	WaitTime  time.Duration
}

// waiter is one queued lock request. A request that stops waiting leaves
// the queue at once — a granted one before it is signalled, a timed-out
// one when it gives up — so every queued waiter is live.
type waiter struct {
	owner   model.TxnID
	item    model.ItemID
	mode    Mode
	upgrade bool
	since   time.Time  // when the request queued (wait-age observation only)
	granted chan error // buffered(1); nil error = granted
	// timer times the wait out. It outlives the wait only when it is
	// known idle — stopped before it fired, or fired and drained — and is
	// otherwise dropped, so a reused waiter never sees a stale expiry.
	timer *time.Timer
}

// waiters recycles waiters with their grant channel and timer: once a
// wait returns, nothing refers to its waiter, so a granted wait allocates
// nothing once the pool is warm.
var waiters = sync.Pool{New: func() any { return &waiter{granted: make(chan error, 1)} }}

// holdSet is one owner's locks in grant order. A transaction takes about
// ten, so lookups scan. Sets come from holdSets and go back when their
// owner's last lock is released: the manager keeps no set it is not
// using, and a grant allocates nothing once the pool is warm.
type holdSet struct{ locks []heldLock }

type heldLock struct {
	item model.ItemID
	mode Mode
}

var holdSets = sync.Pool{New: func() any { return new(holdSet) }}

// find returns the index of item in s, or -1.
func (s *holdSet) find(item model.ItemID) int {
	for i := range s.locks {
		if s.locks[i].item == item {
			return i
		}
	}
	return -1
}

// putHoldSet empties s and returns it to the pool.
func putHoldSet(s *holdSet) {
	s.locks = s.locks[:0]
	holdSets.Put(s)
}

type entry struct {
	holders map[model.TxnID]Mode
	queue   []*waiter
	// stats is the item's contention accounting (contention.go); kept in
	// the entry so the hot paths never pay a second map lookup. Its Item
	// field is filled in at snapshot time.
	stats ItemStats
}

// Priority marks a lock request made on behalf of a secondary
// subtransaction. Secondaries must eventually succeed (§2 of the paper:
// they are resubmitted until they commit), so when one blocks on a holder
// that has declared itself vulnerable — a primary parked on its backedge
// round-trip — the holder is wounded: its registered callback fires and
// it aborts, implementing the paper's fair victim selection ("the
// transaction which arrived at the site the latest").
type Priority bool

// Priority levels for AcquireEx.
const (
	// Normal requests never wound anybody.
	Normal Priority = false
	// Secondary requests wound vulnerable holders they block on.
	Secondary Priority = true
)

// Manager is one site's lock table. All methods are safe for concurrent
// use.
type Manager struct {
	mu         sync.Mutex
	items      map[model.ItemID]*entry
	held       map[model.TxnID]*holdSet
	waits      map[model.TxnID]model.ItemID // owner -> item it is queued on
	vulnerable map[model.TxnID]*vulnState   // owner -> wound state
	grace      time.Duration
	detect     bool
	stats      Stats
}

// vulnState tracks one vulnerable owner: when it became vulnerable and
// what to call to wound it.
type vulnState struct {
	since time.Time
	fn    func()
}

// NewManager returns an empty lock manager. If detectDeadlocks is true,
// requests that would close a local waits-for cycle fail fast with
// ErrDeadlock instead of waiting for the timeout.
func NewManager(detectDeadlocks bool) *Manager {
	return &Manager{
		items:      make(map[model.ItemID]*entry),
		held:       make(map[model.TxnID]*holdSet),
		waits:      make(map[model.TxnID]model.ItemID),
		vulnerable: make(map[model.TxnID]*vulnState),
		detect:     detectDeadlocks,
	}
}

// Acquire obtains a lock on item for owner in the given mode, waiting at
// most timeout. Re-acquiring an already-held lock (same or weaker mode) is
// a no-op; holding Shared and requesting Exclusive performs an upgrade.
// A timeout of zero or less means "do not wait": fail immediately if the
// lock cannot be granted.
func (m *Manager) Acquire(owner model.TxnID, item model.ItemID, mode Mode, timeout time.Duration) error {
	return m.AcquireEx(owner, item, mode, timeout, Normal)
}

// SetVulnerable registers owner as woundable: if a Secondary-priority
// request blocks on one of owner's locks after the wound grace period
// (see SetWoundGrace) has elapsed, fn runs (once, from the requester's
// goroutine, without the manager lock held). The owner is expected to
// abort promptly. ClearVulnerable must be called when the vulnerable
// phase ends.
func (m *Manager) SetVulnerable(owner model.TxnID, fn func()) {
	m.mu.Lock()
	m.vulnerable[owner] = &vulnState{since: time.Now(), fn: fn}
	m.mu.Unlock()
}

// SetWoundGrace sets how long an owner may stay vulnerable before a
// blocking secondary actually wounds it. A grace of zero (the default)
// wounds immediately; a positive grace lets short backedge round-trips
// finish instead of being killed by the first passing secondary, at the
// cost of stalling that secondary's queue for up to the grace period.
func (m *Manager) SetWoundGrace(d time.Duration) {
	m.mu.Lock()
	m.grace = d
	m.mu.Unlock()
}

// ClearVulnerable removes owner's wound callback.
func (m *Manager) ClearVulnerable(owner model.TxnID) {
	m.mu.Lock()
	delete(m.vulnerable, owner)
	m.mu.Unlock()
}

// AcquireEx is Acquire with an explicit priority class.
func (m *Manager) AcquireEx(owner model.TxnID, item model.ItemID, mode Mode, timeout time.Duration, prio Priority) error {
	m.mu.Lock()
	e := m.items[item]
	if e == nil {
		e = &entry{holders: make(map[model.TxnID]Mode)}
		m.items[item] = e
	}
	cur, upgrading := e.holders[owner]
	if upgrading && (cur == Exclusive || mode == Shared) {
		m.mu.Unlock()
		return nil // already held strongly enough
	}

	if m.canGrant(e, owner, mode) {
		m.grantLocked(e, owner, item, mode)
		m.stats.Acquired++
		e.stats.Acquired++
		m.mu.Unlock()
		return nil
	}
	if timeout <= 0 {
		m.mu.Unlock()
		return ErrTimeout
	}
	if m.detect && m.wouldDeadlock(owner, e) {
		m.stats.Deadlocks++
		e.stats.Deadlocks++
		m.mu.Unlock()
		return ErrDeadlock
	}
	// A blocking secondary wounds vulnerable holders in its way — those
	// already past the grace period now, the rest when their grace runs
	// out (woundAt).
	wounds, woundAt := m.collectWoundsLocked(e, owner, mode, prio)
	m.stats.Wounds += uint64(len(wounds))
	e.stats.Wounds += uint64(len(wounds))
	w := waiters.Get().(*waiter)
	w.owner, w.item, w.mode, w.upgrade, w.since = owner, item, mode, upgrading, time.Now()
	if upgrading {
		// Upgraders jump the queue: they already hold Shared, so making
		// them wait behind queued writers guarantees deadlock.
		e.queue = slices.Insert(e.queue, 0, w)
	} else {
		e.queue = append(e.queue, w)
	}
	m.waits[owner] = item
	m.stats.Waited++
	e.stats.Waited++
	e.stats.QueuePeak = max(e.stats.QueuePeak, len(e.queue))
	m.mu.Unlock()

	for _, fn := range wounds {
		fn()
	}
	err := m.wait(e, w, timeout, woundAt, prio)
	waiters.Put(w)
	return err
}

// wait blocks the queued request w on e until it is granted or timeout
// runs out, wounding the vulnerable holders in its way as their grace
// expires (from woundAt on). On return w is out of the queue and idle.
func (m *Manager) wait(e *entry, w *waiter, timeout time.Duration, woundAt time.Time, prio Priority) error {
	if w.timer == nil {
		w.timer = time.NewTimer(timeout)
	} else {
		w.timer.Reset(timeout)
	}
	for {
		var wt *time.Timer
		var woundTimer <-chan time.Time
		if !woundAt.IsZero() {
			wt = time.NewTimer(time.Until(woundAt))
			woundTimer = wt.C
		}
		select {
		case err := <-w.granted:
			if wt != nil {
				wt.Stop()
			}
			if !w.timer.Stop() {
				// Expired meanwhile: its tick may still be on the way.
				w.timer = nil
			}
			m.mu.Lock()
			m.endWaitLocked(e, w)
			m.mu.Unlock()
			return err
		case <-woundTimer:
			// Grace expired for at least one vulnerable holder; wound the
			// ones still in the way and keep waiting.
			m.mu.Lock()
			var wounds []func()
			wounds, woundAt = m.collectWoundsLocked(e, w.owner, w.mode, prio)
			m.stats.Wounds += uint64(len(wounds))
			e.stats.Wounds += uint64(len(wounds))
			m.mu.Unlock()
			for _, fn := range wounds {
				fn()
			}
		case <-w.timer.C:
			if wt != nil {
				wt.Stop()
			}
			m.mu.Lock()
			err := ErrTimeout
			select {
			case err = <-w.granted:
				// Granted in the race window; keep the lock.
			default:
				i := slices.Index(e.queue, w)
				e.queue = slices.Delete(e.queue, i, i+1)
				m.stats.Timeouts++
				e.stats.Timeouts++
				m.sweepLocked(e)
			}
			m.endWaitLocked(e, w)
			m.mu.Unlock()
			return err
		}
	}
}

// endWaitLocked forgets w's finished wait on e and folds it into the
// manager-wide and per-item accounting. Caller holds m.mu.
func (m *Manager) endWaitLocked(e *entry, w *waiter) {
	delete(m.waits, w.owner)
	d := time.Since(w.since)
	m.stats.WaitTime += d
	e.stats.WaitNS += int64(d)
	if int64(d) > e.stats.MaxWaitNS {
		e.stats.MaxWaitNS = int64(d)
	}
}

// collectWoundsLocked gathers the wound callbacks of vulnerable holders
// blocking the (owner, mode) request whose grace has expired, removing
// them from the vulnerable set, and returns the earliest future instant
// at which another blocking holder becomes woundable (zero if none).
// Non-secondary requests never wound. Caller holds m.mu.
func (m *Manager) collectWoundsLocked(e *entry, owner model.TxnID, mode Mode, prio Priority) ([]func(), time.Time) {
	if prio != Secondary {
		return nil, time.Time{}
	}
	now := time.Now()
	var wounds []func()
	var woundAt time.Time
	for h, hm := range e.holders {
		if h == owner || (mode == Shared && hm == Shared) {
			continue
		}
		vs, ok := m.vulnerable[h]
		if !ok {
			continue
		}
		if now.Sub(vs.since) >= m.grace {
			wounds = append(wounds, vs.fn)
			delete(m.vulnerable, h)
		} else if due := vs.since.Add(m.grace); woundAt.IsZero() || due.Before(woundAt) {
			woundAt = due
		}
	}
	return wounds, woundAt
}

// canGrant reports whether owner may take item in mode right now,
// respecting FIFO fairness: a Shared request does not overtake queued
// waiters (unless it is an upgrade, which bypasses the queue).
func (m *Manager) canGrant(e *entry, owner model.TxnID, mode Mode) bool {
	if mode == Shared {
		if len(e.queue) > 0 {
			return false
		}
		for _, hm := range e.holders {
			if hm == Exclusive {
				return false
			}
		}
		return true
	}
	// Exclusive: must be sole holder (upgrade) or no holders, and no
	// queue ahead.
	if len(e.queue) > 0 {
		return false
	}
	for h, hm := range e.holders {
		if h != owner || hm == Exclusive {
			return false
		}
	}
	return true
}

func (m *Manager) grantLocked(e *entry, owner model.TxnID, item model.ItemID, mode Mode) {
	_, upgrade := e.holders[owner]
	e.holders[owner] = mode
	hs := m.held[owner]
	if hs == nil {
		hs = holdSets.Get().(*holdSet)
		m.held[owner] = hs
	}
	if upgrade {
		hs.locks[hs.find(item)].mode = mode
		return
	}
	hs.locks = append(hs.locks, heldLock{item: item, mode: mode})
}

// sweepLocked grants as many queued waiters as compatibility allows, in
// FIFO order.
func (m *Manager) sweepLocked(e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		ok := false
		if w.mode == Shared {
			ok = true
			for _, hm := range e.holders {
				if hm == Exclusive {
					ok = false
				}
			}
		} else {
			ok = true
			for h, hm := range e.holders {
				if h != w.owner || hm == Exclusive {
					ok = false
				}
			}
		}
		if !ok {
			return
		}
		// Shift rather than reslice, so the queue's array is reused
		// instead of creeping forward into a fresh one.
		e.queue = slices.Delete(e.queue, 0, 1)
		m.grantLocked(e, w.owner, w.item, w.mode)
		m.stats.Acquired++
		e.stats.Acquired++
		w.granted <- nil
		if w.mode == Exclusive {
			return
		}
		// A granted Shared lock may be followed by more compatible
		// Shared grants; keep sweeping.
	}
}

// wouldDeadlock reports whether making owner wait on entry e closes a
// cycle in the local waits-for graph.
func (m *Manager) wouldDeadlock(owner model.TxnID, e *entry) bool {
	// Build blockers of a waiter: holders of the item it waits on plus
	// live waiters queued ahead of it. For the probe we only need "waits
	// on item" -> holders, iterated transitively.
	visited := map[model.TxnID]bool{}
	var blocked func(t model.TxnID) bool // true if t transitively waits on owner
	blocked = func(t model.TxnID) bool {
		if t == owner {
			return true
		}
		if visited[t] {
			return false
		}
		visited[t] = true
		it, waiting := m.waits[t]
		if !waiting {
			return false
		}
		ent := m.items[it]
		if ent == nil {
			return false
		}
		for h := range ent.holders {
			if h != t && blocked(h) {
				return true
			}
		}
		return false
	}
	for h := range e.holders {
		if h != owner && blocked(h) {
			return true
		}
	}
	return false
}

// ReleaseAll drops every lock held by owner and wakes compatible waiters.
// It is the commit/abort-time release of strict 2PL.
func (m *Manager) ReleaseAll(owner model.TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.vulnerable, owner)
	hs := m.held[owner]
	if hs == nil {
		return
	}
	delete(m.held, owner)
	for _, h := range hs.locks {
		e := m.items[h.item]
		delete(e.holders, owner)
		m.sweepLocked(e)
	}
	putHoldSet(hs)
}

// Release drops owner's lock on a single item (used by protocols that
// release remote read locks individually).
func (m *Manager) Release(owner model.TxnID, item model.ItemID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hs := m.held[owner]; hs != nil {
		if i := hs.find(item); i >= 0 {
			hs.locks = slices.Delete(hs.locks, i, i+1)
		}
		if len(hs.locks) == 0 {
			delete(m.held, owner)
			putHoldSet(hs)
		}
	}
	if e := m.items[item]; e != nil {
		delete(e.holders, owner)
		m.sweepLocked(e)
	}
}

// Holds reports the mode owner currently holds on item, if any.
func (m *Manager) Holds(owner model.TxnID, item model.ItemID) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := m.held[owner]
	if hs == nil {
		return Shared, false
	}
	i := hs.find(item)
	if i < 0 {
		return Shared, false
	}
	return hs.locks[i].mode, true
}

// HeldCount returns the number of locks owner holds.
func (m *Manager) HeldCount(owner model.TxnID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hs := m.held[owner]; hs != nil {
		return len(hs.locks)
	}
	return 0
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// String renders the lock table; for debugging deadlocks in tests.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := ""
	for item, e := range m.items {
		if len(e.holders) == 0 && len(e.queue) == 0 {
			continue
		}
		s += fmt.Sprintf("item %d: holders=%v queue=%d\n", item, e.holders, len(e.queue))
	}
	return s
}
