// Per-item contention accounting and wait-for graph capture: the lock
// manager already owns everything the contention observatory needs — who
// holds what, who waits behind whom, and how each request resolved — so
// both instruments live here, under the same mutex, and cost the grant
// fast path one counter increment.
package lock

import (
	"sort"
	"time"

	"repro/internal/model"
)

// ItemStats is one item's contention accounting at one site: how its lock
// requests resolved, how long waiters sat, and how deep its queue got.
// Counts mirror the manager-wide Stats (an event increments an item
// counter exactly where it increments the global one).
type ItemStats struct {
	Item      model.ItemID `json:"item"`
	Acquired  uint64       `json:"acquired"`
	Waited    uint64       `json:"waited"`
	Timeouts  uint64       `json:"timeouts"`
	Deadlocks uint64       `json:"deadlocks"`
	Wounds    uint64       `json:"wounds"`
	// WaitNS/MaxWaitNS total and peak the time requests spent queued on
	// this item (wall clock; observation only).
	WaitNS    int64 `json:"wait_ns"`
	MaxWaitNS int64 `json:"max_wait_ns"`
	// QueuePeak is the deepest the item's live waiter queue ever got.
	QueuePeak int `json:"queue_peak"`
}

// Contended reports whether the item ever made a request wait or fail.
func (s ItemStats) Contended() bool {
	return s.Waited > 0 || s.Timeouts > 0 || s.Deadlocks > 0 || s.Wounds > 0
}

// ItemStats returns the per-item accounting for every item whose lock was
// ever requested here, sorted by item id.
func (m *Manager) ItemStats() []ItemStats {
	m.mu.Lock()
	out := make([]ItemStats, 0, len(m.items))
	for item, e := range m.items {
		s := e.stats
		s.Item = item
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// Hold is one current lock holder in a wait-for snapshot.
type Hold struct {
	Owner model.TxnID `json:"owner"`
	Mode  string      `json:"mode"`
}

// WaitEdge is one waiting lock request in a wait-for graph snapshot:
// who waits, on which item, in what mode, behind which holders. The
// holders it waits for plus the live waiters queued ahead of it (Pos)
// are exactly the blockers the deadlock detector would chase.
type WaitEdge struct {
	Item    model.ItemID `json:"item"`
	Waiter  model.TxnID  `json:"waiter"`
	Mode    string       `json:"mode"`
	Upgrade bool         `json:"upgrade,omitempty"`
	// Pos is the request's position among the item's live waiters (0 is
	// next in line).
	Pos     int    `json:"pos"`
	Holders []Hold `json:"holders"`
	// AgeNS is the wall-clock time the request had been waiting at
	// capture. Deliberately excluded from the JSON serialization: dump
	// bytes must depend only on the captured structure, so same-seed
	// snapshots of the same state stay byte-identical.
	AgeNS int64 `json:"-"`
}

// WaitGraph snapshots the manager's current wait-for state: one edge per
// live queued waiter, deterministically ordered by (item, queue
// position), holders sorted by owner. An empty slice means nobody is
// waiting.
func (m *Manager) WaitGraph() []WaitEdge {
	now := time.Now()
	m.mu.Lock()
	items := make([]model.ItemID, 0)
	for item, e := range m.items {
		if len(e.queue) > 0 {
			items = append(items, item)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	var out []WaitEdge
	for _, item := range items {
		e := m.items[item]
		holders := make([]Hold, 0, len(e.holders))
		for h, hm := range e.holders {
			holders = append(holders, Hold{Owner: h, Mode: hm.String()})
		}
		sort.Slice(holders, func(i, j int) bool { return txnLess(holders[i].Owner, holders[j].Owner) })
		for pos, w := range e.queue {
			out = append(out, WaitEdge{
				Item: item, Waiter: w.owner, Mode: w.mode.String(),
				Upgrade: w.upgrade, Pos: pos, Holders: holders,
				AgeNS: int64(now.Sub(w.since)),
			})
		}
	}
	m.mu.Unlock()
	return out
}

func txnLess(a, b model.TxnID) bool {
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	return a.Seq < b.Seq
}
