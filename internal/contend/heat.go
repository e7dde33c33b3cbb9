// The item heat table: per-site lock.ItemStats merged across the cluster
// and cut down to the K hottest items, so a run with a million items
// reports a bounded, ranked table of where the lock manager actually hurt.
package contend

import (
	"sort"

	"repro/internal/lock"
	"repro/internal/model"
)

// SiteHeat is one site's per-item contention accounting, as returned by
// lock.Manager.ItemStats.
type SiteHeat struct {
	Site  model.SiteID     `json:"site"`
	Items []lock.ItemStats `json:"items"`
}

// HeatEntry is one item's cluster-wide contention heat: the per-site
// counters summed, plus how many sites saw any contention on it.
type HeatEntry struct {
	Item      model.ItemID `json:"item"`
	Acquired  uint64       `json:"acquired"`
	Waited    uint64       `json:"waited"`
	Timeouts  uint64       `json:"timeouts"`
	Deadlocks uint64       `json:"deadlocks"`
	Wounds    uint64       `json:"wounds"`
	WaitNS    int64        `json:"wait_ns"`
	MaxWaitNS int64        `json:"max_wait_ns"`
	QueuePeak int          `json:"queue_peak"`
	// Sites is the number of sites on which the item made some request
	// wait or fail (not merely sites that touched it).
	Sites int `json:"sites"`
}

// Failures is the number of requests the item killed outright.
func (h HeatEntry) Failures() uint64 { return h.Timeouts + h.Deadlocks + h.Wounds }

// hotter ranks heat entries: total wait time first (the quantity the
// ROADMAP says the engines are bound on), then failures, then waits, then
// item id — a strict order, so the table is deterministic for any input.
func hotter(a, b HeatEntry) bool {
	if a.WaitNS != b.WaitNS {
		return a.WaitNS > b.WaitNS
	}
	if af, bf := a.Failures(), b.Failures(); af != bf {
		return af > bf
	}
	if a.Waited != b.Waited {
		return a.Waited > b.Waited
	}
	return a.Item < b.Item
}

// BuildHeat merges per-site item stats into the top-K heat table, hottest
// first. Items that never made any request wait or fail are excluded —
// uncontended acquisition is the normal case, not heat — so an empty
// table means the run was contention-free. k <= 0 means no bound.
func BuildHeat(sites []SiteHeat, k int) []HeatEntry {
	merged := make(map[model.ItemID]*HeatEntry)
	for _, sh := range sites {
		for _, s := range sh.Items {
			if !s.Contended() {
				continue
			}
			h := merged[s.Item]
			if h == nil {
				h = &HeatEntry{Item: s.Item}
				merged[s.Item] = h
			}
			h.Acquired += s.Acquired
			h.Waited += s.Waited
			h.Timeouts += s.Timeouts
			h.Deadlocks += s.Deadlocks
			h.Wounds += s.Wounds
			h.WaitNS += s.WaitNS
			if s.MaxWaitNS > h.MaxWaitNS {
				h.MaxWaitNS = s.MaxWaitNS
			}
			if s.QueuePeak > h.QueuePeak {
				h.QueuePeak = s.QueuePeak
			}
			h.Sites++
		}
	}
	out := make([]HeatEntry, 0, len(merged))
	for _, h := range merged {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return hotter(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
