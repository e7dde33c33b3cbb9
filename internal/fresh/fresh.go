// Package fresh is the freshness observatory (docs/OBSERVABILITY.md):
// the measurement layer that turns "how stale are the replicas?" — the
// paper's whole subject, update propagation — from a single worst-case
// watchdog alert into distributions. This package holds its live
// instruments:
//
//   - read-freshness certificates: every read is certified with how many
//     versions (and how long) behind the primary the value it observed
//     was, via Tracker.CertifyRead;
//   - continuous staleness distributions: per-replica version lag and
//     time lag sampled on every secondary apply (Tracker.NoteApply) and
//     by a low-overhead periodic probe, kept as bounded log2 histograms
//     rather than a running max.
//
// The offline instrument, per-hop propagation waterfalls joined from a
// recorded trace, is a field of trace.Explain.
//
// The Tracker mirrors the primary version counter of every item: each
// primary commit calls NoteCommit once per written item inside the
// engine's commit critical section, so the tracker's "latest" for an
// item equals the storage version number the commit installed. Secondary
// applies advance a per-(item, site) applied counter the same way —
// propagated updates apply exactly once per site, in primary-commit
// order — so version lag is a subtraction away and no storage reads are
// needed on any hot path.
//
// All wall-clock reads live in this package, outside the deterministic
// core (the engines pass only item ids and version numbers), and a nil
// *Tracker is a valid no-op costing one branch, matching the repo's
// nil-handle discipline for trace.Recorder and obs handles.
package fresh

import (
	"sync"
	"time"

	"repro/internal/model"
)

// shardCount spreads item state across locks; any power of two
// comfortably above the hot-item count works.
const shardCount = 64

// ringSize is how many recent commit stamps each item keeps for time-lag
// lookup. A reader further behind than the ring remembers gets the
// oldest retained stamp — a lower bound on its true staleness, which is
// the honest direction to err (never overstating freshness).
const ringSize = 32

// stamp records when one version of an item committed at its primary.
type stamp struct {
	num uint64
	at  time.Time
}

// itemState is one item's freshness bookkeeping.
type itemState struct {
	latest  uint64 // primary commits seen (mirrors the primary version counter)
	ring    [ringSize]stamp
	applied map[model.SiteID]uint64 // per-site propagated-apply counter
}

// stampAt returns the commit time of version num, or the oldest retained
// stamp as a lower bound when num has been evicted from the ring.
func (st *itemState) stampAt(num uint64) (time.Time, bool) {
	if num == 0 || num > st.latest {
		return time.Time{}, false
	}
	if s := st.ring[num%ringSize]; s.num == num {
		return s.at, true
	}
	// Evicted: the oldest stamp still in the ring lower-bounds it.
	var oldest stamp
	for _, s := range st.ring {
		if s.num != 0 && (oldest.num == 0 || s.num < oldest.num) {
			oldest = s
		}
	}
	if oldest.num == 0 {
		return time.Time{}, false
	}
	return oldest.at, true
}

type shard struct {
	mu    sync.Mutex
	items map[model.ItemID]*itemState
}

func (s *shard) item(id model.ItemID) *itemState {
	st := s.items[id]
	if st == nil {
		st = &itemState{applied: make(map[model.SiteID]uint64)}
		s.items[id] = st
	}
	return st
}

// siteStat accumulates one site's staleness and certificate
// distributions. Bounded by construction: four fixed-size histograms and
// an apply counter, regardless of run length. Certificates are counted
// by readVerLag alone: its zero bucket holds the fresh reads.
type siteStat struct {
	mu         sync.Mutex
	applies    uint64
	versionLag hist // replica version lag, sampled on apply and by the probe
	timeLagUS  hist // replica time lag in µs, ditto
	readVerLag hist // versions behind at read time
	readLagUS  hist // µs behind at read time
}

// Cert is one read-freshness certificate: how far behind the primary the
// observed value was at read time.
type Cert struct {
	// Versions is the number of primary commits the read missed.
	Versions uint64
	// Behind is (a lower bound on) how long ago the oldest missed commit
	// happened; zero when Versions is zero.
	Behind time.Duration
}

// Stale reports whether the read observed anything but the latest
// committed version.
func (c Cert) Stale() bool { return c.Versions > 0 }

// Tracker is the run-time half of the freshness observatory. All methods
// are safe for concurrent use; a nil *Tracker is a valid no-op.
type Tracker struct {
	shards [shardCount]shard

	siteMu sync.RWMutex
	sites  []*siteStat // indexed by SiteID, grown on demand

	probeStop chan struct{}
	probeDone chan struct{}
}

// New returns a tracker pre-sized for the given site count (sites beyond
// it are still accepted and grow the table).
func New(sites int) *Tracker {
	t := &Tracker{}
	t.siteMu.Lock()
	t.grow(sites)
	t.siteMu.Unlock()
	return t
}

// grow extends the site table to n entries; caller holds siteMu.
func (t *Tracker) grow(n int) {
	for len(t.sites) < n {
		t.sites = append(t.sites, &siteStat{})
	}
}

func (t *Tracker) site(id model.SiteID) *siteStat {
	if id < 0 {
		id = 0
	}
	t.siteMu.RLock()
	if int(id) < len(t.sites) {
		s := t.sites[id]
		t.siteMu.RUnlock()
		return s
	}
	t.siteMu.RUnlock()
	t.siteMu.Lock()
	t.grow(int(id) + 1)
	s := t.sites[id]
	t.siteMu.Unlock()
	return s
}

// lock returns item's shard with its mutex held and the item table
// allocated; the caller unlocks.
func (t *Tracker) lock(item model.ItemID) *shard {
	s := &t.shards[uint(item)%shardCount]
	s.mu.Lock()
	if s.items == nil {
		s.items = make(map[model.ItemID]*itemState)
	}
	return s
}

// NoteCommit records one primary commit of item: the engines call it
// once per written item inside the commit critical section, immediately
// after the storage apply, so the tracker's latest version mirrors the
// primary's version counter.
func (t *Tracker) NoteCommit(item model.ItemID) {
	if t == nil {
		return
	}
	now := time.Now()
	s := t.lock(item)
	st := s.item(item)
	st.latest++
	st.ring[st.latest%ringSize] = stamp{num: st.latest, at: now}
	s.mu.Unlock()
}

// NoteApply records one propagated update applying at a secondary:
// site's applied counter for item advances by one (propagated updates
// apply exactly once per site, in primary-commit order), and the
// replica's version lag and commit→apply time lag are sampled into its
// bounded histograms.
func (t *Tracker) NoteApply(site model.SiteID, item model.ItemID) {
	if t == nil {
		return
	}
	now := time.Now()
	s := t.lock(item)
	st := s.item(item)
	ap := st.applied[site] + 1
	st.applied[site] = ap
	lag := uint64(0)
	if st.latest > ap {
		lag = st.latest - ap
	}
	var behind time.Duration
	if at, ok := st.stampAt(ap); ok {
		behind = now.Sub(at)
	}
	s.mu.Unlock()

	ss := t.site(site)
	ss.mu.Lock()
	ss.applies++
	ss.versionLag.add(lag)
	ss.timeLagUS.add(clampUS(behind))
	ss.mu.Unlock()
}

// CertifyRead certifies a read of item at site that observed the given
// storage version number: the certificate says how many primary commits
// the value missed and for how long the oldest of them had been
// committed. The sample also feeds the site's read-staleness
// distributions.
func (t *Tracker) CertifyRead(site model.SiteID, item model.ItemID, version uint64) Cert {
	if t == nil {
		return Cert{}
	}
	now := time.Now()
	var c Cert
	s := t.lock(item)
	if st := s.items[item]; st != nil && st.latest > version {
		c.Versions = st.latest - version
		if at, ok := st.stampAt(version + 1); ok {
			c.Behind = now.Sub(at)
		}
	}
	s.mu.Unlock()
	t.recordCert(site, c)
	return c
}

// CertifyFresh certifies a read that observed the primary copy itself
// (PSL's local and remote primary reads) or the reader's own write:
// zero staleness by construction, but still one certificate, so every
// read is counted.
func (t *Tracker) CertifyFresh(site model.SiteID) Cert {
	if t == nil {
		return Cert{}
	}
	t.recordCert(site, Cert{})
	return Cert{}
}

func (t *Tracker) recordCert(site model.SiteID, c Cert) {
	ss := t.site(site)
	ss.mu.Lock()
	ss.readVerLag.add(c.Versions)
	ss.readLagUS.add(clampUS(c.Behind))
	ss.mu.Unlock()
}

// StartProbe launches the periodic staleness probe: every interval it
// walks the item table and samples each lagging replica's current
// version and time lag into the same per-site histograms the applies
// feed — so a replica that stops receiving updates shows growing time
// lag instead of a frozen last-apply sample. One pass is O(items×replicas)
// map walks with no storage access; 100ms is a sensible default.
func (t *Tracker) StartProbe(every time.Duration) {
	if t == nil || t.probeStop != nil {
		return
	}
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	t.probeStop = make(chan struct{})
	t.probeDone = make(chan struct{})
	go func() {
		defer close(t.probeDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.probe()
			case <-t.probeStop:
				return
			}
		}
	}()
}

// StopProbe stops a running probe; safe to call when none runs.
func (t *Tracker) StopProbe() {
	if t == nil || t.probeStop == nil {
		return
	}
	close(t.probeStop)
	<-t.probeDone
	t.probeStop = nil
	t.probeDone = nil
}

// probeSample is one lagging replica observed during a probe pass.
type probeSample struct {
	site   model.SiteID
	lag    uint64
	behind time.Duration
}

func (t *Tracker) probe() {
	now := time.Now()
	var samples []probeSample
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, st := range s.items {
			for site, ap := range st.applied {
				if st.latest <= ap {
					continue
				}
				ps := probeSample{site: site, lag: st.latest - ap}
				if at, ok := st.stampAt(ap + 1); ok {
					ps.behind = now.Sub(at)
				}
				samples = append(samples, ps)
			}
		}
		s.mu.Unlock()
	}
	for _, ps := range samples {
		ss := t.site(ps.site)
		ss.mu.Lock()
		ss.versionLag.add(ps.lag)
		ss.timeLagUS.add(clampUS(ps.behind))
		ss.mu.Unlock()
	}
}

// clampUS converts a duration to non-negative microseconds.
func clampUS(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}
