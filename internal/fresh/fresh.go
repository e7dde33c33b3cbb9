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
// The Tracker mirrors the primary version counter of every item. Its one
// feeder is each site's transaction manager (internal/txn), which
// observes every read and install at the site: a primary commit calls
// NoteCommit once per written item while its exclusive locks are held,
// so the tracker's "latest" for an item equals the storage version number
// the commit installed before any reader can see that version. Secondary
// applies advance a per-(item, site) applied counter the same way —
// propagated updates apply exactly once per site, in primary-commit
// order — so version lag is a subtraction away and no storage reads are
// needed on any hot path.
//
// What each call costs. A fresh certificate — a CertifyRead that
// observed the latest version, or a CertifyFresh — is a few atomic loads
// and one atomic add to the site's fresh counter: no lock and no clock
// read, so the reads a lazy protocol serves locally do not serialize on
// the tracker. A transaction certifies with CertifyReadUncounted, whose
// fresh certificate is only the loads: it counts its fresh reads itself
// and adds them with one AddFresh when it commits or aborts, so a
// program's reads write nothing the site's readers share, and a Summary
// taken mid-run omits the fresh reads of programs still in flight. A
// stale certificate takes the item's shard lock and one clock read to
// look up the missed commit's stamp, and is recorded at once. NoteCommit
// and NoteApply take the item's shard lock and one clock read each. The
// fresh counters are folded into bucket 0 of the read histograms when a
// Summary is built, so every Summary reads exactly as if each fresh
// certificate had been sampled into them.
//
// All wall-clock reads live in this package, outside the deterministic
// core (the transaction manager passes only item ids and version
// numbers), and a nil
// *Tracker is a valid no-op costing one branch, matching the repo's
// nil-handle discipline for trace.Recorder and obs handles.
package fresh

import (
	"sync"
	"sync/atomic"
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

// itemState is one item's freshness bookkeeping. Only latest is read
// without the shard lock; the ring and applied are read and written
// under it.
type itemState struct {
	// latest counts the primary commits seen (it mirrors the primary
	// version counter). Writers store it under the shard lock, after the
	// ring entry it names.
	latest  atomic.Uint64
	ring    [ringSize]stamp
	applied map[model.SiteID]uint64 // per-site propagated-apply counter
}

// stampAt returns the commit time of version num, or the oldest retained
// stamp as a lower bound when num has been evicted from the ring. The
// caller holds the shard lock.
func (st *itemState) stampAt(num uint64) (time.Time, bool) {
	if num == 0 || num > st.latest.Load() {
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

// shard holds a slice of the item table. items is immutable once
// published: inserting an item publishes a copy under mu, so a fresh
// certificate finds its item with one atomic load and no lock.
type shard struct {
	mu    sync.Mutex
	items atomic.Pointer[map[model.ItemID]*itemState]
}

// lookup returns item's state, or nil if the shard has not seen it.
func (s *shard) lookup(id model.ItemID) *itemState {
	if m := s.items.Load(); m != nil {
		return (*m)[id]
	}
	return nil
}

// item returns id's state, inserting it if absent; the caller holds mu.
func (s *shard) item(id model.ItemID) *itemState {
	if st := s.lookup(id); st != nil {
		return st
	}
	st := &itemState{applied: make(map[model.SiteID]uint64)}
	m := map[model.ItemID]*itemState{id: st}
	if old := s.items.Load(); old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	s.items.Store(&m)
	return st
}

// siteStat accumulates one site's staleness and certificate
// distributions. Bounded by construction: four fixed-size histograms and
// two counters, regardless of run length. Stale certificates are sampled
// into the read histograms; fresh ones only bump fresh, which Summarize
// adds to the histograms' zero buckets.
type siteStat struct {
	fresh      atomic.Uint64 // fresh certificates, not in the read histograms
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

	// sites is indexed by SiteID and grown on demand by publishing a
	// longer copy; a published table is never changed.
	sites atomic.Pointer[[]*siteStat]

	probeStop chan struct{}
	probeDone chan struct{}
}

// New returns a tracker pre-sized for the given site count (sites beyond
// it are still accepted and grow the table).
func New(sites int) *Tracker {
	t := &Tracker{}
	t.table(sites)
	return t
}

// table returns the site table, first growing it to at least n entries
// if it is shorter. Concurrent growers race to publish; a loser retries
// on the winner's table, so every published entry is kept.
func (t *Tracker) table(n int) []*siteStat {
	for {
		old := t.sites.Load()
		var cur []*siteStat
		if old != nil {
			cur = *old
		}
		if len(cur) >= n {
			return cur
		}
		grown := make([]*siteStat, n)
		copy(grown, cur)
		for i := len(cur); i < n; i++ {
			grown[i] = &siteStat{}
		}
		if t.sites.CompareAndSwap(old, &grown) {
			return grown
		}
	}
}

func (t *Tracker) site(id model.SiteID) *siteStat {
	if id < 0 {
		id = 0
	}
	return t.table(int(id) + 1)[id]
}

// shard returns item's shard.
func (t *Tracker) shard(item model.ItemID) *shard {
	return &t.shards[uint(item)%shardCount]
}

// NoteCommit records one primary commit of item: the transaction
// manager calls it once per written item immediately after the storage
// apply, before the commit's locks are released, so the tracker's latest
// version mirrors the primary's version counter.
func (t *Tracker) NoteCommit(item model.ItemID) {
	if t == nil {
		return
	}
	now := time.Now()
	s := t.shard(item)
	s.mu.Lock()
	st := s.item(item)
	n := st.latest.Load() + 1
	st.ring[n%ringSize] = stamp{num: n, at: now}
	st.latest.Store(n)
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
	s := t.shard(item)
	s.mu.Lock()
	st := s.item(item)
	ap := st.applied[site] + 1
	st.applied[site] = ap
	lag := uint64(0)
	if latest := st.latest.Load(); latest > ap {
		lag = latest - ap
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
// distributions. A read of the latest version takes no lock and reads no
// clock; only a stale one does.
func (t *Tracker) CertifyRead(site model.SiteID, item model.ItemID, version uint64) Cert {
	c := t.CertifyReadUncounted(site, item, version)
	if !c.Stale() {
		t.CertifyFresh(site)
	}
	return c
}

// CertifyReadUncounted is CertifyRead for a caller that counts fresh
// certificates itself: a stale certificate is recorded as CertifyRead
// records it, but a fresh one is only returned, and the caller must add
// it to the site's count with AddFresh. A transaction counts its fresh
// reads this way and adds them once, when it ends, so its reads write
// nothing a site's other readers share.
func (t *Tracker) CertifyReadUncounted(site model.SiteID, item model.ItemID, version uint64) Cert {
	if t == nil {
		return Cert{}
	}
	s := t.shard(item)
	st := s.lookup(item)
	if st == nil || st.latest.Load() <= version {
		return Cert{}
	}
	// Stale: latest only grows, so it still exceeds version under the lock.
	now := time.Now()
	s.mu.Lock()
	c := Cert{Versions: st.latest.Load() - version}
	if at, ok := st.stampAt(version + 1); ok {
		c.Behind = now.Sub(at)
	}
	s.mu.Unlock()

	ss := t.site(site)
	ss.mu.Lock()
	ss.readVerLag.add(c.Versions)
	ss.readLagUS.add(clampUS(c.Behind))
	ss.mu.Unlock()
	return c
}

// CertifyFresh certifies a read that observed no stored version — one
// served from the reader's own write buffer — or, from CertifyRead, one
// that observed the latest: zero staleness by construction, but still
// one certificate, so every read is counted.
func (t *Tracker) CertifyFresh(site model.SiteID) Cert {
	t.AddFresh(site, 1)
	return Cert{}
}

// AddFresh counts n fresh certificates at site, issued earlier by
// CertifyReadUncounted or for reads served from a write buffer.
func (t *Tracker) AddFresh(site model.SiteID, n uint32) {
	if t == nil || n == 0 {
		return
	}
	t.site(site).fresh.Add(uint64(n))
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
		var items map[model.ItemID]*itemState
		if m := s.items.Load(); m != nil {
			items = *m
		}
		for _, st := range items {
			latest := st.latest.Load()
			for site, ap := range st.applied {
				if latest <= ap {
					continue
				}
				ps := probeSample{site: site, lag: latest - ap}
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
