package fresh

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/model"
)

// histBuckets bounds every histogram: bucket 0 counts exact zeros and
// bucket i counts values whose bit length is i (i.e. [2^(i-1), 2^i)).
// 48 buckets cover ~8.9 years in microseconds, far beyond any lag a run
// can accumulate.
const histBuckets = 48

// hist is a bounded log2 histogram — the "distribution, not a running
// max" the observatory is built on. Fixed size regardless of sample
// count; percentiles resolve to the matched bucket's upper bound (capped
// by the exact max), so they are conservative within a factor of two.
type hist struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [histBuckets]uint64
}

func (h *hist) add(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b]++
}

// addZeros records n samples of zero.
func (h *hist) addZeros(n uint64) {
	h.count += n
	h.buckets[0] += n
}

// merge folds o into h bucket-wise.
func (h *hist) merge(o *hist) {
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// percentile returns the nearest-rank p-quantile's bucket upper bound,
// capped by the exact maximum. Zero samples yield zero.
func (h *hist) percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			up := uint64(1)<<uint(i) - 1
			if up > h.max {
				up = h.max
			}
			return up
		}
	}
	return h.max
}

func (h *hist) dist() Dist {
	d := Dist{
		Count: h.count,
		P50:   h.percentile(0.50),
		P95:   h.percentile(0.95),
		P99:   h.percentile(0.99),
		Max:   h.max,
	}
	if h.count > 0 {
		d.Mean = float64(h.sum) / float64(h.count)
	}
	return d
}

// Dist summarizes one bounded histogram. P50/P95/P99 are bucket upper
// bounds (conservative within 2×); Mean and Max are exact.
type Dist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// SiteFreshness is one site's staleness and read-certificate view.
type SiteFreshness struct {
	Site model.SiteID `json:"site"`
	// Applies counts propagated updates applied here; VersionLag and
	// TimeLagUS are the replica staleness distributions sampled on each
	// apply and by the periodic probe.
	Applies    uint64 `json:"applies"`
	VersionLag Dist   `json:"version_lag"`
	TimeLagUS  Dist   `json:"time_lag_us"`
	// ReadsFresh/ReadsStale count read certificates (ReadVersionLag's
	// zero samples and the rest); ReadVersionLag and ReadTimeLagUS
	// distribute how far behind the primary reads were.
	ReadsFresh     uint64 `json:"reads_fresh"`
	ReadsStale     uint64 `json:"reads_stale"`
	ReadVersionLag Dist   `json:"read_version_lag"`
	ReadTimeLagUS  Dist   `json:"read_time_lag_us"`
}

// Summary is a point-in-time rollup of a Tracker: per-site rows plus
// cluster totals. It is the freshness document every surface shares —
// replbench -json (cluster totals) and the repo benchmark's
// fresh_read_pct.
type Summary struct {
	Sites []SiteFreshness `json:"sites"`

	// Totals across sites.
	Applies        uint64 `json:"applies"`
	VersionLag     Dist   `json:"version_lag"`
	TimeLagUS      Dist   `json:"time_lag_us"`
	ReadsFresh     uint64 `json:"reads_fresh"`
	ReadsStale     uint64 `json:"reads_stale"`
	ReadVersionLag Dist   `json:"read_version_lag"`
	ReadTimeLagUS  Dist   `json:"read_time_lag_us"`
}

// Reads returns the total certificate count.
func (s *Summary) Reads() uint64 {
	if s == nil {
		return 0
	}
	return s.ReadsFresh + s.ReadsStale
}

// StaleReadPct returns the percentage of certified reads that were
// stale; zero when no reads were certified.
func (s *Summary) StaleReadPct() float64 {
	if n := s.Reads(); n > 0 {
		return 100 * float64(s.ReadsStale) / float64(n)
	}
	return 0
}

// Summarize rolls the tracker's current state into a Summary, leaving
// the tracker unchanged. Each site's fresh certificates are added to the
// zero buckets of copies of its read histograms, as if each had been
// sampled there. Sites that recorded nothing are omitted; rows come out
// sorted by site id.
func (t *Tracker) Summarize() *Summary {
	if t == nil {
		return nil
	}
	out := &Summary{}
	var vl, tl, rvl, rtl hist
	for id, ss := range t.table(0) {
		fresh := ss.fresh.Load()
		ss.mu.Lock()
		readVerLag, readLagUS := ss.readVerLag, ss.readLagUS
		readVerLag.addZeros(fresh)
		readLagUS.addZeros(fresh)
		row := SiteFreshness{
			Site:           model.SiteID(id),
			Applies:        ss.applies,
			VersionLag:     ss.versionLag.dist(),
			TimeLagUS:      ss.timeLagUS.dist(),
			ReadsFresh:     readVerLag.buckets[0],
			ReadsStale:     readVerLag.count - readVerLag.buckets[0],
			ReadVersionLag: readVerLag.dist(),
			ReadTimeLagUS:  readLagUS.dist(),
		}
		vl.merge(&ss.versionLag)
		tl.merge(&ss.timeLagUS)
		rvl.merge(&readVerLag)
		rtl.merge(&readLagUS)
		ss.mu.Unlock()
		if row.Applies == 0 && row.VersionLag.Count == 0 && row.ReadVersionLag.Count == 0 {
			continue
		}
		out.Sites = append(out.Sites, row)
		out.Applies += row.Applies
		out.ReadsFresh += row.ReadsFresh
		out.ReadsStale += row.ReadsStale
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].Site < out.Sites[j].Site })
	out.VersionLag = vl.dist()
	out.TimeLagUS = tl.dist()
	out.ReadVersionLag = rvl.dist()
	out.ReadTimeLagUS = rtl.dist()
	return out
}
