// Package metrics collects the performance measures of §5.3: average
// per-site throughput of primary subtransactions, abort rate, response
// times (§5.3.4), and update-propagation delay (§5.3.4), plus message
// counters used to explain the PSL-vs-BackEdge communication trade-off.
// Counts live in one bank per site (Bank); the collector sums them and
// keeps only durations itself.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Phase identifies one segment of a transaction's lifetime for latency
// attribution. A response time decomposes into where it was spent: waiting
// for locks, applying writes to storage, sitting in a propagation queue,
// crossing the transport, or blocked on a 2PC round trip.
type Phase uint8

const (
	// PhaseLockWait is time blocked in the lock manager (Acquire/AcquireEx).
	PhaseLockWait Phase = iota
	// PhaseApply is time installing buffered writes into storage at commit.
	PhaseApply
	// PhaseQueueWait is time a propagated update sat in a secondary's
	// service queue before an applier picked it up.
	PhaseQueueWait
	// PhaseTransport is one-way network time of a propagation message,
	// measured from the sender's stamp to receipt.
	PhaseTransport
	// PhaseVote is the 2PC prepare round trip seen by a BackEdge
	// coordinator per participant.
	PhaseVote
	// PhaseDecision is the 2PC decision delivery round trip per
	// participant.
	PhaseDecision

	numPhases // sentinel; keep last
)

var phaseNames = [numPhases]string{
	PhaseLockWait:  "lock_wait",
	PhaseApply:     "apply",
	PhaseQueueWait: "queue_wait",
	PhaseTransport: "transport",
	PhaseVote:      "2pc_vote",
	PhaseDecision:  "2pc_decision",
}

// String returns the stable snake_case name used as the Report.Phases map
// key and in trace events.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Count names a slot of a site's counter bank (Bank) that Report sums
// over sites. The engine that owns a bank numbers its further slots from
// NumCounts on, and names the series every slot is exported under
// (internal/core's bank table).
type Count int

const (
	// Committed counts committed primary subtransactions.
	Committed Count = iota
	// Aborted counts aborted primary subtransactions.
	Aborted
	// Secondaries counts committed secondary subtransactions.
	Secondaries
	// Messages counts protocol messages sent.
	Messages
	// RemoteReads counts PSL remote reads.
	RemoteReads
	// Dummies counts DAG(T) dummy subtransactions sent.
	Dummies
	// Retries counts secondary subtransaction resubmissions after a local
	// deadlock timeout (§2).
	Retries
	// NumCounts is the number of slots Report sums; keep last.
	NumCounts
)

// Bank is one site's event counts, one lock-free counter per slot. It is
// the only home of those counts: Report sums it over sites, and a live
// registry exports its slots in place (obs.Registry.Export).
type Bank []obs.Counter

// Collector accumulates one run's measurements: the sites' counter banks
// and the response-time, propagation-delay and phase durations. All
// methods are safe for concurrent use; a nil *Collector is a valid no-op
// sink.
type Collector struct {
	start atomic.Int64 // unix nanos
	end   atomic.Int64

	mu       sync.Mutex
	banks    map[model.SiteID]Bank
	resp     durStats
	prop     durStats
	phases   [numPhases]durStats
	commitAt map[model.TxnID]time.Time // nil unless tracking propagation
}

type durStats struct {
	count   uint64
	sum     time.Duration
	max     time.Duration
	samples []time.Duration // reservoir for percentiles, at most maxSamples
}

const maxSamples = 1 << 16

// add folds v into the series. Once the reservoir is full, the n-th value
// replaces a uniformly drawn slot with probability maxSamples/n
// (Algorithm R), so percentiles describe the whole run, not its first
// maxSamples values. The draw hashes n, which keeps same-input runs
// identical without a random source per series.
func (d *durStats) add(v time.Duration) {
	d.count++
	d.sum += v
	d.max = max(d.max, v)
	if len(d.samples) < maxSamples {
		d.samples = append(d.samples, v)
		return
	}
	if j := splitmix64(d.count) % d.count; j < maxSamples {
		d.samples[j] = v
	}
}

// splitmix64 is the SplitMix64 finalizer, a fast well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (d *durStats) mean() time.Duration {
	if d.count == 0 {
		return 0
	}
	return time.Duration(int64(d.sum) / int64(d.count))
}

// percentile returns the p-quantile of the reservoir (see Percentile).
func (d *durStats) percentile(p float64) time.Duration { return Percentile(d.samples, p) }

// Percentile returns the nearest-rank p-quantile of ds: the smallest
// sample with at least p of the samples at or below it. It is the one
// percentile rule of the repository's reports. Edge cases are pinned
// down explicitly: no samples yields zero (there is no meaningful
// percentile of an empty run), a single sample IS every percentile, and
// p outside (0, 1] clamps to the extremes rather than indexing out of
// range. ds is not modified.
func Percentile(ds []time.Duration, p float64) time.Duration {
	switch len(ds) {
	case 0:
		return 0
	case 1:
		return ds[0]
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// NewCollector returns a collector. If trackPropagation is true it keeps a
// per-transaction commit-time map so replica applications can be turned
// into propagation-delay samples (E7).
func NewCollector(trackPropagation bool) *Collector {
	c := &Collector{banks: make(map[model.SiteID]Bank)}
	if trackPropagation {
		c.commitAt = make(map[model.TxnID]time.Time)
	}
	return c
}

// Bank returns site's counter bank of n slots (n >= NumCounts), creating
// it on first use. Every later call for the site returns the same bank, so
// the counts of an engine rebuilt after a crash continue those of the one
// it replaces. A nil collector returns a fresh bank that Report never
// sees.
func (c *Collector) Bank(site model.SiteID, n int) Bank {
	if c == nil {
		return make(Bank, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.banks[site] == nil {
		c.banks[site] = make(Bank, n)
	}
	return c.banks[site]
}

// Begin marks the start of the measured interval.
func (c *Collector) Begin() {
	if c == nil {
		return
	}
	c.start.Store(time.Now().UnixNano())
}

// End marks the end of the measured interval.
func (c *Collector) End() {
	if c == nil {
		return
	}
	c.end.Store(time.Now().UnixNano())
}

// TxnCommitted records a committed primary subtransaction's response
// time and, when tracking propagation, its commit time.
func (c *Collector) TxnCommitted(tid model.TxnID, resp time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.resp.add(resp)
	if c.commitAt != nil {
		c.commitAt[tid] = time.Now()
	}
	c.mu.Unlock()
}

// SecondaryApplied turns a committed secondary subtransaction into a
// propagation-delay sample — the time since its primary committed — when
// tracking is enabled.
func (c *Collector) SecondaryApplied(tid model.TxnID) {
	if c == nil || c.commitAt == nil {
		return
	}
	c.mu.Lock()
	if at, ok := c.commitAt[tid]; ok {
		c.prop.add(time.Since(at))
	}
	c.mu.Unlock()
}

// PhaseSample records one latency-attribution sample for phase p.
// Unknown phases are dropped rather than panicking so wire-derived values
// stay safe.
func (c *Collector) PhaseSample(p Phase, d time.Duration) {
	if c == nil || p >= numPhases {
		return
	}
	c.mu.Lock()
	c.phases[p].add(max(d, 0))
	c.mu.Unlock()
}

// PhaseStats summarizes one phase's latency-attribution samples.
type PhaseStats struct {
	Count uint64
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Report is an immutable summary of a run.
//
// The exported field names are a compatibility contract: Report.JSON uses
// the default encoder, so renaming a field breaks every consumer of
// replbench output. Additions are fine; renames and removals are not
// (pinned by TestReportJSONFieldNamesFrozen).
type Report struct {
	Elapsed time.Duration

	Committed uint64
	Aborted   uint64

	// ThroughputPerSite is the paper's "average throughput": committed
	// primary subtransactions per second, averaged over the sites.
	ThroughputPerSite float64
	// AbortRate is the percentage of primary subtransactions that
	// aborted.
	AbortRate float64

	MeanResponse, P50Response, P95Response, MaxResponse time.Duration
	MeanPropDelay, P95PropDelay, MaxPropDelay           time.Duration

	// P99Response tails the response distribution; added alongside the
	// phase breakdown (omitted from String to keep the one-liner short).
	P99Response time.Duration

	Messages    uint64
	RemoteReads uint64
	Secondaries uint64
	Dummies     uint64
	Retries     uint64

	// Phases maps phase name (Phase.String) to its latency breakdown.
	// Only phases that recorded at least one sample appear, so protocols
	// without a 2PC leg simply lack those keys.
	Phases map[string]PhaseStats `json:",omitempty"`
}

// Snapshot computes the report for a run over m sites. Call End first (or
// Snapshot uses the current time).
func (c *Collector) Snapshot(m int) Report {
	if c == nil {
		return Report{}
	}
	endNs := c.end.Load()
	if endNs == 0 {
		endNs = time.Now().UnixNano()
	}
	elapsed := time.Duration(endNs - c.start.Load())
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n [NumCounts]uint64
	for _, b := range c.banks {
		for i := range n {
			n[i] += b[i].Value()
		}
	}
	r := Report{
		Elapsed:       elapsed,
		Committed:     n[Committed],
		Aborted:       n[Aborted],
		MeanResponse:  c.resp.mean(),
		P50Response:   c.resp.percentile(0.50),
		P95Response:   c.resp.percentile(0.95),
		P99Response:   c.resp.percentile(0.99),
		MaxResponse:   c.resp.max,
		MeanPropDelay: c.prop.mean(),
		P95PropDelay:  c.prop.percentile(0.95),
		MaxPropDelay:  c.prop.max,
		Messages:      n[Messages],
		RemoteReads:   n[RemoteReads],
		Secondaries:   n[Secondaries],
		Dummies:       n[Dummies],
		Retries:       n[Retries],
	}
	if m > 0 {
		r.ThroughputPerSite = float64(r.Committed) / elapsed.Seconds() / float64(m)
	}
	if r.Committed+r.Aborted > 0 {
		r.AbortRate = 100 * float64(r.Aborted) / float64(r.Committed+r.Aborted)
	}
	for i := range c.phases {
		d := &c.phases[i]
		if d.count == 0 {
			continue
		}
		if r.Phases == nil {
			r.Phases = make(map[string]PhaseStats)
		}
		r.Phases[Phase(i).String()] = PhaseStats{
			Count: d.count,
			Total: d.sum,
			Mean:  d.mean(),
			P50:   d.percentile(0.50),
			P95:   d.percentile(0.95),
			P99:   d.percentile(0.99),
			Max:   d.max,
		}
	}
	return r
}

// JSON renders the report as machine-readable JSON (durations in
// nanoseconds, the encoding/json default for time.Duration), for tooling
// that consumes replbench output.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func (r Report) String() string {
	return fmt.Sprintf(
		"thr/site=%.2f tps  aborts=%.1f%%  resp(mean/p95)=%s/%s  prop(mean/max)=%s/%s  msgs=%d remoteReads=%d secondaries=%d",
		r.ThroughputPerSite, r.AbortRate,
		r.MeanResponse.Round(time.Microsecond), r.P95Response.Round(time.Microsecond),
		r.MeanPropDelay.Round(time.Microsecond), r.MaxPropDelay.Round(time.Microsecond),
		r.Messages, r.RemoteReads, r.Secondaries)
}
