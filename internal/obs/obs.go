// Package obs is the live metrics registry: lock-free atomic counters,
// gauges and duration histograms that running engines and transports
// update in place, exported on demand in Prometheus text format and as
// expvar JSON (see Handler). It complements internal/metrics — which
// summarizes a finished run — by making a *running* cluster observable:
// per-site commit/abort/apply counts, pending-secondary queue depths, and
// per-edge communication volume and latency.
//
// Handles returned by a nil *Registry are nil, and every method on a nil
// handle is a no-op, so instrumented hot paths pay exactly one branch when
// observation is disabled and never allocate.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension of a metric series.
type Label struct{ Key, Value string }

// Counter is a monotonically-increasing atomic counter. A nil *Counter is
// a valid no-op.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a valid no-op.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() {
	if g != nil {
		g.v.Add(1)
	}
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g != nil {
		g.v.Add(-1)
	}
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets exponential duration buckets: 1µs, 2µs, ... doubling to
// ~1s, plus the implicit +Inf bucket. Wide enough for everything from a
// MemTransport hop (~150µs) to a stalled propagation (seconds).
const numBuckets = 21

// bucketBounds[i] is the inclusive upper bound of bucket i, in
// nanoseconds.
var bucketBounds = func() [numBuckets]int64 {
	var b [numBuckets]int64
	bound := int64(1000) // 1µs
	for i := range b {
		b[i] = bound
		bound *= 2
	}
	return b
}()

// Histogram accumulates duration observations into exponential buckets.
// A nil *Histogram is a valid no-op.
type Histogram struct {
	counts [numBuckets + 1]atomic.Uint64 // last slot is +Inf
	sum    atomic.Int64                  // nanoseconds
	count  atomic.Uint64
}

// Observe records one duration; negative values are ignored (transports
// pass a negative latency to mean "unknown").
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	ns := int64(d)
	i := 0
	for i < numBuckets && ns > bucketBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// series is one registered metric series: a family name plus rendered
// labels.
type series struct {
	family string
	labels string // `site="0",queue="fifo"` or ""
}

func (s series) String() string {
	if s.labels == "" {
		return s.family
	}
	return s.family + "{" + s.labels + "}"
}

// Registry holds a process's metric series. Get-or-create methods return
// stable handles that callers cache; updates through the handles are
// lock-free. A nil *Registry returns nil handles, making disabled
// observation free. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[series]*Counter
	gauges     map[series]*Gauge
	histograms map[series]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[series]*Counter),
		gauges:     make(map[series]*Gauge),
		histograms: make(map[series]*Histogram),
	}
}

func makeSeries(family string, labels []Label) series {
	if len(labels) == 0 {
		return series{family: family}
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	sort.Strings(parts)
	return series{family: family, labels: strings.Join(parts, ",")}
}

// Counter returns the counter for the series, creating it if needed.
func (r *Registry) Counter(family string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := makeSeries(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[s]
	if !ok {
		c = &Counter{}
		r.counters[s] = c
	}
	return c
}

// Export registers c, a counter the caller owns, as the series' counter,
// replacing any counter registered there before. It lets a count that
// lives elsewhere (a site's counter bank, internal/metrics) be scraped in
// place instead of being kept twice.
func (r *Registry) Export(c *Counter, family string, labels ...Label) {
	if r == nil {
		return
	}
	s := makeSeries(family, labels)
	r.mu.Lock()
	r.counters[s] = c
	r.mu.Unlock()
}

// Gauge returns the gauge for the series, creating it if needed.
func (r *Registry) Gauge(family string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := makeSeries(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[s]
	if !ok {
		g = &Gauge{}
		r.gauges[s] = g
	}
	return g
}

// Histogram returns the histogram for the series, creating it if needed.
func (r *Registry) Histogram(family string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := makeSeries(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[s]
	if !ok {
		h = &Histogram{}
		r.histograms[s] = h
	}
	return h
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4), sorted for stable scrapes. Durations are
// exported in seconds, following the Prometheus convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[series]uint64, len(r.counters))
	for s, c := range r.counters {
		counters[s] = c.Value()
	}
	gauges := make(map[series]int64, len(r.gauges))
	for s, g := range r.gauges {
		gauges[s] = g.Value()
	}
	type histSnap struct {
		counts [numBuckets + 1]uint64
		sum    int64
		count  uint64
	}
	hists := make(map[series]histSnap, len(r.histograms))
	for s, h := range r.histograms {
		var snap histSnap
		for i := range h.counts {
			snap.counts[i] = h.counts[i].Load()
		}
		snap.sum, snap.count = h.sum.Load(), h.count.Load()
		hists[s] = snap
	}
	r.mu.Unlock()

	var b strings.Builder
	writeFamily := func(kind string, all []series, emit func(series)) {
		sort.Slice(all, func(i, j int) bool {
			if all[i].family != all[j].family {
				return all[i].family < all[j].family
			}
			return all[i].labels < all[j].labels
		})
		last := ""
		for _, s := range all {
			if s.family != last {
				fmt.Fprintf(&b, "# TYPE %s %s\n", s.family, kind)
				last = s.family
			}
			emit(s)
		}
	}

	cs := make([]series, 0, len(counters))
	for s := range counters {
		cs = append(cs, s)
	}
	writeFamily("counter", cs, func(s series) {
		fmt.Fprintf(&b, "%s %d\n", s, counters[s])
	})

	gs := make([]series, 0, len(gauges))
	for s := range gauges {
		gs = append(gs, s)
	}
	writeFamily("gauge", gs, func(s series) {
		fmt.Fprintf(&b, "%s %d\n", s, gauges[s])
	})

	hs := make([]series, 0, len(hists))
	for s := range hists {
		hs = append(hs, s)
	}
	writeFamily("histogram", hs, func(s series) {
		snap := hists[s]
		cum := uint64(0)
		for i, n := range snap.counts {
			cum += n
			le := "+Inf"
			if i < numBuckets {
				le = formatSeconds(bucketBounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", s.family, labelPrefix(s), le, cum)
		}
		fmt.Fprintf(&b, "%s %s\n", seriesName(s.family+"_sum", s.labels), formatSeconds(snap.sum))
		fmt.Fprintf(&b, "%s %d\n", seriesName(s.family+"_count", s.labels), snap.count)
	})

	_, err := io.WriteString(w, b.String())
	return err
}

func labelPrefix(s series) string {
	if s.labels == "" {
		return ""
	}
	return s.labels + ","
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatSeconds(ns int64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", float64(ns)/1e9), "0"), ".")
}

// Snapshot returns every scalar series (counters and gauges as values,
// histograms as count/sum pairs) keyed by rendered series name — the
// expvar export and a convenient assertion surface for tests.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+2*len(r.histograms))
	for s, c := range r.counters {
		out[s.String()] = int64(c.Value())
	}
	for s, g := range r.gauges {
		out[s.String()] = g.Value()
	}
	for s, h := range r.histograms {
		out[s.String()+":count"] = int64(h.Count())
		out[s.String()+":sum_ns"] = int64(h.Sum())
	}
	return out
}
