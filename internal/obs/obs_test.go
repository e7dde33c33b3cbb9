package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndHandlesAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Add(1)
	g.Set(9)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles accumulated values")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
}

// Disabled observation must not allocate: engines keep nil handles and
// call through them unconditionally.
func TestNilHandlesNeverAllocate(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil handles allocate %.1f per op", allocs)
	}
}

// Live updates must not allocate either — these run inside the txn hot
// path.
func TestLiveHandlesNeverAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", Label{Key: "site", Value: "0"})
	g := r.Gauge("g", Label{Key: "site", Value: "0"})
	h := r.Histogram("h_seconds")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		g.Add(-1)
		h.Observe(123 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("live handles allocate %.1f per op", allocs)
	}
}

func TestHandlesAreStableAndLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", Label{"a", "1"}, Label{"b", "2"})
	b := r.Counter("x_total", Label{"b", "2"}, Label{"a", "1"})
	if a != b {
		t.Fatal("label order created distinct series")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles not shared")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("repl_txn_committed_total", Label{"site", "0"}).Add(7)
	r.Counter("repl_txn_committed_total", Label{"site", "1"}).Add(3)
	r.Gauge("repl_queue_depth", Label{"site", "0"}, Label{"queue", "fifo"}).Set(4)
	h := r.Histogram("repl_comm_send_latency_seconds", Label{"from", "0"}, Label{"to", "1"})
	h.Observe(150 * time.Microsecond)
	h.Observe(3 * time.Second) // lands in +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE repl_txn_committed_total counter",
		`repl_txn_committed_total{site="0"} 7`,
		`repl_txn_committed_total{site="1"} 3`,
		"# TYPE repl_queue_depth gauge",
		`repl_queue_depth{queue="fifo",site="0"} 4`,
		"# TYPE repl_comm_send_latency_seconds histogram",
		`repl_comm_send_latency_seconds_bucket{from="0",to="1",le="+Inf"} 2`,
		`repl_comm_send_latency_seconds_count{from="0",to="1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the 150µs observation appears in every
	// bucket from 256µs up.
	if !strings.Contains(out, `le="0.000256"} 1`) {
		t.Errorf("cumulative bucket missing:\n%s", out)
	}
}

// TestExportGaugeReadsAtScrape checks an exported gauge is its owner's
// read, taken at every scrape, and that a later export of the same series
// replaces the earlier one.
func TestExportGaugeReadsAtScrape(t *testing.T) {
	r := NewRegistry()
	key := `repl_queue_depth{queue="fifo",site="1"}`
	old := int64(176)
	r.ExportGauge(func() int64 { return old }, "repl_queue_depth", Label{"site", "1"}, Label{"queue", "fifo"})
	if got := r.Snapshot()[key]; got != 176 {
		t.Fatalf("exported gauge = %d, want 176", got)
	}
	old = 3
	if got := r.Snapshot()[key]; got != 3 {
		t.Fatalf("exported gauge = %d after the level moved, want 3", got)
	}
	fresh := int64(0)
	r.ExportGauge(func() int64 { return fresh }, "repl_queue_depth", Label{"queue", "fifo"}, Label{"site", "1"})
	if got := r.Snapshot()[key]; got != 0 {
		t.Fatalf("re-exported gauge = %d, want the new owner's 0", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := key + " 0\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition misses %q:\n%s", want, sb.String())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := &Histogram{}
	h.Observe(500 * time.Nanosecond) // below first bound -> bucket 0
	h.Observe(time.Microsecond)      // == first bound -> bucket 0
	h.Observe(3 * time.Second)       // beyond last bound -> +Inf
	h.Observe(-time.Second)          // ignored
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("bucket0 = %d", got)
	}
	if got := h.counts[numBuckets].Load(); got != 1 {
		t.Fatalf("+Inf = %d", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("repl_txn_committed_total", Label{"site", "0"}).Add(2)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `repl_txn_committed_total{site="0"} 2`) {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "repl_txn_committed_total") {
		t.Errorf("/debug/vars: %d\n%s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d\n%s", code, body)
	}
}

func TestConcurrentRegistryUse(t *testing.T) {
	r := NewRegistry()
	cs := NewCommStats(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("c_total", Label{"site", "0"})
			for i := 0; i < 200; i++ {
				c.Inc()
				r.Gauge("g", Label{"i", "x"}).Add(1)
				cs.CommSent(0, 1, 100)
				cs.CommLatency(0, 1, time.Duration(g+1)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", Label{"site", "0"}).Value(); got != 1600 {
		t.Fatalf("counter = %d", got)
	}
	snap := r.Snapshot()
	if snap[`repl_comm_messages_total{from="0",to="1"}`] != 1600 {
		t.Fatalf("comm messages = %v", snap)
	}
	if snap[`repl_comm_bytes_total{from="0",to="1"}`] != 160000 {
		t.Fatalf("comm bytes = %v", snap)
	}
}

func TestCommStatsWithNilRegistry(t *testing.T) {
	cs := NewCommStats(nil)
	cs.CommSent(0, 1, 10)
	cs.CommLatency(0, 1, time.Millisecond)
	cs.CommLatency(1, 0, -1) // unknown latency must be dropped, not panic
}
