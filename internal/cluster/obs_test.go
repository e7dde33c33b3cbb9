package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// familySum adds up every sample of one metric family in a registry
// snapshot (summing a counter over its label sets, e.g. over sites).
func familySum(snap map[string]int64, family string) int64 {
	var sum int64
	for k, v := range snap {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}

// TestTracedBackEdgeCrossCheck is the end-to-end acceptance run: a 9-site
// BackEdge cluster traced from commit to every replica application. The
// trace must survive a JSONL round trip, BuildSpanTrees must reconstruct
// each committed transaction's complete span tree, the trace-derived
// p95 propagation delay must agree with the metrics collector's, and the
// live registry's counters must match the report exactly.
func TestTracedBackEdgeCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.Sites = 9
	wl.Items = 120
	wl.BackedgeProb = 0.2

	rec := trace.NewRecorder()
	reg := obs.NewRegistry()
	c, err := New(Config{
		Workload:         wl,
		Protocol:         core.BackEdge,
		Params:           fastParams(),
		Latency:          100 * time.Microsecond,
		TrackPropagation: true,
		Trace:            rec,
		Obs:              reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	// Snapshot after the drain so the report covers the same propagation
	// work the trace and registry saw.
	rep := c.Metrics.Snapshot(wl.Sites)

	// JSONL round trip.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(events) != rec.Len() {
		t.Fatalf("round trip lost events: wrote %d, read %d", rec.Len(), len(events))
	}

	// Every committed transaction's span tree must be complete and
	// causally intact: each site that applied it appears in the tree.
	if problems := trace.VerifySpans(events); len(problems) != 0 {
		t.Fatalf("span integrity: %d problems, first: %s", len(problems), problems[0])
	}
	trees := trace.BuildSpanTrees(events)
	committed := make(map[model.TxnID]bool)
	applies := make(map[model.TxnID][]model.SiteID)
	for _, ev := range events {
		switch ev.Kind {
		case trace.TxnCommit:
			committed[ev.TID] = true
		case trace.SecondaryApplied:
			applies[ev.TID] = append(applies[ev.TID], ev.Site)
		}
	}
	var propagated int
	for tid := range committed {
		if len(applies[tid]) == 0 {
			continue
		}
		tr := trees[tid]
		if tr == nil || tr.Root == nil {
			t.Fatalf("txn %v committed and applied but has no rooted span tree", tid)
		}
		inTree := make(map[model.SiteID]bool)
		for _, n := range tr.Nodes {
			if n.Has(trace.SecondaryApplied) {
				inTree[n.Site] = true
			}
		}
		for _, s := range applies[tid] {
			if !inTree[s] {
				t.Fatalf("txn %v span tree misses applying site s%d\n%s", tid, s, tr.Structure())
			}
		}
		propagated++
	}
	if propagated == 0 {
		t.Fatal("no committed transaction propagated to any replica; workload too small to exercise tracing")
	}

	// Trace-derived p95 propagation delay must agree with the collector's
	// (both measure commit-to-apply, on independent clock reads; allow
	// scheduling noise).
	delays := trace.PropDelays(events)[uint8(core.BackEdge)]
	if len(delays) < 20 {
		t.Fatalf("only %d propagation samples in trace", len(delays))
	}
	traceP95 := trace.Quantile(delays, 0.95)
	repP95 := rep.P95PropDelay
	hi := traceP95
	if repP95 > hi {
		hi = repP95
	}
	diff := traceP95 - repP95
	if diff < 0 {
		diff = -diff
	}
	if tol := hi*2/5 + 15*time.Millisecond; diff > tol {
		t.Errorf("p95 propagation delay disagrees: trace=%v report=%v (diff %v > tol %v)",
			traceP95, repP95, diff, tol)
	}

	// The live registry and the run report count the same events.
	snap := reg.Snapshot()
	if got := familySum(snap, "repl_txn_committed_total"); got != int64(rep.Committed) {
		t.Errorf("registry committed = %d, report = %d", got, rep.Committed)
	}
	if got := familySum(snap, "repl_secondary_applied_total"); got != int64(rep.Secondaries) {
		t.Errorf("registry applied = %d, report secondaries = %d", got, rep.Secondaries)
	}
	if got := familySum(snap, "repl_queue_depth"); got != 0 {
		t.Errorf("queue depths nonzero after quiesce: %d", got)
	}
	if familySum(snap, "repl_comm_bytes_total") == 0 {
		t.Error("no communication bytes recorded")
	}
}

// TestObservedProtocolsRace drives all five protocols with the trace
// recorder and live registry attached; under -race this is the detector
// run for the whole observability path (engines, transport stats,
// recorder shards, registry handles).
func TestObservedProtocolsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	protos := []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.PSL, 0.2},
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.2},
		{core.NaiveLazy, 0},
	}
	for _, pc := range protos {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.ThreadsPerSite = 3
			wl.TxnsPerThread = 25
			wl.BackedgeProb = pc.backedge
			rec := trace.NewRecorder()
			reg := obs.NewRegistry()
			c, err := New(Config{
				Workload: wl,
				Protocol: pc.proto,
				Params:   fastParams(),
				Latency:  100 * time.Microsecond,
				Trace:    rec,
				Obs:      reg,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c.Start()
			defer c.Stop()
			rep, err := c.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := c.Quiesce(30 * time.Second); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			if rep.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if rec.Len() == 0 {
				t.Fatal("no trace events recorded")
			}
			if familySum(reg.Snapshot(), "repl_txn_committed_total") != int64(rep.Committed) {
				t.Error("registry disagrees with report on commits")
			}
			// Phase attribution: every engine commits through the txn
			// manager, propagating engines time transport, and only the
			// 2PC protocol has vote legs.
			for _, phase := range []string{"lock_wait", "apply"} {
				if rep.Phases[phase].Count == 0 {
					t.Errorf("phase %s has no samples", phase)
				}
			}
			if pc.proto.Propagates() && rep.Phases["transport"].Count == 0 {
				t.Error("propagating protocol recorded no transport samples")
			}
			if _, vote := rep.Phases["2pc_vote"]; vote != (pc.proto == core.BackEdge) {
				t.Errorf("2pc_vote present=%v, want %v", vote, pc.proto == core.BackEdge)
			}
		})
	}
}

// scrape fetches /metrics and returns the summed value of each family —
// what a Prometheus server would see.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[name] += v
	}
	return out
}

// TestMetricsEndpointUnderLoad serves a live cluster's registry the way
// cmd/replnode's -obs flag does and verifies that the scraped per-site
// commit, queue-depth and communication series appear and move under
// load.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	reg := obs.NewRegistry()
	wl := smallWorkload()
	wl.TxnsPerThread = 30
	wl.BackedgeProb = 0
	c, err := New(Config{
		Workload: wl,
		Protocol: core.DAGWT,
		Params:   fastParams(),
		Latency:  100 * time.Microsecond,
		Obs:      reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	before := scrape(t, srv.URL)
	if before["repl_protocol_info"] != 1 {
		t.Fatalf("repl_protocol_info = %v before load", before["repl_protocol_info"])
	}
	if before["repl_txn_committed_total"] != 0 {
		t.Fatalf("commits nonzero before load: %v", before)
	}

	c.Start()
	defer c.Stop()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}

	after := scrape(t, srv.URL)
	if got := after["repl_txn_committed_total"]; got != float64(rep.Committed) {
		t.Errorf("scraped commits = %v, report = %d", got, rep.Committed)
	}
	if after["repl_comm_bytes_total"] <= before["repl_comm_bytes_total"] {
		t.Error("comm bytes did not grow under load")
	}
	if after["repl_comm_messages_total"] == 0 {
		t.Error("no messages scraped")
	}
	if _, ok := after["repl_queue_depth"]; !ok {
		t.Error("queue depth series missing from exposition")
	}
	if after["repl_secondary_applied_total"] == 0 {
		t.Error("no secondary applications scraped")
	}

	// The expvar endpoint serves the same registry.
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "repl_txn_committed_total") {
		t.Error("expvar output misses the registry")
	}
}
