package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fresh"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// freshPoint runs one small seeded cluster with the trace recorder and
// registry attached and returns the three freshness surfaces the
// observatory must keep in agreement: the ReadCertificate trace tags,
// the repl_read_staleness_* registry counters, and the cluster's
// FreshSummary.
func freshPoint(t *testing.T, proto core.Protocol, seed int64) (freshTags, staleTags int64, snap map[string]int64, sum *fresh.Summary) {
	t.Helper()
	wl := workload.Default()
	wl.TxnsPerThread = 40
	wl.Seed = seed
	if !proto.Propagates() || proto == core.DAGWT || proto == core.DAGT {
		wl.BackedgeProb = 0
	}
	params := core.DefaultParams()
	params.OpCost = 20 * time.Microsecond
	rec := trace.NewRecorder()
	registry := obs.NewRegistry()
	c, err := New(Config{
		Workload:         wl,
		Protocol:         proto,
		Params:           params,
		Latency:          time.Millisecond,
		TrackPropagation: true,
		Trace:            rec,
		Obs:              registry,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", proto, err)
	}
	c.Start()
	defer c.Stop()
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run(%v): %v", proto, err)
	}
	if err := c.Quiesce(time.Minute); err != nil {
		t.Fatalf("Quiesce(%v): %v", proto, err)
	}
	for _, ev := range rec.Snapshot() {
		if ev.Kind != trace.ReadCertificate {
			continue
		}
		if ev.Phase == "stale" {
			staleTags++
		} else {
			freshTags++
		}
	}
	return freshTags, staleTags, registry.Snapshot(), c.FreshSummary()
}

// coveragePct is the share of read operations (repl_txn_reads_total,
// counted independently of the tracker) that issued a certificate.
func coveragePct(snap map[string]int64, s *fresh.Summary) float64 {
	reads := familySum(snap, "repl_txn_reads_total")
	if reads == 0 {
		return 0
	}
	return 100 * float64(s.Reads()) / float64(reads)
}

// TestEagerVsLazyReadStaleness is the observatory's ground-truth check,
// one seed, two engines: PSL reads observe the primary copy by
// construction, so every surface must report zero read staleness; DAG(WT)
// reads observe replicas that lag the primary, so under the same seed
// every surface must report some — and all three surfaces must agree
// with each other exactly.
func TestEagerVsLazyReadStaleness(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const seed = 7

	freshTags, staleTags, snap, sum := freshPoint(t, core.PSL, seed)
	if freshTags == 0 {
		t.Fatal("PSL: no fresh read certificates in the trace")
	}
	if staleTags != 0 {
		t.Errorf("PSL: %d stale certificates in trace, want 0 (reads observe the primary)", staleTags)
	}
	if got := familySum(snap, "repl_read_staleness_stale_total"); got != 0 {
		t.Errorf("PSL: repl_read_staleness_stale_total = %d, want 0", got)
	}
	if got := familySum(snap, "repl_read_staleness_fresh_total"); got == 0 {
		t.Error("PSL: repl_read_staleness_fresh_total is 0; certificates not wired")
	}
	if sum == nil {
		t.Fatal("PSL: no freshness summary")
	}
	if sum.StaleReadPct() != 0 || sum.ReadsStale != 0 {
		t.Errorf("PSL: summary reports staleness: %+v", sum)
	}
	if cov := coveragePct(snap, sum); cov < 95 {
		t.Errorf("PSL: certificate coverage %.1f%%, want >=95%%", cov)
	}

	freshTags, staleTags, snap, sum = freshPoint(t, core.DAGWT, seed)
	if staleTags == 0 {
		t.Fatal("DAG(WT): no stale read certificates in trace under 1ms propagation latency")
	}
	staleCtr := familySum(snap, "repl_read_staleness_stale_total")
	if staleCtr == 0 {
		t.Error("DAG(WT): repl_read_staleness_stale_total is 0")
	}
	if sum == nil {
		t.Fatal("DAG(WT): no freshness summary")
	}
	if sum.StaleReadPct() == 0 || sum.ReadsStale == 0 {
		t.Errorf("DAG(WT): summary reports zero staleness: %+v", sum)
	}
	// The three surfaces count the same certificates.
	if staleTags != staleCtr || staleCtr != int64(sum.ReadsStale) {
		t.Errorf("stale counts disagree: trace=%d obs=%d summary=%d", staleTags, staleCtr, sum.ReadsStale)
	}
	if freshCtr := familySum(snap, "repl_read_staleness_fresh_total"); freshTags != freshCtr || freshCtr != int64(sum.ReadsFresh) {
		t.Errorf("fresh counts disagree: trace=%d obs=%d summary=%d", freshTags, freshCtr, sum.ReadsFresh)
	}
	if cov := coveragePct(snap, sum); cov < 95 {
		t.Errorf("DAG(WT): certificate coverage %.1f%%, want >=95%%", cov)
	}
	if sum.Applies == 0 || sum.VersionLag.P95 == 0 {
		t.Errorf("DAG(WT): replica staleness distribution empty: %+v", sum)
	}
}
