package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fresh"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// freshPoint runs one small seeded cluster and returns its
// FreshSummary, the one surface read certificates land on.
func freshPoint(t *testing.T, proto core.Protocol, seed int64) *fresh.Summary {
	t.Helper()
	wl := workload.Default()
	wl.TxnsPerThread = 40
	wl.Seed = seed
	if !proto.Propagates() || proto == core.DAGWT || proto == core.DAGT {
		wl.BackedgeProb = 0
	}
	params := core.DefaultParams()
	params.OpCost = 20 * time.Microsecond
	c, err := New(Config{
		Workload:         wl,
		Protocol:         proto,
		Params:           params,
		Latency:          time.Millisecond,
		TrackPropagation: true,
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
	return c.FreshSummary()
}

// TestEagerVsLazyReadStaleness is the observatory's ground-truth check,
// one seed, two engines: PSL reads observe the primary copy by
// construction, so the summary must report zero read staleness; DAG(WT)
// reads observe replicas that lag the primary, so under the same seed it
// must report some.
func TestEagerVsLazyReadStaleness(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const seed = 7

	sum := freshPoint(t, core.PSL, seed)
	if sum == nil {
		t.Fatal("PSL: no freshness summary")
	}
	if sum.ReadsFresh == 0 {
		t.Error("PSL: no fresh read certificates; certificates not wired")
	}
	if sum.StaleReadPct() != 0 || sum.ReadsStale != 0 {
		t.Errorf("PSL: summary reports staleness: %+v", sum)
	}

	sum = freshPoint(t, core.DAGWT, seed)
	if sum == nil {
		t.Fatal("DAG(WT): no freshness summary")
	}
	if sum.StaleReadPct() == 0 || sum.ReadsStale == 0 {
		t.Errorf("DAG(WT): no stale read certificates under 1ms propagation latency: %+v", sum)
	}
	if sum.Applies == 0 || sum.VersionLag.P95 == 0 {
		t.Errorf("DAG(WT): replica staleness distribution empty: %+v", sum)
	}
}

// TestEveryReadIsCertified counts certificates against the programs
// themselves: one client at a time runs generated programs at each site,
// with a quiesce between programs so nothing contends and every program
// commits, and the tracker must hold exactly one certificate per read
// operation those programs contain. The expected count comes from the
// programs, not from any counter the certifying call bumps, so a read
// path that skips its certificate fails here. The engines' own read
// count, repl_txn_reads_total, must match the programs too.
func TestEveryReadIsCertified(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, pc := range []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.PSL, 0.2},
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.2},
		{core.NaiveLazy, 0},
	} {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.BackedgeProb = pc.backedge
			registry := obs.NewRegistry()
			c, err := New(Config{Workload: wl, Protocol: pc.proto, Params: fastParams(), Latency: 100 * time.Microsecond, Obs: registry})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c.Start()
			defer c.Stop()
			var reads uint64
			for s := 0; s < wl.Sites; s++ {
				site := model.SiteID(s)
				gen := workload.NewTxnGen(wl, c.Placement, site, wl.Seed+int64(s))
				for i := 0; i < 8; i++ {
					ops := gen.Next()
					if err := c.Engine(site).Execute(ops); err != nil {
						t.Fatalf("s%d program %d: %v", site, i, err)
					}
					for _, op := range ops {
						if op.Kind == model.OpRead {
							reads++
						}
					}
					if err := c.Quiesce(time.Minute); err != nil {
						t.Fatal(err)
					}
				}
			}
			if reads == 0 {
				t.Fatal("the programs read nothing")
			}
			if got := c.FreshSummary().Reads(); got != reads {
				t.Errorf("%d read certificates, want one per read op: %d", got, reads)
			}
			if got := familySum(registry.Snapshot(), "repl_txn_reads_total"); got != int64(reads) {
				t.Errorf("repl_txn_reads_total = %d, want one per read op: %d", got, reads)
			}
		})
	}
}

// TestTrackerMirrorsPrimaryVersions checks the tracker's one invariant
// against the serializability recorder, which observes installs
// independently: after a quiesced run, every written item's primary
// version — the number of versions its primary installed — certifies
// fresh at the primary, and the version before it exactly one behind. A
// primary commit the tracker misses, or counts twice, fails here.
func TestTrackerMirrorsPrimaryVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, pc := range []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.PSL, 0.2},
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.2},
		{core.NaiveLazy, 0},
	} {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.BackedgeProb = pc.backedge
			c, err := New(Config{Workload: wl, Protocol: pc.proto, Params: fastParams(), Latency: 100 * time.Microsecond, Record: true})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c.Start()
			defer c.Stop()
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if err := c.Quiesce(time.Minute); err != nil {
				t.Fatal(err)
			}
			written := 0
			for i := 0; i < wl.Items; i++ {
				item := model.ItemID(i)
				primary := c.Placement.Primary[item]
				v := uint64(len(c.Recorder.WriteHistory(primary, item)))
				if v == 0 {
					continue
				}
				written++
				if got := c.fresh.CertifyRead(primary, item, v); got.Stale() {
					t.Errorf("item %d: primary version %d certified %d behind, want fresh", item, v, got.Versions)
				}
				if got := c.fresh.CertifyRead(primary, item, v-1); got.Versions != 1 {
					t.Errorf("item %d: version %d certified %d behind, want 1", item, v-1, got.Versions)
				}
			}
			if written == 0 {
				t.Fatal("the run wrote nothing")
			}
		})
	}
}
