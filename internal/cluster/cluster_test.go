package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fastParams returns protocol parameters scaled down for test speed while
// keeping the same relative magnitudes as Table 1.
func fastParams() core.Params {
	return core.Params{
		LockTimeout:    20 * time.Millisecond,
		PrepareTimeout: 200 * time.Millisecond,
		EpochPeriod:    5 * time.Millisecond,
		DummyPeriod:    3 * time.Millisecond,
		OpCost:         0,
		RPCTimeout:     100 * time.Millisecond,
	}
}

func smallWorkload() workload.Config {
	wl := workload.Default()
	wl.Sites = 5
	wl.Items = 60
	wl.ThreadsPerSite = 2
	wl.TxnsPerThread = 40
	return wl
}

// runAndCheck runs a full cluster lifecycle and applies the correctness
// checks appropriate for the protocol.
func runAndCheck(t *testing.T, cfg Config) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Committed == 0 {
		t.Fatalf("no transactions committed: %+v", rep)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if cfg.Protocol.Serializable() {
		if err := c.CheckSerializable(); err != nil {
			t.Errorf("serializability violated: %v", err)
		}
	}
	if cfg.Protocol.Propagates() && cfg.Protocol.Serializable() {
		if err := c.CheckConvergence(); err != nil {
			t.Errorf("convergence violated: %v", err)
		}
	}
	t.Logf("%v: %v", cfg.Protocol, rep)
}

func TestClusterProtocolsSmallWorkload(t *testing.T) {
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
		{core.BackEdge, 1.0},
	}
	for _, pc := range protos {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.BackedgeProb = pc.backedge
			runAndCheck(t, Config{
				Workload:         wl,
				Protocol:         pc.proto,
				Params:           fastParams(),
				Latency:          100 * time.Microsecond,
				Record:           true,
				TrackPropagation: true,
			})
		})
	}
}

func TestClusterDAGProtocolRejectsCyclicGraph(t *testing.T) {
	wl := smallWorkload()
	wl.BackedgeProb = 1
	wl.ReplicationProb = 1
	for _, proto := range []core.Protocol{core.DAGWT, core.DAGT} {
		if _, err := New(Config{Workload: wl, Protocol: proto, Params: fastParams()}); err == nil {
			t.Errorf("%v accepted a cyclic copy graph", proto)
		}
	}
}

func TestClusterGeneralTree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.BackedgeProb = 0
	runAndCheck(t, Config{
		Workload:    wl,
		Protocol:    core.DAGWT,
		Params:      fastParams(),
		Latency:     100 * time.Microsecond,
		GeneralTree: true,
		Record:      true,
	})
}

func TestClusterWithJitterStaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.BackedgeProb = 0
	runAndCheck(t, Config{
		Workload: wl,
		Protocol: core.DAGT,
		Params:   fastParams(),
		Latency:  100 * time.Microsecond,
		Jitter:   2 * time.Millisecond,
		Record:   true,
	})
}

// TestClusterQuiesceTimeout holds one real forward open behind a
// partition: Quiesce must time out while it is open, and return once the
// heal lets the reliable sublayer's retransmission deliver it.
func TestClusterQuiesceTimeout(t *testing.T) {
	// Item 0: primary s0, replica s1, the one edge of the chain.
	p := model.NewPlacement(2, 1)
	p.Primary = []model.SiteID{0}
	p.Replicas = [][]model.SiteID{{1}}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	c, err := New(Config{
		Workload: wl, Protocol: core.DAGWT, Params: fastParams(), Placement: p,
		Fault: &fault.Config{Seed: 1}, Reliable: true, // partitions only
		WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	// Nothing in flight: quiesce must return immediately.
	if err := c.Quiesce(time.Second); err != nil {
		t.Fatalf("quiesce on idle cluster: %v", err)
	}
	c.Fault().Partition(0, 1)
	if err := c.Engine(0).Execute([]model.Op{{Kind: model.OpWrite, Item: 0, Value: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(50 * time.Millisecond); err == nil {
		t.Fatal("quiesced with the forward to s1 cut off")
	}
	c.Fault().Heal(0, 1)
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce after the heal: %v", err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFaultContract: New enforces the engines' exactly-once
// delivery assumption, so random drops or duplicates need Reliable, and
// delays alone do not; and a fault layer, which can crash a site, needs
// a redo log per site, whatever its fault mix.
func TestClusterFaultContract(t *testing.T) {
	rows := []struct {
		name     string
		faults   *fault.Faults
		reliable bool
		noWAL    bool
		ok       bool
	}{
		{"drop", &fault.Faults{Drop: 0.05}, false, false, false},
		{"duplicate", &fault.Faults{Duplicate: 0.05}, false, false, false},
		{"drop over Reliable", &fault.Faults{Drop: 0.05}, true, false, true},
		{"duplicate over Reliable", &fault.Faults{Duplicate: 0.05}, true, false, true},
		{"delay only", &fault.Faults{Delay: 0.5, DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond}, false, false, true},
		{"no faults", &fault.Faults{}, false, false, true},
		{"no fault layer", nil, false, false, true},
		{"drop over Reliable without WALDir", &fault.Faults{Drop: 0.05}, true, true, false},
		{"no faults without WALDir", &fault.Faults{}, false, true, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			wl := smallWorkload()
			wl.TxnsPerThread = 0
			wl.BackedgeProb = 0
			cfg := Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams(), Reliable: row.reliable}
			if !row.noWAL {
				cfg.WALDir = t.TempDir()
			}
			if row.faults != nil {
				cfg.Fault = &fault.Config{Seed: 1, Faults: *row.faults}
			}
			c, err := New(cfg)
			if (err == nil) != row.ok {
				t.Fatalf("New: %v, want accepted = %v", err, row.ok)
			}
			if c != nil {
				c.Stop()
			}
		})
	}
}

// TestClusterNewClosesLogsOnFailure: when a later site's log cannot be
// opened, New closes the logs it already opened and the transport stack
// it built (the reliable sublayer's retransmitter included).
func TestClusterNewClosesLogsOnFailure(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open descriptors")
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	// A regular file where site 3's log directory should be.
	if err := os.WriteFile(filepath.Join(dir, "site-03"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	wl.BackedgeProb = 0
	fds, goroutines := openFDs(), runtime.NumGoroutine()
	if _, err := New(Config{
		Workload: wl, Protocol: core.DAGWT, Params: fastParams(),
		Fault: &fault.Config{Seed: 1}, Reliable: true, WALDir: dir,
	}); err == nil {
		t.Fatal("New opened a log over a regular file")
	}
	if after := openFDs(); after != fds {
		t.Fatalf("open descriptors %d before the failed New, %d after", fds, after)
	}
	// A goroutine that exits on Close may still be on its way out.
	pollFor(t, time.Second, func() bool { return runtime.NumGoroutine() <= goroutines },
		"the goroutines the failed New started to exit")
}

func TestClusterConvergenceUndefinedForPSL(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	c, err := New(Config{Workload: wl, Protocol: core.PSL, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err == nil {
		t.Fatal("expected convergence to be rejected for PSL")
	}
}

func TestClusterSerializabilityRequiresRecording(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	wl.BackedgeProb = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckSerializable(); err == nil {
		t.Fatal("expected an error without recording enabled")
	}
}

func TestClusterBackEdgeRejectsTreeWithoutAncestorTargets(t *testing.T) {
	// Item 0: primary s1, replica s0 — a backedge whose target s0 is not
	// reachable from anywhere in the remaining DAG. The chain makes s0 an
	// ancestor of s1 by construction, but the bushy tree leaves them in
	// separate components, which BackEdge routing cannot serve.
	p := model.NewPlacement(3, 3)
	p.Primary = []model.SiteID{1, 0, 2}
	p.Replicas = [][]model.SiteID{{0}, nil, nil}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	base := Config{Workload: wl, Protocol: core.BackEdge, Params: fastParams(), Placement: p}

	chainCfg := base
	if _, err := New(chainCfg); err != nil {
		t.Errorf("chain variant must accept this placement: %v", err)
	}
	treeCfg := base
	treeCfg.GeneralTree = true
	if _, err := New(treeCfg); err == nil {
		t.Error("bushy tree with an unroutable backedge was accepted")
	}
}

func TestClusterMinimizeBackedges(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.BackedgeProb = 0.6
	wl.ReplicationProb = 0.5

	ordered, err := New(Config{Workload: wl, Protocol: core.BackEdge, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	minimized, err := New(Config{
		Workload: wl, Protocol: core.BackEdge, Params: fastParams(),
		MinimizeBackedges: true,
		Latency:           100 * time.Microsecond,
		Record:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The §4.2 heuristic must never cut MORE weight than the naive
	// ID-order split.
	w := func(c *Cluster) int {
		return graph.TotalWeight(graph.FromPlacement(c.Placement), c.Backedges)
	}
	if w(minimized) > w(ordered) {
		t.Errorf("FAS heuristic cut weight %d, ID order only %d", w(minimized), w(ordered))
	}
	// And the minimized cluster still runs correctly end to end.
	minimized.Start()
	defer minimized.Stop()
	rep, err := minimized.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if err := minimized.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := minimized.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	if err := minimized.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	t.Logf("backedge weight: id-order=%d minimized=%d", w(ordered), w(minimized))
}

func TestClusterAccessors(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	wl.BackedgeProb = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine(0) == nil || c.Engine(0).Site() != 0 {
		t.Error("Engine accessor broken")
	}
	if c.Transport() == nil {
		t.Error("Transport accessor broken")
	}
	if c.Tree == nil || c.DAG == nil || c.Placement == nil {
		t.Error("derived structures not exposed")
	}
}

func TestClusterManualPlacementAdoptsDimensions(t *testing.T) {
	p := model.NewPlacement(2, 1)
	p.Primary[0] = 0
	p.Replicas[0] = []model.SiteID{1}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload() // says 5 sites / 60 items; the placement overrides
	wl.TxnsPerThread = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams(), Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.Workload.Sites != 2 || c.Cfg.Workload.Items != 1 {
		t.Errorf("workload dims not adopted: %d sites, %d items",
			c.Cfg.Workload.Sites, c.Cfg.Workload.Items)
	}
}

// TestReadOnlyCommitSkipsLog: on every engine over a WAL, a read-only
// primary transaction appends nothing to any site's log, and an update
// transaction does append.
func TestReadOnlyCommitSkipsLog(t *testing.T) {
	p := model.NewPlacement(2, 1)
	p.Primary[0] = 0
	p.Replicas[0] = []model.SiteID{1}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	params := fastParams()
	params.EpochPeriod = time.Hour // no DAG(T) epoch records mid-test
	for _, proto := range []core.Protocol{core.PSL, core.DAGWT, core.DAGT, core.BackEdge, core.NaiveLazy} {
		t.Run(proto.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			wl := smallWorkload()
			wl.TxnsPerThread = 0
			c, err := New(Config{Workload: wl, Protocol: proto, Params: params, Placement: p,
				Obs: reg, WALDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()
			appends := func() int64 { return familySum(reg.Snapshot(), "repl_wal_appends_total") }

			before := appends()
			if err := c.Engine(0).Execute([]model.Op{{Kind: model.OpRead, Item: 0}}); err != nil {
				t.Fatalf("read-only Execute: %v", err)
			}
			if got := appends(); got != before {
				t.Errorf("read-only Execute appended %d WAL records, want 0", got-before)
			}
			if err := c.Engine(0).Execute([]model.Op{{Kind: model.OpWrite, Item: 0, Value: 1}}); err != nil {
				t.Fatalf("update Execute: %v", err)
			}
			if appends() == before {
				t.Error("update Execute appended no WAL record")
			}
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterRunPropagatesWorkloadErrors(t *testing.T) {
	wl := smallWorkload()
	wl.Items = 2 // fewer items than sites
	if _, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()}); err == nil {
		t.Fatal("expected workload validation error")
	}
	var cfgErr error = errors.New("x")
	_ = cfgErr
}

// TestIdleClusterHeap pins that a cluster's queues cost what they hold,
// not their bound: building and starting a 9-site Table 1 cluster that
// has sent nothing grows the live heap by well under what preallocated
// 65 536-slot engine queues would take (about 9 MB per site).
func TestIdleClusterHeap(t *testing.T) {
	const limit = 16 << 20
	for _, pc := range []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.DAGWT, 0},
		{core.PSL, 0.2},
	} {
		t.Run(pc.proto.String(), func(t *testing.T) {
			wl := workload.Default()
			wl.BackedgeProb = pc.backedge
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			c, err := New(Config{Workload: wl, Protocol: pc.proto, Params: core.DefaultParams()})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()
			runtime.GC()
			runtime.ReadMemStats(&after)
			grew := int64(after.HeapInuse) - int64(before.HeapInuse)
			t.Logf("HeapInuse grew %.1f MB", float64(grew)/(1<<20))
			if grew >= limit {
				t.Errorf("idle %v cluster grew HeapInuse by %.1f MB, want < %d MB",
					pc.proto, float64(grew)/(1<<20), limit>>20)
			}
		})
	}
}

// TestClusterSnapshotReadersSerializable: with most transactions
// read-only and every replica placed, DAG(WT) and DAG(T) sites serve their
// readers from pinned install points while the appliers commit around
// them; the recorded history stays serializable and the replicas
// converge. Run it under -race.
func TestClusterSnapshotReadersSerializable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, proto := range []core.Protocol{core.DAGWT, core.DAGT} {
		t.Run(proto.String(), func(t *testing.T) {
			wl := smallWorkload()
			wl.BackedgeProb = 0
			wl.ReplicationProb = 1
			wl.ReadTxnProb = 0.7
			wl.ThreadsPerSite = 3
			runAndCheck(t, Config{
				Workload: wl,
				Protocol: proto,
				Params:   fastParams(),
				Latency:  100 * time.Microsecond,
				Record:   true,
			})
		})
	}
}
