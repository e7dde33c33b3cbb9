package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// chaosSeed fixes every random choice in the chaos runs: the fault
// layer's per-edge drop/duplicate/delay streams and the generated
// partition/crash schedule. Reruns with the same seed see the same fault
// schedule byte-for-byte (asserted below).
const chaosSeed int64 = 77

func chaosFaults() fault.Faults {
	return fault.Faults{
		Drop:      0.08, // ≥5% random message loss
		Duplicate: 0.04,
		Delay:     0.05,
		DelayMin:  500 * time.Microsecond,
		DelayMax:  3 * time.Millisecond,
	}
}

// runChaos drives one protocol through wl on the
// engine → Reliable → fault → MemTransport stack while a seeded schedule,
// spread over window, cuts a partition (and heals it) and crashes a site
// (and restarts it). Every site runs over a write-ahead redo log, so the
// crash is honest: the site's heap dies with it and the restart rebuilds
// the engine from its WAL directory (snapshot + redo replay + decision
// inquiry). The reliable sublayer must make the protocol oblivious: zero
// serializability violations and, for propagating protocols, full replica
// convergence after quiescing. A non-nil rec traces the run, is saved as
// an artifact if the test fails, and must show every crashed site's
// recovery; runChaos returns its events once the cluster has quiesced.
func runChaos(t *testing.T, proto core.Protocol, wl workload.Config, window time.Duration, rec *trace.Recorder) []trace.Event {
	t.Helper()
	if rec != nil {
		saveChaosArtifacts(t, rec)
	}
	reg := obs.NewRegistry()
	c, err := New(Config{
		Workload: wl,
		Protocol: proto,
		Params:   fastParams(),
		Latency:  100 * time.Microsecond,
		Record:   true,
		Trace:    rec,
		Obs:      reg,
		Fault:    &fault.Config{Seed: chaosSeed, Faults: chaosFaults()},
		Reliable: true,
		WALDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()

	// One partition-and-heal plus one crash-and-restart, deterministically
	// placed inside the run window; the same seed must reproduce the same
	// schedule byte-for-byte.
	sched := fault.Generate(chaosSeed, wl.Sites, window)
	if again := fault.Generate(chaosSeed, wl.Sites, window); again.String() != sched.String() {
		t.Fatalf("schedule not reproducible:\n%s\nvs\n%s", sched, again)
	}
	var player sync.WaitGroup
	player.Add(1)
	go func() {
		defer player.Done()
		c.Fault().Play(sched)
	}()

	rep, err := c.Run()
	if err != nil {
		t.Fatalf("Run under chaos: %v", err)
	}
	if rep.Committed == 0 {
		t.Fatalf("no transactions committed under chaos: %+v", rep)
	}
	// Let the schedule finish (partition healed, site restarted) before
	// demanding the network drain.
	player.Wait()
	if err := c.Quiesce(120 * time.Second); err != nil {
		t.Fatalf("Quiesce under chaos: %v", err)
	}

	if proto.Serializable() {
		if err := c.CheckSerializable(); err != nil {
			t.Errorf("serializability violated under chaos: %v", err)
			// Explain the cycle: every observation touching its members.
			if cyc := c.Recorder.BuildGraph().FindCycle(); cyc != nil {
				for _, line := range c.Recorder.Involving(cyc...) {
					t.Logf("  %s", line)
				}
			}
		}
	}
	if proto.Propagates() && proto.Serializable() {
		if err := c.CheckConvergence(); err != nil {
			t.Errorf("replicas diverged under chaos: %v", err)
		}
	}

	// The chaos was real and the counters saw it: faults fired, and the
	// sublayer had to retransmit to hide them.
	snap := reg.Snapshot()
	sum := func(prefix string) (n int64) {
		for k, v := range snap {
			if strings.HasPrefix(k, prefix) {
				n += v
			}
		}
		return n
	}
	if sum("repl_fault_dropped_total") == 0 {
		t.Error("no messages dropped — fault layer inert?")
	}
	if sum("repl_reliable_retransmits_total") == 0 {
		t.Error("no retransmissions — reliable sublayer inert?")
	}
	if sum("repl_fault_crashes_total") == 0 || sum("repl_fault_partition_cuts_total") == 0 {
		t.Error("schedule did not register its crash/partition")
	}
	// The crash was honest: the site logged its work, lost its heap, and
	// was rebuilt by replaying the log.
	if sum("repl_wal_appends_total") == 0 {
		t.Error("no WAL appends — redo logging inert?")
	}
	if sum("repl_fault_restarts_total") == 0 {
		t.Error("schedule did not restart the crashed site")
	}
	if sum("repl_wal_replayed_total") == 0 {
		t.Error("restart replayed no redo records — recovery inert?")
	}
	t.Logf("%v under chaos: %v; dropped=%d retransmits=%d dup_dropped=%d wal_appends=%d wal_replayed=%d",
		proto, rep, sum("repl_fault_dropped_total"),
		sum("repl_reliable_retransmits_total"), sum("repl_reliable_dup_dropped_total"),
		sum("repl_wal_appends_total"), sum("repl_wal_replayed_total"))

	// Every site the schedule crashed was rebuilt from its log.
	events := rec.Snapshot()
	recovered := make(map[model.SiteID]bool)
	for _, ev := range events {
		if ev.Kind == trace.WALRecover {
			recovered[ev.Site] = true
		}
	}
	for _, ev := range events {
		if ev.Kind == trace.SiteCrash && !recovered[ev.Site] {
			t.Errorf("s%d crashed but left no WALRecover event", ev.Site)
		}
	}
	return events
}

// TestChaosAllProtocols is the acceptance gate: all five engines survive
// the same seeded chaos (drops, duplicates, delays, a partition-and-heal,
// a crash-and-restart) unmodified, because the reliable sublayer
// manufactures the §1.1 network contract they assume.
func TestChaosAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test")
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
			wl.BackedgeProb = pc.backedge
			runChaos(t, pc.proto, wl, 1500*time.Millisecond, nil)
		})
	}
}
