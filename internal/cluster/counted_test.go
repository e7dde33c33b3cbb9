package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestCountedOnce holds every engine to "each lifecycle step is counted
// once": whatever surface reads a count — the run report, the engines'
// abort breakdowns, the live registry, the trace — must agree with the
// clients' own tally of Execute returns. Each engine runs twice: bare (no
// registry, no recorder), and observed over per-site redo logs with one
// site crashed and restarted mid-run, so the counts must also survive an
// engine being rebuilt from its log.
func TestCountedOnce(t *testing.T) {
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
		for _, observed := range []bool{false, true} {
			pc, observed := pc, observed
			t.Run(fmt.Sprintf("%v/observed=%v", pc.proto, observed), func(t *testing.T) {
				t.Parallel()
				countedOnce(t, pc.proto, pc.backedge, observed)
			})
		}
	}
}

func countedOnce(t *testing.T, proto core.Protocol, backedge float64, observed bool) {
	wl := smallWorkload()
	wl.ThreadsPerSite = 3
	wl.TxnsPerThread = 30
	wl.BackedgeProb = backedge
	wl.Skew = 2 // a hot spot, so that some transactions abort
	params := fastParams()
	params.OpCost = 20 * time.Microsecond
	cfg := Config{Workload: wl, Protocol: proto, Params: params, Latency: 100 * time.Microsecond}
	var rec *trace.Recorder
	var reg *obs.Registry
	if observed {
		rec, reg = trace.NewRecorder(), obs.NewRegistry()
		cfg.Trace, cfg.Obs = rec, reg
		cfg.WALDir = t.TempDir()
		cfg.Fault = &fault.Config{Seed: 1} // no faults: only the crash below
		cfg.Reliable = true
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()

	// The clients, as Cluster.Run drives them, tallying every Execute.
	total := wl.Sites * wl.ThreadsPerSite * wl.TxnsPerThread
	var attempts, commits atomic.Int64
	crash, restart := make(chan struct{}), make(chan struct{})
	lifecycle := make(chan struct{})
	go func() {
		defer close(lifecycle)
		if !observed {
			return
		}
		<-crash
		c.Fault().Crash(1)
		<-restart
		c.Fault().Restart(1)
	}()
	var wg sync.WaitGroup
	c.Metrics.Begin()
	for s := 0; s < wl.Sites; s++ {
		for th := 0; th < wl.ThreadsPerSite; th++ {
			wg.Add(1)
			go func(site model.SiteID, seed int64) {
				defer wg.Done()
				gen := workload.NewTxnGen(wl, c.Placement, site, seed)
				for i := 0; i < wl.TxnsPerThread; i++ {
					ops := gen.Next()
					for {
						err := c.Engine(site).Execute(ops)
						switch attempts.Add(1) {
						case int64(total / 3):
							close(crash)
						case int64(2 * total / 3):
							close(restart)
						}
						if err == nil {
							commits.Add(1)
							break
						}
						if !errors.Is(err, txn.ErrAborted) {
							t.Errorf("s%d: %v", site, err)
							return
						}
						if !errors.Is(err, wal.ErrFenced) {
							break
						}
						time.Sleep(time.Millisecond) // the site is down: retry into the restart
					}
				}
			}(model.SiteID(s), wl.Seed+int64(s)*1000+int64(th)+7)
		}
	}
	wg.Wait()
	<-lifecycle
	if proto == core.PSL {
		attempts.Add(1)
		outliveLease(t, c, params.RPCTimeout)
	}
	c.Metrics.End()
	if err := c.Quiesce(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Metrics.Snapshot(wl.Sites)

	if rep.Committed != uint64(commits.Load()) {
		t.Errorf("Report.Committed = %d, nil Execute returns = %d", rep.Committed, commits.Load())
	}
	if got := rep.Committed + rep.Aborted; got != uint64(attempts.Load()) {
		t.Errorf("Report.Committed+Aborted = %d, Execute calls = %d", got, attempts.Load())
	}
	reasons := c.AbortReasons()
	var aborts uint64
	for _, n := range reasons {
		aborts += n
	}
	if aborts != rep.Aborted {
		t.Errorf("Σ AbortReasons = %d, Report.Aborted = %d", aborts, rep.Aborted)
	}
	if !observed {
		return
	}
	snap := reg.Snapshot()
	if got := familySum(snap, "repl_txn_committed_total"); got != int64(rep.Committed) {
		t.Errorf("Σ repl_txn_committed_total = %d, Report.Committed = %d", got, rep.Committed)
	}
	if got := familySum(snap, "repl_txn_aborted_total"); got != int64(rep.Aborted) {
		t.Errorf("Σ repl_txn_aborted_total = %d, Report.Aborted = %d", got, rep.Aborted)
	}
	var commitEvents, abortEvents uint64
	tagged := make(map[string]uint64)
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case trace.TxnCommit:
			commitEvents++
		case trace.TxnAbort:
			abortEvents++
			tagged[ev.Phase]++
		}
	}
	if commitEvents != rep.Committed || abortEvents != rep.Aborted {
		t.Errorf("trace: %d TxnCommit, %d TxnAbort; report: %d committed, %d aborted",
			commitEvents, abortEvents, rep.Committed, rep.Aborted)
	}
	// Each reason is counted once too: the banks, the registry and the
	// trace tags agree on every one.
	exported := make(map[string]uint64)
	for k, v := range snap {
		if rest, ok := strings.CutPrefix(k, `repl_txn_abort_reason_total{reason="`); ok {
			exported[rest[:strings.IndexByte(rest, '"')]] += uint64(v)
		}
	}
	for _, r := range contend.Reasons() {
		name := r.String()
		if exported[name] != reasons[name] || tagged[name] != reasons[name] {
			t.Errorf("%s aborts: %d in the registry, %d tagged in the trace, %d in the banks",
				name, exported[name], tagged[name], reasons[name])
		}
	}
	if familySum(snap, "repl_fault_restarts_total") == 0 {
		t.Error("the crashed site was never restarted")
	}
	t.Logf("%v: %d committed, %d aborted %v", proto, rep.Committed, rep.Aborted, reasons)
}

// outliveLease runs one PSL reader, on the cluster gone quiet, that reads
// a remote primary's item ten times over an edge slowed to a quarter of
// RPCTimeout: its ten round trips outlast the read lease (twice
// RPCTimeout), so it must abort lease_expired.
func outliveLease(t *testing.T, c *Cluster, rpcTimeout time.Duration) {
	t.Helper()
	for s := model.SiteID(0); int(s) < c.Placement.NumSites; s++ {
		for _, item := range c.Placement.ReplicasAt(s) {
			primary := c.Placement.Primary[item]
			ops := make([]model.Op, 10)
			for i := range ops {
				ops[i] = model.Op{Kind: model.OpRead, Item: item}
			}
			c.Transport().SetEdgeLatency(s, primary, rpcTimeout/4)
			err := c.Engine(s).Execute(ops)
			c.Transport().SetEdgeLatency(s, primary, c.Cfg.Latency)
			if !errors.Is(err, lock.ErrLeaseExpired) {
				t.Errorf("reader at s%d of item %d, primary s%d: %v, want %v", s, item, primary, err, lock.ErrLeaseExpired)
			}
			return
		}
	}
	t.Fatal("no site holds a replica to read remotely")
}
