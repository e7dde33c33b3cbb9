package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/watch"
)

// pollFor retries cond every millisecond until it holds or the timeout
// expires.
//
//lint:allow nodeterminism the wall clock only bounds how long the test polls; it never orders protocol events
func pollFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// findAlert returns the first active alert of the given kind.
func findAlert(w *watch.Watchdog, k watch.Kind) (watch.Alert, bool) {
	for _, a := range w.Active() {
		if a.Kind == k {
			return a, true
		}
	}
	return watch.Alert{}, false
}

// TestWatchDAGTEpochStall partitions one copy-graph edge of a DAG(T)
// cluster and asserts the watchdog raises an epoch-stall alert naming
// the starved site and the silent parent, then clears it after heal.
//
// Layout: sites 0 and 1 are sources, both replicated at site 2
// (copy-graph edges 0→2 and 1→2). Cutting 0→2 starves site 2's queue
// for parent 0 while parent 1 keeps feeding dummies, so the §3.2.2
// merge freezes — exactly the stall §3.3's dummy mechanism exists to
// prevent, reintroduced here by partitioning the dummies away.
func TestWatchDAGTEpochStall(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog integration test")
	}
	p := model.NewPlacement(3, 2)
	p.Primary = []model.SiteID{0, 1}
	p.Replicas = [][]model.SiteID{{2}, {2}}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	rec := trace.NewRecorder()
	saveChaosArtifacts(t, rec)
	c, err := New(Config{
		Workload:  wl,
		Protocol:  core.DAGT,
		Params:    fastParams(),
		Latency:   100 * time.Microsecond,
		Placement: p,
		Trace:     rec,
		Obs:       obs.NewRegistry(),
		Fault:     &fault.Config{Seed: 1}, // no random faults; partitions only
		Reliable:  true,
		Watch: &watch.Options{
			StallDeadline:     100 * time.Millisecond,
			StalenessDeadline: time.Hour, // isolate the epoch alert
			PendingDeadline:   time.Hour,
			Tick:              10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()
	w := c.Watch()

	// Healthy cluster: give the dummy/epoch tickers a few periods and
	// verify nothing fires.
	time.Sleep(300 * time.Millisecond)
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", got)
	}

	c.Fault().Partition(0, 2)
	pollFor(t, 5*time.Second, func() bool {
		a, ok := findAlert(w, watch.EpochStall)
		return ok && a.Site == 2 && a.Peer == 0
	}, "EpochStall{site 2, peer 0}")

	// The stalled site never implicates the healthy parent.
	if a, _ := findAlert(w, watch.EpochStall); a.Peer == 1 {
		t.Fatalf("alert blames the healthy parent: %+v", a)
	}

	c.Fault().Heal(0, 2)
	pollFor(t, 15*time.Second, func() bool {
		_, ok := findAlert(w, watch.EpochStall)
		return !ok
	}, "epoch-stall alert to clear after heal")

	if s := w.Summarize(); s.AlertsRaised["epoch_stall"] == 0 {
		t.Errorf("summary lost the raised alert: %+v", s)
	}
	// The alert lifecycle is also visible in the trace.
	var sawAlert, sawClear bool
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case trace.WatchAlert:
			sawAlert = true
		case trace.WatchClear:
			sawClear = true
		}
	}
	if !sawAlert || !sawClear {
		t.Errorf("trace missing watch lifecycle: alert=%v clear=%v", sawAlert, sawClear)
	}
}

// TestWatchBackEdgePendingHang wedges a BackEdge 2PC participant in the
// prepared state — the decision message partitioned away, the decision
// inquiry's reply path cut too — and asserts the watchdog reports the
// hung participant within the configured deadline, then clears once the
// partition heals and the retransmitted decision lands.
func TestWatchBackEdgePendingHang(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog integration test")
	}
	// Item 0: primary at site 2, replica at site 0 — the copy-graph edge
	// 2→0 points backwards in the site order, so it is the backedge, and
	// site 2's updates to item 0 propagate eagerly under 2PC.
	p := model.NewPlacement(3, 1)
	p.Primary = []model.SiteID{2}
	p.Replicas = [][]model.SiteID{{0}}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	reg := obs.NewRegistry()
	flightDir := flightDirFor(t)
	rec := trace.NewRecorder()
	saveChaosArtifacts(t, rec)
	c, err := New(Config{
		Workload:  wl,
		Protocol:  core.BackEdge,
		Params:    fastParams(),
		Latency:   5 * time.Millisecond, // wide window between vote and decision
		Placement: p,
		Trace:     rec,
		Obs:       reg,
		Fault:     &fault.Config{Seed: 1},
		Reliable:  true,
		Watch: &watch.Options{
			PendingDeadline:   300 * time.Millisecond,
			StalenessDeadline: time.Hour,
			StallDeadline:     time.Hour,
			Tick:              10 * time.Millisecond,
			FlightDir:         flightDir,
			MaxDumps:          2,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()
	w := c.Watch()

	// Run the transaction from the origin; it commits even though the
	// decision delivery will fail (the decision is logged first, and
	// delivery errors do not unwind a decided commit).
	execDone := make(chan error, 1)
	go func() {
		execDone <- c.Engine(2).Execute([]model.Op{
			{Kind: model.OpWrite, Item: 0, Value: 42},
		})
	}()

	// The participant votes (its prepare counter moves) strictly before
	// the coordinator can have sent the decision — the yes vote still has
	// a 5 ms flight back to the origin. Cutting 2→0 in that window drops
	// exactly the decision, and keeps dropping the inquiry replies.
	pollFor(t, 5*time.Second, func() bool {
		return reg.Snapshot()[`repl_backedge_prepares_total{site="0"}`] >= 1
	}, "participant to vote")
	c.Fault().Partition(2, 0)

	if err := <-execDone; err != nil {
		t.Fatalf("origin Execute: %v", err)
	}
	pollFor(t, 5*time.Second, func() bool {
		a, ok := findAlert(w, watch.PendingTwoPC)
		return ok && a.Site == 0 && a.TID.Site == 2
	}, "PendingTwoPC{site 0, txn of site 2}")

	// The raise produced a flight-recorder dump. The watchdog publishes
	// the alert before it writes the file, so wait for the path.
	pollFor(t, 5*time.Second, func() bool { return len(w.Dumps()) > 0 },
		"flight-recorder dump on alert")

	// Heal: the reliable sublayer retransmits the decision, the
	// participant finishes, and the alert clears.
	c.Fault().Heal(2, 0)
	pollFor(t, 15*time.Second, func() bool {
		_, ok := findAlert(w, watch.PendingTwoPC)
		return !ok
	}, "pending-2PC alert to clear after heal")

	if s := w.Summarize(); s.AlertsRaised["pending_2pc"] == 0 {
		t.Errorf("summary lost the raised alert: %+v", s)
	}
}
