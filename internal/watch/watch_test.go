package watch

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// probeOf returns a probe reporting *sts, so a test moves the sites'
// state between ticks by assigning to it.
func probeOf(sts *[]Status) func() []Status {
	return func() []Status { return *sts }
}

// testOptions returns deadlines short enough that tests can cross them
// with small sleeps. Tick is irrelevant: tests call tick() directly.
func testOptions() Options {
	return Options{
		StalenessDeadline: 5 * time.Millisecond,
		StallDeadline:     5 * time.Millisecond,
		PendingDeadline:   5 * time.Millisecond,
		Tick:              time.Hour,
		MaxDumps:          2,
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var w *Watchdog
	w.SetObs(obs.NewRegistry())
	w.SetTrace(trace.NewRecorder())
	w.Ingest(trace.Event{})
	w.SetProbe(func() []Status { return []Status{{Queue: "fifo", Depth: 1}} })
	w.Start()
	w.Stop()
	if got := w.Active(); got != nil {
		t.Fatalf("nil watchdog Active = %v", got)
	}
	if s := w.Summarize(); s.ActiveAlerts != 0 {
		t.Fatalf("nil watchdog Summarize = %+v", s)
	}
}

func TestQueueStallRaisesAndClears(t *testing.T) {
	w := New(testOptions())
	sts := []Status{{Site: 3, Queue: "fifo", Depth: 1}}
	w.SetProbe(probeOf(&sts))
	w.tick() // samples the queue
	time.Sleep(10 * time.Millisecond)
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Kind != QueueStall || active[0].Site != 3 {
		t.Fatalf("want one QueueStall at site 3, got %v", active)
	}
	sts = []Status{{Site: 3, Queue: "fifo", Depth: 0, Pops: 1}}
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("alert should clear after the queue drains, got %v", got)
	}
	hist := w.History()
	if len(hist) != 1 || hist[0].Cleared.IsZero() {
		t.Fatalf("history should show one cleared alert, got %+v", hist)
	}
}

func TestEpochStallNeedsClusterProgress(t *testing.T) {
	w := New(testOptions())
	stuck, moving := uint64(7), uint64(7)
	w.SetProbe(func() []Status {
		return []Status{
			{Site: 1, Epoch: moving},
			{Site: 2, Epoch: stuck, Blocked: []model.SiteID{0}},
		}
	})

	// Whole cluster quiet: no site is ahead, so nothing is stalled.
	w.tick()
	time.Sleep(10 * time.Millisecond)
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("globally idle cluster must not alert, got %v", got)
	}

	// Site 1 advances while site 2 does not: site 2 is stalled, and the
	// alert names the blocked-on parent as the peer.
	moving = 9
	w.tick()
	time.Sleep(10 * time.Millisecond)
	moving = 11
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Kind != EpochStall || active[0].Site != 2 || active[0].Peer != 0 {
		t.Fatalf("want EpochStall{site 2, peer 0}, got %v", active)
	}

	// Site 2 catches up: cleared.
	stuck = 11
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("alert should clear once the epoch advances, got %v", got)
	}
}

func TestPendingTwoPCAlert(t *testing.T) {
	w := New(testOptions())
	tid := model.TxnID{Site: 2, Seq: 5}
	sts := []Status{{Site: 0, Prepared: 1, Oldest: tid, OldestSince: time.Now()}}
	w.SetProbe(probeOf(&sts))
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("fresh prepared entry must not alert, got %v", got)
	}
	time.Sleep(10 * time.Millisecond)
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Kind != PendingTwoPC || active[0].Site != 0 || active[0].TID != tid {
		t.Fatalf("want PendingTwoPC{site 0, %v}, got %v", tid, active)
	}
	sts = []Status{{Site: 0}}
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("alert should clear once the decision lands, got %v", got)
	}
}

func TestStalenessFromIngestAndFlightDump(t *testing.T) {
	opts := testOptions()
	opts.FlightDir = t.TempDir()
	w := New(opts)
	reg := obs.NewRegistry()
	w.SetObs(reg)
	rec := trace.NewRecorder()
	rec.AddSink(w.Ingest)
	w.SetTrace(rec)
	w.SetProbe(func() []Status { return []Status{{Site: 0}, {Site: 1}} })

	tid := model.TxnID{Site: 0, Seq: 1}
	octx := model.SpanContext{TID: tid}
	rec.RecordSpan(trace.SecondaryForwarded, 0, 1, tid, 1, octx.SpanAt(0), 0)
	time.Sleep(10 * time.Millisecond)
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Kind != StaleReplica || active[0].Site != 1 || active[0].Peer != 0 {
		t.Fatalf("want StaleReplica{site 1, peer 0}, got %v", active)
	}

	// The raise wrote a flight dump whose JSONL round-trips, and recorded
	// a WatchAlert trace event.
	dumps := w.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("want one flight dump, got %v", dumps)
	}
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatalf("dump is not valid JSONL: %v", err)
	}
	if len(events) == 0 || events[0].Kind != trace.SecondaryForwarded {
		t.Fatalf("dump missing the ring contents: %v", events)
	}
	sawAlert := false
	for _, ev := range rec.Snapshot() {
		if ev.Kind == trace.WatchAlert && ev.Site == 1 {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Error("no WatchAlert trace event recorded")
	}

	// The receiver's consumption settles the forward and clears the
	// alert; the clear is also traced.
	rec.RecordSpan(trace.SecondaryConsumed, 1, 0, tid, 1, octx.Fork(0).SpanAt(1), octx.SpanAt(0))
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("alert should clear after apply, got %v", got)
	}
	sawClear := false
	for _, ev := range rec.Snapshot() {
		if ev.Kind == trace.WatchClear {
			sawClear = true
		}
	}
	if !sawClear {
		t.Error("no WatchClear trace event recorded")
	}

	s := w.Summarize()
	if s.AlertsRaised["stale_replica"] != 1 || s.MaxStalenessMs < 5 || len(s.FlightDumps) != 1 {
		t.Fatalf("summary mismatch: %+v", s)
	}
	snap := reg.Snapshot()
	if snap[`repl_watch_alerts_total{kind="stale_replica"}`] != 1 {
		t.Fatalf("alert counter missing from registry: %v", snap)
	}
	if snap["repl_watch_flight_dumps_total"] != 1 {
		t.Fatalf("dump counter missing from registry: %v", snap)
	}
}

// TestStalenessOldestAcrossEdges checks the per-replica view of the
// open-forward fold: a replica fed by two edges is stale on behalf of its
// oldest open forward across both, the alert moves to the other edge once
// that forward is consumed, a drained edge's gauge falls back to zero, and
// a forward into a site the probe does not report is not folded.
func TestStalenessOldestAcrossEdges(t *testing.T) {
	w := New(testOptions())
	reg := obs.NewRegistry()
	w.SetObs(reg)
	w.SetProbe(func() []Status { return []Status{{Site: 0}, {Site: 1}, {Site: 2}} })
	tid := func(seq uint64) model.TxnID { return model.TxnID{Site: 0, Seq: seq} }
	hop := func(k trace.Kind, site, peer model.SiteID, seq uint64) {
		w.Ingest(trace.Event{Kind: k, Site: site, Peer: peer, TID: tid(seq), Proto: 1})
	}
	hop(trace.SecondaryForwarded, 0, 2, 1)
	time.Sleep(time.Millisecond)
	hop(trace.SecondaryForwarded, 1, 2, 2)
	hop(trace.SecondaryForwarded, 1, 2, 3)
	hop(trace.SecondaryForwarded, 2, 9, 4) // site 9 is remote
	time.Sleep(10 * time.Millisecond)
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Site != 2 || active[0].Peer != 0 || active[0].TID != tid(1) {
		t.Fatalf("want StaleReplica{site 2, peer 0, %v}, got %v", tid(1), active)
	}
	hop(trace.SecondaryConsumed, 2, 0, 1)
	w.tick()
	active = w.Active()
	if len(active) != 1 || active[0].Peer != 1 || active[0].TID != tid(2) {
		t.Fatalf("after the oldest drains: want StaleReplica{site 2, peer 1, %v}, got %v", tid(2), active)
	}
	snap := reg.Snapshot()
	for series, want := range map[string]int64{
		`repl_watch_version_lag{site="2"}`:          2,
		`repl_watch_edge_inflight{from="0",to="2"}`: 0,
		`repl_watch_edge_inflight{from="1",to="2"}`: 2,
		`repl_watch_version_lag{site="0"}`:          0,
	} {
		if got, ok := snap[series]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", series, got, ok, want)
		}
	}
	if _, ok := snap[`repl_watch_edge_inflight{from="2",to="9"}`]; ok {
		t.Error("a forward to a remote site was folded")
	}
}

// TestFlightDumpCaps checks a flight dump is the recorder's tail — its
// newest flightSize events, newest last — and that MaxDumps caps the
// dumps per run.
func TestFlightDumpCaps(t *testing.T) {
	opts := testOptions()
	opts.MaxDumps = 1
	opts.FlightDir = t.TempDir()
	w := New(opts)
	rec := trace.NewRecorder()
	rec.AddSink(w.Ingest)
	w.SetTrace(rec)
	sts := []Status{{Site: 0}, {Site: 1}, {Site: 2, Queue: "fifo"}}
	w.SetProbe(probeOf(&sts))

	// Record past the cap, then trigger two distinct alerts in two ticks.
	for i := 0; i < flightSize+10; i++ {
		tid := model.TxnID{Site: 0, Seq: uint64(i + 1)}
		rec.RecordSpan(trace.SecondaryForwarded, 0, 1, tid, 1, model.RootSpan(tid), 0)
	}
	time.Sleep(10 * time.Millisecond)
	all := rec.Snapshot()
	w.tick()
	sts[2].Depth = 1
	w.tick()
	time.Sleep(10 * time.Millisecond)
	w.tick()
	if len(w.Active()) != 2 {
		t.Fatalf("want two active alerts, got %v", w.Active())
	}

	dumps := w.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("MaxDumps=1 must cap dumps, got %v", dumps)
	}
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Compared as sets of transactions: Snapshot orders events by
	// timestamp, and two events may share one.
	if got, want := seqs(events), seqs(all[len(all)-flightSize:]); !reflect.DeepEqual(got, want) {
		t.Fatalf("dump holds %d events, want the recorder's last %d", len(got), len(want))
	}
	if last := events[len(events)-1]; last.T != all[len(all)-1].T {
		t.Fatalf("dump ends at T=%d, want the newest event (T=%d) last", last.T, all[len(all)-1].T)
	}
	entries, err := os.ReadDir(filepath.Dir(dumps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir should hold exactly one file, got %d", len(entries))
	}
}

func seqs(events []trace.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, ev := range events {
		out[i] = ev.TID.Seq
	}
	slices.Sort(out)
	return out
}

// TestRecoveryStallAndDeadSamples checks a site reported down past
// StallDeadline raises RecoveryStall, which clears once the site is back,
// and that the down incarnation's queue is forgotten: the rebuilt
// engine's queue, at the same depth and pop count, is judged afresh.
func TestRecoveryStallAndDeadSamples(t *testing.T) {
	w := New(testOptions())
	sts := []Status{{Site: 1, Queue: "fifo", Depth: 4}}
	w.SetProbe(probeOf(&sts))
	w.tick()
	sts = []Status{{Site: 1, Down: true}}
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("a site just gone down must not alert, got %v", got)
	}
	time.Sleep(10 * time.Millisecond)
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Kind != RecoveryStall || active[0].Site != 1 {
		t.Fatalf("want one RecoveryStall at site 1, got %v", active)
	}
	sts = []Status{{Site: 1, Queue: "fifo", Depth: 4}}
	w.tick()
	if got := w.Active(); len(got) != 0 {
		t.Fatalf("a rebuilt site must clear the alert and start its queue afresh, got %v", got)
	}
}
