package watch

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// testOptions returns deadlines short enough that tests can cross them
// with small sleeps. Tick is irrelevant: tests call tick() directly.
func testOptions() Options {
	return Options{
		StalenessDeadline: 5 * time.Millisecond,
		StallDeadline:     5 * time.Millisecond,
		PendingDeadline:   5 * time.Millisecond,
		Tick:              time.Hour,
		FlightSize:        16,
		MaxDumps:          2,
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var w *Watchdog
	w.SetObs(obs.NewRegistry())
	w.SetTrace(trace.NewRecorder())
	w.Ingest(trace.Event{})
	w.RegisterEpoch(0, func() EpochStatus { return EpochStatus{} })
	w.RegisterPending(0, func() PendingStatus { return PendingStatus{} })
	w.Start()
	w.Stop()
	if got := w.Active(); got != nil {
		t.Fatalf("nil watchdog Active = %v", got)
	}
	if s := w.Summarize(); s.ActiveAlerts != 0 {
		t.Fatalf("nil watchdog Summarize = %+v", s)
	}
	p := w.Queue(1, "fifo")
	if p != nil {
		t.Fatal("nil watchdog must hand out nil Progress")
	}
	p.Push()
	p.Pop()
	if p.Depth() != 0 {
		t.Fatal("nil Progress must be a no-op")
	}
}

func TestQueueStallRaisesAndClears(t *testing.T) {
	w := New(testOptions())
	p := w.Queue(3, "fifo")
	p.Push()
	w.tick() // samples the queue
	time.Sleep(10 * time.Millisecond)
	w.tick()
	active := w.Active()
	if len(active) != 1 || active[0].Kind != QueueStall || active[0].Site != 3 {
		t.Fatalf("want one QueueStall at site 3, got %v", active)
	}
	p.Pop()
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
	w.RegisterEpoch(2, func() EpochStatus {
		return EpochStatus{Epoch: stuck, Blocked: []model.SiteID{0}}
	})
	w.RegisterEpoch(1, func() EpochStatus { return EpochStatus{Epoch: moving} })

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
	st := PendingStatus{Count: 1, Oldest: tid, OldestSince: time.Now()}
	w.RegisterPending(0, func() PendingStatus { return st })
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
	st = PendingStatus{}
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

	// The applied event clears the bookkeeping and the alert; the clear
	// is also traced.
	rec.RecordSpan(trace.SecondaryApplied, 1, model.NoSite, tid, 1, octx.Fork(0).SpanAt(1), octx.SpanAt(0))
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

func TestFlightDumpCaps(t *testing.T) {
	opts := testOptions()
	opts.FlightSize = 4
	opts.MaxDumps = 1
	opts.FlightDir = t.TempDir()
	w := New(opts)
	rec := trace.NewRecorder()
	rec.AddSink(w.Ingest)
	w.SetTrace(rec)

	// Overfill the ring, then trigger two distinct alerts in two ticks.
	for i := 0; i < 10; i++ {
		tid := model.TxnID{Site: 0, Seq: uint64(i + 1)}
		rec.RecordSpan(trace.SecondaryForwarded, 0, 1, tid, 1, model.RootSpan(tid), 0)
	}
	time.Sleep(10 * time.Millisecond)
	w.tick()
	p := w.Queue(2, "fifo")
	p.Push()
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
	if len(events) != 4 {
		t.Fatalf("FlightSize=4 must cap the ring, dump has %d events", len(events))
	}
	// The ring keeps the MOST RECENT events.
	if events[len(events)-1].TID.Seq != 10 {
		t.Fatalf("ring lost the newest event: %+v", events)
	}
	entries, err := os.ReadDir(filepath.Dir(dumps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir should hold exactly one file, got %d", len(entries))
	}
}
