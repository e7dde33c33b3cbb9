package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// once runs repltop -once against one publisher in this process: publish
// fills the publisher's registry and ring before its one flush, then the
// publisher disconnects — -once's all-publishers-done condition — and
// run's output is returned.
func once(t *testing.T, jsonOut bool, o telemetry.Options, publish func(*obs.Registry, *telemetry.Publisher)) string {
	t.Helper()
	addrCh := make(chan string, 1)
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			listen:   "127.0.0.1:0",
			once:     true,
			jsonOut:  jsonOut,
			wait:     10 * time.Second,
			onListen: func(addr string) { addrCh <- addr },
		}, &out)
	}()
	o.Addr, o.Obs = <-addrCh, obs.NewRegistry()
	pub, err := telemetry.NewPublisher(o)
	if err != nil {
		t.Fatal(err)
	}
	publish(o.Obs, pub)
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	pub.Stop()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// TestOnceJSONAggregation drives a real publisher into a repltop -once
// -json run and decodes the emitted snapshot.
func TestOnceJSONAggregation(t *testing.T) {
	report := metrics.Report{Phases: map[string]metrics.PhaseStats{
		"lock_wait": {Count: 2, P95: 3 * time.Millisecond},
	}}
	out := once(t, true, telemetry.Options{
		Proc: "nodeA", Protocol: "backedge", Sites: []model.SiteID{0, 1},
		Report: func() metrics.Report { return report },
	}, func(reg *obs.Registry, pub *telemetry.Publisher) {
		reg.Counter("repl_txn_committed_total", obs.Label{Key: "site", Value: "0"}).Add(3)
		reg.Counter("repl_txn_abort_reason_total",
			obs.Label{Key: "site", Value: "1"}, obs.Label{Key: "reason", Value: "lock_timeout"}).Add(2)
		tid := model.TxnID{Site: 0, Seq: 1}
		pub.Ingest(trace.Event{Kind: trace.TxnCommit, Site: 0, Peer: model.NoSite, TID: tid, Span: model.RootSpan(tid)})
	})

	var snap telemetry.ClusterSnapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v\n%s", err, out)
	}
	if len(snap.Procs) != 1 || snap.Procs[0].Proc != "nodeA" || snap.Procs[0].Protocol != "backedge" {
		t.Fatalf("procs = %+v, want one nodeA running backedge", snap.Procs)
	}
	if len(snap.Sites) != 2 || snap.Sites[0].Committed != 3 {
		t.Fatalf("sites = %+v, want sites 0,1 with 3 commits at site 0", snap.Sites)
	}
	if snap.SpanTrees != 1 {
		t.Fatalf("span trees = %d, want 1", snap.SpanTrees)
	}
	if snap.AbortReasons["lock_timeout"] != 2 || len(snap.AbortReasons) != 1 {
		t.Fatalf("abort reasons = %v, want lock_timeout=2", snap.AbortReasons)
	}
	if got := snap.Phases["lock_wait"]; got != report.Phases["lock_wait"] {
		t.Fatalf("phase lock_wait = %+v, want %+v", got, report.Phases["lock_wait"])
	}
}

// TestOnceJSONScrape checks that the per-site view -once -json emits is
// read from the registry series a frame carries: a node announcing only
// site 2 yields exactly that site, with its commit counter and protocol.
func TestOnceJSONScrape(t *testing.T) {
	out := once(t, true, telemetry.Options{
		Proc: "nodeC", Protocol: "dagt", Sites: []model.SiteID{2},
	}, func(reg *obs.Registry, _ *telemetry.Publisher) {
		reg.Counter("repl_txn_committed_total", obs.Label{Key: "site", Value: "2"}).Add(8)
	})

	var snap telemetry.ClusterSnapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v\n%s", err, out)
	}
	if len(snap.Sites) != 1 || snap.Sites[0].Site != 2 || snap.Sites[0].Committed != 8 {
		t.Fatalf("sites = %+v, want site 2 with 8 commits", snap.Sites)
	}
	if len(snap.Procs) != 1 || snap.Procs[0].Protocol != "dagt" {
		t.Fatalf("procs = %+v, want protocol dagt", snap.Procs)
	}
}

// TestOnceTextRender covers the console layout path end to end.
func TestOnceTextRender(t *testing.T) {
	out := once(t, false, telemetry.Options{
		Proc: "nodeB", Protocol: "psl", Sites: []model.SiteID{0},
		Report: func() metrics.Report {
			return metrics.Report{Phases: map[string]metrics.PhaseStats{
				"execute": {Count: 1, Mean: 1500 * time.Microsecond, P95: 1500 * time.Microsecond},
			}}
		},
	}, func(reg *obs.Registry, _ *telemetry.Publisher) {
		reg.Counter("repl_remote_reads_total", obs.Label{Key: "site", Value: "0"}).Add(5)
	})
	for _, want := range []string{"PROC", "nodeB", "psl", "SITE", "PHASE", "1500µ"} {
		if !strings.Contains(out, want) {
			t.Errorf("console output missing %q:\n%s", want, out)
		}
	}
}
