package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestOnceJSONAggregation drives a real publisher into a repltop -once
// -json run and decodes the emitted snapshot.
func TestOnceJSONAggregation(t *testing.T) {
	addrCh := make(chan string, 1)
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			listen:   "127.0.0.1:0",
			once:     true,
			jsonOut:  true,
			wait:     10 * time.Second,
			onListen: func(addr string) { addrCh <- addr },
		}, &out)
	}()
	addr := <-addrCh

	reg := obs.NewRegistry()
	pub, err := telemetry.NewPublisher(telemetry.Options{
		Proc: "nodeA", Addr: addr, Protocol: "backedge", Sites: []model.SiteID{0, 1}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("repl_txn_committed_total", obs.Label{Key: "site", Value: "0"}).Add(3)
	tid := model.TxnID{Site: 0, Seq: 1}
	pub.Ingest(trace.Event{Kind: trace.TxnCommit, Site: 0, Peer: model.NoSite, TID: tid, Span: model.RootSpan(tid)})
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	pub.Stop() // closes the connection: -once's all-publishers-done condition

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	var snap telemetry.ClusterSnapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v\n%s", err, out.String())
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
}

// TestOnceJSONScrape runs -once -json against a fake /metrics page and
// checks the synthesized view.
func TestOnceJSONScrape(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("repl_protocol_info", obs.Label{Key: "protocol", Value: "dagt"}).Set(1)
	reg.Counter("repl_txn_committed_total", obs.Label{Key: "site", Value: "2"}).Add(8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = reg.WritePrometheus(w)
	}))
	defer srv.Close()

	var out strings.Builder
	if err := run(options{scrape: srv.URL, once: true, jsonOut: true}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var snap telemetry.ClusterSnapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v\n%s", err, out.String())
	}
	if len(snap.Sites) != 1 || snap.Sites[0].Site != 2 || snap.Sites[0].Committed != 8 {
		t.Fatalf("sites = %+v, want site 2 with 8 commits", snap.Sites)
	}
	if len(snap.Procs) != 1 || snap.Procs[0].Protocol != "dagt" {
		t.Fatalf("procs = %+v, want protocol dagt from repl_protocol_info", snap.Procs)
	}
}

// TestOnceTextRender covers the console layout path end to end.
func TestOnceTextRender(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("repl_protocol_info", obs.Label{Key: "protocol", Value: "psl"}).Set(1)
	reg.Counter("repl_remote_reads_total", obs.Label{Key: "site", Value: "0"}).Add(5)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = reg.WritePrometheus(w)
	}))
	defer srv.Close()

	var out strings.Builder
	if err := run(options{scrape: srv.URL, once: true}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"PROC", "psl", "SITE"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("console output missing %q:\n%s", want, out.String())
		}
	}
}
