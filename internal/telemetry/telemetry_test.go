package telemetry

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/contend"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestChannelSpanStableAndDistinct(t *testing.T) {
	a1 := ChannelSpan("proc-a")
	a2 := ChannelSpan("proc-a")
	b := ChannelSpan("proc-b")
	if a1 != a2 {
		t.Fatalf("ChannelSpan not deterministic: %+v vs %+v", a1, a2)
	}
	if a1 == b {
		t.Fatalf("ChannelSpan collision between distinct procs")
	}
	if !a1.TID.Zero() {
		t.Fatalf("ChannelSpan must carry no transaction, got TID %+v", a1.TID)
	}
	if a1.Parent == 0 {
		t.Fatalf("ChannelSpan parent must be nonzero")
	}
}

func TestParseSeries(t *testing.T) {
	cases := []struct {
		key    string
		family string
		labels map[string]string
	}{
		{"repl_txn_committed_total", "repl_txn_committed_total", map[string]string{}},
		{`repl_txn_committed_total{site="3"}`, "repl_txn_committed_total", map[string]string{"site": "3"}},
		{`repl_comm_bytes_total{from="0",to="1"}`, "repl_comm_bytes_total", map[string]string{"from": "0", "to": "1"}},
		{`repl_apply_seconds{site="2"}:count`, "repl_apply_seconds:count", map[string]string{"site": "2"}},
	}
	for _, c := range cases {
		fam, labels := parseSeries(c.key)
		if fam != c.family {
			t.Errorf("parseSeries(%q) family = %q, want %q", c.key, fam, c.family)
		}
		if len(labels) != len(c.labels) {
			t.Errorf("parseSeries(%q) labels = %v, want %v", c.key, labels, c.labels)
			continue
		}
		for k, v := range c.labels {
			if labels[k] != v {
				t.Errorf("parseSeries(%q) label %s = %q, want %q", c.key, k, labels[k], v)
			}
		}
	}
}

// inProc returns a publisher delivering straight into agg through the
// in-package seam, no sockets, plus the frames it delivered.
func inProc(t *testing.T, agg *Aggregator, o Options) (*Publisher, *[]Frame) {
	t.Helper()
	o.Addr = "in-proc"
	p, err := NewPublisher(o)
	if err != nil {
		t.Fatal(err)
	}
	var sent []Frame
	p.send = func(f Frame) error {
		sent = append(sent, f)
		agg.Ingest(f)
		return nil
	}
	return p, &sent
}

// TestPublisherDeltaEncoding checks each cycle is one frame whose
// metrics are true deltas carrying absolute values.
func TestPublisherDeltaEncoding(t *testing.T) {
	agg := NewAggregator()
	reg := obs.NewRegistry()
	p, sent := inProc(t, agg, Options{Proc: "p1", Protocol: "dagwt", Sites: []model.SiteID{0, 1}, Obs: reg})

	c := reg.Counter("repl_txn_committed_total", obs.Label{Key: "site", Value: "0"})
	c.Inc()
	if err := p.Flush(); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	snap := agg.Snapshot()
	if len(snap.Sites) != 2 {
		t.Fatalf("sites = %+v, want 2 rows (announced 0,1)", snap.Sites)
	}
	if snap.Sites[0].Committed != 1 {
		t.Fatalf("site 0 committed = %d, want 1", snap.Sites[0].Committed)
	}

	// A quiet cycle is still one frame (it re-announces the process), but
	// must not resend the unchanged series: only the publisher's own
	// counters moved.
	if err := p.Flush(); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	if len(*sent) != 2 {
		t.Fatalf("two cycles sent %d frames, want 2", len(*sent))
	}
	quiet := (*sent)[1]
	if _, resent := quiet.Metrics[`repl_txn_committed_total{site="0"}`]; resent {
		t.Fatalf("quiet cycle resent an unchanged series: %v", quiet.Metrics)
	}
	if quiet.Seq != 2 || quiet.Protocol != "dagwt" || len(quiet.Sites) != 2 {
		t.Fatalf("quiet frame = %+v, want seq 2 announcing dagwt on 2 sites", quiet)
	}

	c.Add(4)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush 3: %v", err)
	}
	if s := agg.Snapshot(); s.Sites[0].Committed != 5 {
		t.Fatalf("after delta, committed = %d, want 5 (absolute value)", s.Sites[0].Committed)
	}
	if s := agg.Snapshot(); s.Procs[0].Gaps != 0 || s.Procs[0].Frames != 3 {
		t.Fatalf("proc = %+v, want 3 frames and no gaps", s.Procs[0])
	}
}

// TestPublisherSpanRing checks overflow drops oldest and counts drops.
func TestPublisherSpanRing(t *testing.T) {
	agg := NewAggregator()
	p, _ := inProc(t, agg, Options{Proc: "p1"})
	for i := 0; i < spanBuffer+2; i++ {
		tid := model.TxnID{Site: 0, Seq: uint64(i + 1)}
		p.Ingest(trace.Event{
			Kind: trace.TxnCommit, Site: 0, Peer: model.NoSite, TID: tid,
			Span: model.RootSpan(tid),
		})
	}
	// Span-less events must be filtered out, not buffered.
	p.Ingest(trace.Event{Kind: trace.PhaseLatency, Site: 0, Phase: "apply"})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := agg.Events()
	if len(evs) != spanBuffer {
		t.Fatalf("aggregator holds %d events, want %d (ring size)", len(evs), spanBuffer)
	}
	if evs[0].TID.Seq != 3 || evs[len(evs)-1].TID.Seq != spanBuffer+2 {
		t.Fatalf("ring kept seqs %d..%d, want newest 3..%d", evs[0].TID.Seq, evs[len(evs)-1].TID.Seq, spanBuffer+2)
	}
	agg.mu.Lock()
	dropped := agg.procs["p1"].dropped
	agg.mu.Unlock()
	if dropped != 2 {
		t.Fatalf("reported drops = %d, want 2", dropped)
	}
}

// TestSnapshotStalenessFromFold is the cross-process staleness case: proc
// a forwards to site 1 and its watchdog, which never sees the peer's
// apply, still gauges site 1 as behind; proc b hosts site 1 and reports
// the apply. The site row must follow the aggregator's in-flight fold,
// not the stale gauge.
func TestSnapshotStalenessFromFold(t *testing.T) {
	agg := NewAggregator()
	tid := model.TxnID{Site: 0, Seq: 1}
	fwd := trace.Event{Kind: trace.SecondaryForwarded, Site: 0, Peer: 1, TID: tid, Span: model.RootSpan(tid)}
	app := trace.Event{Kind: trace.SecondaryApplied, Site: 1, Peer: model.NoSite, TID: tid, Span: model.RootSpan(tid)}
	agg.Ingest(Frame{Proc: "b", Seq: 1, Protocol: "dagwt", Sites: []model.SiteID{1}})
	agg.Ingest(Frame{Proc: "a", Seq: 1, Protocol: "dagwt", Sites: []model.SiteID{0},
		Metrics: map[string]int64{
			`repl_watch_version_lag{site="1"}`:         2,
			`repl_watch_oldest_unapplied_ms{site="1"}`: 2000,
		},
		Events: []trace.Event{fwd}})
	if s := agg.Snapshot(); s.Sites[1].VersionLag != 1 || len(s.Edges) != 1 {
		t.Fatalf("after the forward: sites %+v edges %+v, want site 1 one behind on one edge", s.Sites, s.Edges)
	}
	agg.Ingest(Frame{Proc: "b", Seq: 2, Protocol: "dagwt", Sites: []model.SiteID{1}, Events: []trace.Event{app}})
	s := agg.Snapshot()
	if len(s.Sites) != 2 || s.Sites[1].Proc != "b" {
		t.Fatalf("sites = %+v, want site 1 hosted by b", s.Sites)
	}
	if r := s.Sites[1]; r.VersionLag != 0 || r.OldestUnappliedMS != 0 {
		t.Fatalf("site 1 = %+v, want version_lag 0 and oldest_unapplied_ms 0 after the apply", r)
	}
	if len(s.Edges) != 0 || s.MaxStalenessMS != 0 {
		t.Fatalf("edges %+v max staleness %d, want none", s.Edges, s.MaxStalenessMS)
	}
}

// TestWireRoundTrip runs a publisher over a real TCP connection into a
// listening aggregator.
func TestWireRoundTrip(t *testing.T) {
	agg := NewAggregator()
	addr, err := agg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	reg := obs.NewRegistry()
	p, err := NewPublisher(Options{Proc: "wire1", Addr: addr, Protocol: "psl", Sites: []model.SiteID{2}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("repl_txn_committed_total", obs.Label{Key: "site", Value: "2"}).Add(7)

	tid := model.TxnID{Site: 2, Seq: 1}
	p.Ingest(trace.Event{Kind: trace.TxnCommit, Site: 2, Peer: model.NoSite, TID: tid, Span: model.RootSpan(tid)})
	if err := p.Flush(); err != nil {
		t.Fatalf("flush over wire: %v", err)
	}
	p.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := agg.Snapshot()
		if len(s.Sites) == 1 && s.Sites[0].Committed == 7 && len(agg.Events()) == 1 {
			if s.Sites[0].Proc != "wire1" || s.Sites[0].Protocol != "psl" {
				t.Fatalf("site row %+v, want proc wire1 protocol psl", s.Sites[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregator never converged: %+v events=%d", s, len(agg.Events()))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotRender smoke-checks the text console rendering.
func TestSnapshotRender(t *testing.T) {
	agg := NewAggregator()
	agg.Ingest(Frame{Proc: "a", Seq: 1, Protocol: "dagt", Sites: []model.SiteID{0}, Metrics: map[string]int64{
		`repl_txn_committed_total{site="0"}`: 11,
	}})
	var sb strings.Builder
	s := agg.Snapshot()
	s.Render(&sb)
	out := sb.String()
	for _, want := range []string{"dagt", "s0", "11", "PROTOCOL", "SITE"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotAbortReasonsFromRegistry checks the abort breakdown is read
// from the repl_txn_abort_reason_total series frames already carry: per
// reason, summed over the announced sites of their hosting procs, with
// zero sums left out — the same map the engines' AbortReasons give.
func TestSnapshotAbortReasonsFromRegistry(t *testing.T) {
	banks := map[string]map[model.SiteID]map[contend.AbortReason]uint64{
		"a": {0: {contend.ReasonLockTimeout: 3, contend.ReasonDeadlock: 1}},
		"b": {1: {contend.ReasonLockTimeout: 2}, 2: {contend.ReasonWound: 4}},
	}
	// Each proc also gauges a site it does not host: b's site 2, and a
	// site nobody announces.
	strays := map[string]string{"a": "2", "b": "9"}
	want := map[string]uint64{}
	agg := NewAggregator()
	for proc, sites := range banks {
		reg := obs.NewRegistry()
		f := Frame{Proc: proc, Seq: 1, Protocol: "dagwt"}
		for site, counts := range sites {
			f.Sites = append(f.Sites, site)
			label := obs.Label{Key: "site", Value: strconv.Itoa(int(site))}
			// Like a site's counter bank: every reason exported, most zero.
			for _, r := range contend.Reasons() {
				reg.Counter("repl_txn_abort_reason_total", label, obs.Label{Key: "reason", Value: r.String()}).Add(counts[r])
				if counts[r] > 0 {
					want[r.String()] += counts[r]
				}
			}
		}
		reg.Counter("repl_txn_abort_reason_total",
			obs.Label{Key: "site", Value: strays[proc]}, obs.Label{Key: "reason", Value: "deadlock"}).Add(100)
		f.Metrics = reg.Snapshot()
		agg.Ingest(f)
	}
	if got := agg.Snapshot().AbortReasons; !reflect.DeepEqual(got, want) {
		t.Fatalf("abort reasons = %v, want %v", got, want)
	}
}

// TestAggregatorCloseWithConnectedPublisher checks Close returns while a
// publisher still holds its connection open.
func TestAggregatorCloseWithConnectedPublisher(t *testing.T) {
	agg := NewAggregator()
	addr, err := agg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendFrame(Frame{Proc: "idle", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if active, _ := agg.ConnCounts(); active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aggregator never accepted the connection")
		}
	}
	closed := make(chan struct{})
	go func() {
		agg.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked after 2s on a connected publisher")
	}
	if active, total := agg.ConnCounts(); active != 0 || total != 1 {
		t.Fatalf("conns after Close = %d active, %d total; want 0, 1", active, total)
	}
}
