package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/watch"
	"repro/internal/workload"
)

// proc is one simulated process of a multi-process deployment: a group
// of sites over real TCP sockets with one shared recorder, registry,
// watchdog, and telemetry publisher — exactly replnode's wiring, two
// sites per process instead of one.
type proc struct {
	name    string
	sites   []model.SiteID
	rec     *trace.Recorder
	reg     *obs.Registry
	wd      *watch.Watchdog
	pub     *telemetry.Publisher
	engines map[model.SiteID]core.Engine
	trs     []*comm.TCPTransport
}

func (p *proc) stop() {
	for _, e := range p.engines {
		e.Stop()
	}
	p.wd.Stop()
	p.pub.Stop()
	for _, tr := range p.trs {
		tr.Close()
	}
}

// reservePorts grabs n distinct loopback ports by listening and
// immediately closing; the tiny reuse window is fine for a local test.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ln.Addr().String()
		ln.Close()
	}
	return out
}

// TestCrossProcessFederation runs one 4-site DAG(WT) cluster split
// across two simulated processes over TCP, streams both processes'
// telemetry into one aggregator, and asserts the aggregator's view:
// cross-process span trees byte-identical to the ground truth built
// from the merged in-process recorders, a converged per-site staleness
// table, and a repltop-shaped JSON snapshot.
func TestCrossProcessFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and multi-hundred-ms drain")
	}
	const nSites = 4

	wl := workload.Default()
	wl.Sites = nSites
	wl.Items = 40
	wl.Seed = 11
	wl.ReplicationProb = 0.6 // dense copies: plenty of propagation
	wl.SiteProb = 0.6
	wl.BackedgeProb = 0 // DAG(WT) needs a DAG copy graph
	wl.ThreadsPerSite = 1
	wl.TxnsPerThread = 8
	wl.ReadOpProb = 0.3
	wl.ReadTxnProb = 0.2

	placement, err := wl.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	top, err := cluster.DeriveTopology(graph.FromPlacement(placement), cluster.Config{Protocol: core.DAGWT})
	if err != nil {
		t.Fatal(err)
	}

	agg := telemetry.NewAggregator()
	aggAddr, err := agg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	core.RegisterPayloads()
	addrs := reservePorts(t, nSites)
	addrMap := make(map[model.SiteID]string, nSites)
	for i, a := range addrs {
		addrMap[model.SiteID(i)] = a
	}

	groups := [][]model.SiteID{{0, 1}, {2, 3}}
	procs := make([]*proc, len(groups))
	for gi, sites := range groups {
		p := &proc{
			name:    fmt.Sprintf("proc-%c", 'a'+gi),
			sites:   sites,
			rec:     trace.NewRecorder(),
			reg:     obs.NewRegistry(),
			engines: make(map[model.SiteID]core.Engine),
		}
		p.wd = watch.New(watch.Options{StalenessDeadline: 24 * time.Hour})
		p.wd.SetObs(p.reg)
		p.wd.SetTrace(p.rec)
		p.rec.AddSink(p.wd.Ingest)

		collector := metrics.NewCollector(false)
		pub, err := telemetry.NewPublisher(telemetry.Options{
			Proc:     p.name,
			Addr:     aggAddr,
			Protocol: core.DAGWT.String(),
			Sites:    sites,
			Obs:      p.reg,
			Watch:    p.wd,
			Report:   func() metrics.Report { return collector.Snapshot(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		p.rec.AddSink(pub.Ingest)
		p.pub = pub

		shared := &core.SharedConfig{
			Placement:    placement,
			Graph:        top.DAG,
			Order:        top.Order,
			Tree:         top.Tree,
			SubtreeItems: graph.SubtreeCopyItems(top.Tree, placement),
			Backedges:    top.BackSet,
			Params:       core.DefaultParams(),
			Metrics:      collector,
			Trace:        p.rec,
			Obs:          p.reg,
			Watch:        p.wd,
		}
		for _, s := range sites {
			tr, err := comm.NewTCPTransport(s, addrMap)
			if err != nil {
				t.Fatal(err)
			}
			p.trs = append(p.trs, tr)
			e, err := core.New(core.DAGWT, shared, s, tr)
			if err != nil {
				t.Fatal(err)
			}
			p.engines[s] = e
		}
		procs[gi] = p
	}
	for _, p := range procs {
		for _, e := range p.engines {
			e.Start()
		}
		p.wd.Start()
		p.pub.Start()
	}
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()

	// Drive the workload: every site runs its own client thread inside
	// its hosting "process".
	for _, p := range procs {
		for _, s := range p.sites {
			gen := workload.NewTxnGen(wl, placement, s, wl.Seed+int64(s)*1000+7)
			eng := p.engines[s]
			for i := 0; i < wl.TxnsPerThread; i++ {
				_ = eng.Execute(gen.Next())
			}
		}
	}

	// Drain: wait until the cluster quiesces AND the aggregator's view
	// stops moving (every forwarded subtransaction applied, publisher
	// cycles flushed).
	// Ground truth mirrors what the publishers ship: the span-carrying
	// subset of each process's recorder (span-less events — phase
	// latencies, watchdog noise — travel as Frame.Phases and Frame.Alerts).
	groundEvents := func() []trace.Event {
		var evs []trace.Event
		for _, p := range procs {
			for _, ev := range p.rec.Snapshot() {
				if ev.Span != 0 {
					evs = append(evs, ev)
				}
			}
		}
		return evs
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, p := range procs {
			_ = p.pub.Flush()
		}
		snap := agg.Snapshot()
		if len(snap.Edges) == 0 && len(agg.Events()) == len(groundEvents()) && len(snap.Sites) == nSites {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregator never converged: edges=%v aggEvents=%d groundEvents=%d sites=%d",
				snap.Edges, len(agg.Events()), len(groundEvents()), len(snap.Sites))
		}
		time.Sleep(50 * time.Millisecond)
	}

	// --- Span federation: the aggregator's trees must be byte-identical
	// to the ground truth reconstructed from the merged in-process
	// recorders. ---
	ground := trace.BuildSpanTrees(groundEvents())
	fed := agg.SpanTrees()
	if len(fed) != len(ground) || len(fed) == 0 {
		t.Fatalf("federated %d span trees, ground truth has %d", len(fed), len(ground))
	}
	crossProc := 0
	for tid, gt := range ground {
		ft, ok := fed[tid]
		if !ok {
			t.Fatalf("transaction %v missing from federated trees", tid)
		}
		if got, want := ft.Structure(), gt.Structure(); got != want {
			t.Fatalf("federated tree for %v differs\n--- federated ---\n%s\n--- ground ---\n%s", tid, got, want)
		}
		// Count trees whose spans touch sites hosted by different procs:
		// those only reconstruct because the streams merged.
		sites := map[model.SiteID]bool{}
		for _, ev := range groundEvents() {
			if ev.TID == tid && ev.Span != 0 {
				sites[ev.Site] = true
			}
		}
		if (sites[0] || sites[1]) && (sites[2] || sites[3]) {
			crossProc++
		}
	}
	if crossProc == 0 {
		t.Fatalf("no span tree crossed the process boundary; federation untested (trees=%d)", len(ground))
	}
	if problems := trace.VerifySpans(agg.Events()); len(problems) != 0 {
		t.Fatalf("federated stream fails span verification: %v", problems)
	}

	// --- Merged staleness/metrics table. ---
	snap := agg.Snapshot()
	if snap.SpanProblems != 0 {
		t.Fatalf("snapshot reports %d span problems", snap.SpanProblems)
	}
	var totalCommitted, totalApplied int64
	procOf := map[model.SiteID]string{0: "proc-a", 1: "proc-a", 2: "proc-b", 3: "proc-b"}
	for i, row := range snap.Sites {
		if row.Site != model.SiteID(i) {
			t.Fatalf("site rows out of order: %+v", snap.Sites)
		}
		if row.Proc != procOf[row.Site] {
			t.Fatalf("site %d attributed to %q, want %q", row.Site, row.Proc, procOf[row.Site])
		}
		if row.Protocol != core.DAGWT.String() {
			t.Fatalf("site %d protocol %q, want %q", row.Site, row.Protocol, core.DAGWT.String())
		}
		totalCommitted += row.Committed
		totalApplied += row.Applied
	}
	if totalCommitted == 0 {
		t.Fatal("no commits visible in the merged site table")
	}
	if totalApplied == 0 {
		t.Fatal("no secondary applies visible: propagation left no trace in the merged table")
	}
	if len(snap.Procs) != 2 {
		t.Fatalf("procs = %+v, want proc-a and proc-b", snap.Procs)
	}
	sort.Slice(snap.Protocols, func(i, j int) bool { return snap.Protocols[i].Protocol < snap.Protocols[j].Protocol })
	if len(snap.Protocols) != 1 || snap.Protocols[0].Committed != totalCommitted {
		t.Fatalf("protocol rollup %+v, want one dagwt row with %d commits", snap.Protocols, totalCommitted)
	}

	// --- The same snapshot must render as repltop -json emits it. ---
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(snap); err != nil {
		t.Fatal(err)
	}
	var decoded telemetry.ClusterSnapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot does not round-trip JSON: %v", err)
	}
	if len(decoded.Sites) != nSites || decoded.Sites[3].Proc != "proc-b" {
		t.Fatalf("decoded snapshot lost the site table: %+v", decoded.Sites)
	}
	var text bytes.Buffer
	snap.Render(&text)
	if !bytes.Contains(text.Bytes(), []byte("proc-a")) || !bytes.Contains(text.Bytes(), []byte(core.DAGWT.String())) {
		t.Fatalf("console render missing cluster content:\n%s", text.String())
	}
}
