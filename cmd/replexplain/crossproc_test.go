package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCrossProcessTraces runs one 4-site DAG(WT) cluster split across two
// simulated processes over TCP, each with its own recorder — replnode's
// wiring, two sites per process — and explains the two processes'
// JSONL files together, as `replexplain a.jsonl b.jsonl` does. The
// concatenation must pass the span invariants, rebuild span trees that
// cross the process boundary, and leave no forward unapplied once the
// cluster drains. With process b's consumption events dropped, Unapplied
// must name exactly the edges into b's sites, with every transaction
// forwarded along them.
func TestCrossProcessTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and multi-hundred-ms drain")
	}
	wl := workload.Default()
	wl.Sites = 4
	wl.Items = 40
	wl.Seed = 11
	wl.ReplicationProb = 0.6 // dense copies: plenty of propagation
	wl.SiteProb = 0.6
	wl.BackedgeProb = 0 // DAG(WT) needs a DAG copy graph
	wl.TxnsPerThread = 8
	wl.ReadOpProb = 0.3
	wl.ReadTxnProb = 0.2
	placement, err := wl.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.NewTopology(core.DAGWT, placement, core.DefaultParams(), core.Shape{})
	if err != nil {
		t.Fatal(err)
	}

	core.RegisterPayloads()
	addrs := make(map[model.SiteID]string, wl.Sites)
	for s := range wl.Sites {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[model.SiteID(s)] = ln.Addr().String()
		ln.Close()
	}

	procs := [][]model.SiteID{{0, 1}, {2, 3}}
	recs := make([]*trace.Recorder, len(procs))
	engines := make(map[model.SiteID]core.Engine)
	for p, sites := range procs {
		recs[p] = trace.NewRecorder()
		sinks := core.Sinks{Metrics: metrics.NewCollector(false), Trace: recs[p]}
		for _, s := range sites {
			tr, err := comm.NewTCPTransport(s, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			e, _, err := cluster.OpenSite(core.DAGWT, topo, s, "", sinks, tr)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			engines[s] = e
		}
	}
	for s, e := range engines {
		gen := workload.NewTxnGen(wl, placement, s, wl.ClientSeed(s, 0))
		for range wl.TxnsPerThread {
			_ = e.Execute(gen.Next())
		}
	}

	// Drain until the live recorders stop growing with every forward
	// applied, then read back what each process wrote.
	deadline := time.Now().Add(30 * time.Second)
	for seen := -1; ; time.Sleep(50 * time.Millisecond) {
		evs := append(recs[0].Snapshot(), recs[1].Snapshot()...)
		if len(evs) == seen && len(trace.Explain(evs).Unapplied) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster not drained after 30s")
		}
		seen = len(evs)
	}
	dir := t.TempDir()
	files := make([]string, len(recs))
	for p, rec := range recs {
		files[p] = filepath.Join(dir, string(rune('a'+p))+".jsonl")
		f, err := os.Create(files[p])
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	events, err := readEvents(files...)
	if err != nil {
		t.Fatal(err)
	}

	if problems := trace.VerifySpans(events); len(problems) != 0 {
		t.Fatalf("joined traces fail span verification: %v", problems)
	}
	if x := explain(events); len(x.Unapplied) != 0 || len(x.Paths) != 1 || x.Paths[0].Committed == 0 {
		t.Fatalf("joined traces: unapplied %+v, paths %+v; want none unapplied and one DAG(WT) profile", x.Unapplied, x.Paths)
	}
	inB := func(s model.SiteID) bool { return s >= 2 }
	crossing := 0
	for _, tree := range trace.BuildSpanTrees(events) {
		sites := map[bool]bool{}
		for _, n := range tree.Nodes {
			sites[inB(n.Site)] = true
		}
		if sites[false] && sites[true] {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no span tree crossed the process boundary; the join is untested")
	}

	// Drop process b's consumptions: every transaction forwarded into b's
	// sites now reads as unapplied, and nothing else does.
	type edge struct{ from, to model.SiteID }
	want := make(map[edge]map[model.TxnID]bool)
	var dropped []trace.Event
	for _, ev := range events {
		if inB(ev.Site) && ev.Kind == trace.SecondaryConsumed {
			continue
		}
		dropped = append(dropped, ev)
		if ev.Kind == trace.SecondaryForwarded && inB(ev.Peer) {
			e := edge{ev.Site, ev.Peer}
			if want[e] == nil {
				want[e] = make(map[model.TxnID]bool)
			}
			want[e][ev.TID] = true
		}
	}
	got := explain(dropped).Unapplied
	fromA := 0
	for _, u := range got {
		tids := want[edge{u.From, u.To}]
		if u.Protocol != core.DAGWT.String() || u.Count != len(tids) {
			t.Errorf("unapplied %s s%d->s%d x%d, want DAG(WT) x%d", u.Protocol, u.From, u.To, u.Count, len(tids))
		}
		if !inB(u.From) {
			fromA++
		}
	}
	if len(got) != len(want) || fromA == 0 {
		t.Fatalf("unapplied names %d edges (%d from process a), want the %d edges into process b: %+v",
			len(got), fromA, len(want), got)
	}
}
