// Command replnode runs ONE site of the replicated database over real TCP
// sockets — the multi-process deployment the paper's prototype used (§5:
// DataBlitz instances communicating through sockets). Start one process
// per site with identical -sites/-items/-seed flags (so every node derives
// the same data placement) and distinct -site values:
//
//	replnode -site 0 -peers 0=:7700,1=:7701,2=:7702 -protocol backedge
//	replnode -site 1 -peers 0=:7700,1=:7701,2=:7702 -protocol backedge
//	replnode -site 2 -peers 0=:7700,1=:7701,2=:7702 -protocol backedge
//
// Each node waits for its peers, runs its local client threads, drains,
// and prints its report and its hottest items. With -trace each node
// also writes its events, and replexplain joins the nodes' files into one
// explanation of the whole run:
//
//	replnode -site 0 ... -trace node0.jsonl
//	replnode -site 1 ... -trace node1.jsonl
//	replexplain node0.jsonl node1.jsonl
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/watch"
	"repro/internal/workload"
)

func main() {
	var (
		site     = flag.Int("site", -1, "this node's site id (0..m-1)")
		peers    = flag.String("peers", "", "comma-separated id=host:port for EVERY site")
		proto    = flag.String("protocol", "backedge", "psl|dagwt|dagt|backedge")
		items    = flag.Int("items", 200, "number of items (same on all nodes)")
		seed     = flag.Int64("seed", 1, "placement seed (same on all nodes)")
		r        = flag.Float64("r", 0.2, "replication probability")
		s        = flag.Float64("s", 0.5, "site probability")
		b        = flag.Float64("b", 0.2, "backedge probability")
		threads  = flag.Int("threads", 3, "client threads at this site")
		txns     = flag.Int("txns", 100, "transactions per thread")
		readOp   = flag.Float64("readop", 0.7, "read operation probability")
		readTxn  = flag.Float64("readtxn", 0.5, "read transaction probability")
		opCost   = flag.Duration("opcost", 200*time.Microsecond, "simulated per-operation CPU cost")
		drain    = flag.Duration("drain", 3*time.Second, "time to keep serving after local threads finish")
		obsAddr  = flag.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		reliable = flag.Bool("reliable", false, "run the reliable-delivery sublayer over TCP (must match on every node); survives killed connections without message loss or reorder")
		watchOn  = flag.Bool("watch", false, "run the liveness watchdog on this node: queue/epoch/pending-2PC stall alerts on /metrics (with -obs) and in the exit summary")
		flight   = flag.String("flightdump", "", "with -watch: directory for flight-recorder JSONL dumps written when an alert fires")
		traceOut = flag.String("trace", "", "write this node's trace events as JSONL to this file after the drain (join several nodes' files with replexplain)")
		walDir   = flag.String("waldir", "", "write-ahead redo log directory for this site (docs/DURABILITY.md); restarting the process with the same directory recovers from snapshot + redo replay")
	)
	flag.Parse()

	addrs, err := parsePeers(*peers)
	if err != nil {
		fatal(err)
	}
	if *site < 0 || *site >= len(addrs) {
		fatal(fmt.Errorf("-site %d out of range for %d peers", *site, len(addrs)))
	}
	protocol, err := core.ParseProtocol(*proto)
	if err != nil {
		fatal(err)
	}

	wl := workload.Default()
	wl.Sites = len(addrs)
	wl.Items = *items
	wl.Seed = *seed
	wl.ReplicationProb = *r
	wl.SiteProb = *s
	wl.BackedgeProb = *b
	wl.ThreadsPerSite = *threads
	wl.TxnsPerThread = *txns
	wl.ReadOpProb = *readOp
	wl.ReadTxnProb = *readTxn

	placement, err := wl.GeneratePlacement()
	if err != nil {
		fatal(err)
	}
	top, err := cluster.DeriveTopology(graph.FromPlacement(placement), cluster.Config{Protocol: protocol})
	if err != nil {
		fatal(err) // DAG(WT)/DAG(T) over a cyclic placement: set -b 0
	}

	core.RegisterPayloads()
	tcp, err := comm.NewTCPTransport(model.SiteID(*site), addrs)
	if err != nil {
		fatal(err)
	}
	// The engines speak to tr; with -reliable that is the exactly-once FIFO
	// sublayer (sequence numbers, retransmission, dedup) wrapped around the
	// sockets, so a dropped TCP connection costs a reconnect and some
	// retransmits instead of lost protocol messages. Closing tr closes the
	// sockets too.
	var tr comm.Transport = tcp
	var rel *comm.Reliable
	if *reliable {
		comm.RegisterReliablePayloads()
		rel = comm.NewReliable(tcp, comm.ReliableConfig{})
		tr = rel
	}
	defer tr.Close()

	collector := metrics.NewCollector(false)
	params := core.DefaultParams()
	params.OpCost = *opCost

	// Live observability: a registry the engine and transport feed, served
	// over HTTP for scraping and ad-hoc inspection while the node runs.
	var registry *obs.Registry
	if *obsAddr != "" {
		registry = obs.NewRegistry()
		tcp.SetStats(obs.NewCommStats(registry))
		if rel != nil {
			rel.SetStats(obs.NewReliableStats(registry))
		}
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fatal(fmt.Errorf("-obs listen: %w", err))
		}
		srv := &http.Server{Handler: registry.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "replnode: obs server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("replnode: site %d observability on http://%s/metrics\n", *site, ln.Addr())
	}

	// The watchdog on a node watches what the node can see: its own
	// queues, epoch progress, and prepared-but-undecided 2PC entries.
	// Cross-site staleness needs both ends of an edge in one event stream,
	// so its deadline is pushed out of reach — a forward to a peer is
	// applied in the peer's process, invisible here. Joining every node's
	// -trace file with replexplain reports those forwards offline, as its
	// "unapplied" rows.
	var watchdog *watch.Watchdog
	var rec *trace.Recorder
	if *watchOn || *flight != "" || *traceOut != "" {
		rec = trace.NewRecorder()
		if rel != nil {
			rel.SetTrace(rec)
		}
	}
	if *watchOn || *flight != "" {
		watchdog = watch.New(watch.Options{
			StalenessDeadline: 24 * time.Hour,
			FlightDir:         *flight,
		})
		watchdog.SetObs(registry)
		watchdog.SetTrace(rec)
		rec.AddSink(watchdog.Ingest)
	}

	self := model.SiteID(*site)
	shared := &core.SharedConfig{
		Placement:    placement,
		Graph:        top.DAG,
		Order:        top.Order,
		Tree:         top.Tree,
		SubtreeItems: graph.SubtreeCopyItems(top.Tree, placement),
		Backedges:    top.BackSet,
		Params:       params,
		Metrics:      collector,
		Obs:          registry,
		Trace:        rec,
		Watch:        watchdog,
	}

	// With -waldir the node is durable: every commit is redo-logged with
	// group commit before it is externalized, and a killed process
	// restarted on the same directory rebuilds its store, in-doubt 2PC
	// entries, and propagation obligations from snapshot + replay. The
	// message stream is not made whole, even with -reliable: a restarted
	// Reliable numbers its messages from 1 again, so its peers drop and
	// acknowledge them as duplicates, and it buffers their retransmissions
	// as a gap (ROADMAP item 11).
	if *walDir != "" {
		lg, err := wal.Open(*walDir, wal.Options{
			Site:  model.SiteID(*site),
			Items: placement.CopiesAt(model.SiteID(*site)),
			Obs:   registry,
			Trace: rec,
		})
		if err != nil {
			fatal(err)
		}
		defer lg.Close()
		shared.WALs = map[model.SiteID]*wal.SiteLog{model.SiteID(*site): lg}
		fmt.Printf("replnode: site %d redo log in %s (incarnation %d)\n",
			*site, *walDir, lg.Incarnation())
	}
	engine, err := core.New(protocol, shared, self, tr)
	if err != nil {
		fatal(err)
	}
	// Contention observatory wiring (docs/OBSERVABILITY.md): a node sees
	// one site, so it dumps its local wait-for snapshot when a contention
	// alert fires and prints that site's heat table at exit.
	type contender interface {
		LockHeat() []lock.ItemStats
		LockWaitGraph() []lock.WaitEdge
	}
	if watchdog != nil {
		watchdog.RegisterWaitGraphs(func() []contend.SiteWaitGraph {
			return []contend.SiteWaitGraph{{Site: self, Edges: engine.(contender).LockWaitGraph()}}
		})
	}
	engine.Start()
	defer engine.Stop()
	watchdog.Start()
	defer watchdog.Stop()

	fmt.Printf("replnode: site %d of %d listening on %s (%v, %d backedges in graph)\n",
		*site, wl.Sites, tcp.Addr(), protocol, len(top.Backedges))
	waitForPeers(addrs, model.SiteID(*site))

	collector.Begin()
	var wg sync.WaitGroup
	for th := 0; th < wl.ThreadsPerSite; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			gen := workload.NewTxnGen(wl, placement, model.SiteID(*site), wl.Seed+int64(*site)*1000+int64(th)+7)
			for i := 0; i < wl.TxnsPerThread; i++ {
				_ = engine.Execute(gen.Next()) // aborts are counted in the report
			}
		}(th)
	}
	wg.Wait()
	collector.End()
	fmt.Printf("replnode: site %d local threads done; draining %v\n", *site, *drain)
	time.Sleep(*drain)
	fmt.Printf("replnode: site %d report: %v\n", *site, collector.Snapshot(1))
	fmt.Printf("replnode: site %d heat (top %d contended items):\n", *site, heatK)
	heat := contend.BuildHeat([]contend.SiteHeat{{Site: self, Items: engine.(contender).LockHeat()}}, heatK)
	for _, l := range contend.FormatHeat(heat) {
		fmt.Println(l)
	}
	if watchdog != nil {
		s := watchdog.Summarize()
		fmt.Printf("replnode: site %d watch: raised=%v active=%d flight_dumps=%d\n",
			*site, s.AlertsRaised, s.ActiveAlerts, len(s.FlightDumps))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rec); err != nil {
			fatal(fmt.Errorf("-trace: %w", err))
		}
		fmt.Printf("replnode: site %d trace (%d events) in %s\n", *site, rec.Len(), *traceOut)
	}
}

// heatK bounds the heat table the exit report prints.
const heatK = 10

// writeTrace writes the recorder's events to a new JSONL file.
func writeTrace(name string, rec *trace.Recorder) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parsePeers(spec string) (map[model.SiteID]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-peers is required (e.g. 0=:7700,1=:7701)")
	}
	out := make(map[model.SiteID]string)
	for _, part := range strings.Split(spec, ",") {
		var id int
		var addr string
		if n, err := fmt.Sscanf(part, "%d=%s", &id, &addr); n != 2 || err != nil {
			return nil, fmt.Errorf("bad peer spec %q", part)
		}
		if !strings.Contains(addr, ":") {
			return nil, fmt.Errorf("peer address %q must be host:port", addr)
		}
		out[model.SiteID(id)] = addr
	}
	for i := 0; i < len(out); i++ {
		if _, ok := out[model.SiteID(i)]; !ok {
			return nil, fmt.Errorf("peer ids must be contiguous from 0; missing %d", i)
		}
	}
	return out, nil
}

// waitForPeers blocks until every other site accepts TCP connections, so
// no protocol message is lost to a not-yet-listening peer.
func waitForPeers(addrs map[model.SiteID]string, self model.SiteID) {
	for id, addr := range addrs {
		if id == self {
			continue
		}
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				c.Close()
				break
			}
			fmt.Printf("replnode: waiting for site %d at %s\n", id, addr)
			time.Sleep(500 * time.Millisecond)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replnode:", err)
	os.Exit(1)
}
