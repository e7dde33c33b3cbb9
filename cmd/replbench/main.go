// Command replbench regenerates the paper's evaluation (§5): it runs any
// of the registered experiments and prints the figure's series as a text
// table (or CSV for plotting).
//
// Usage:
//
//	replbench -list
//	replbench -exp fig2a -scale medium
//	replbench -exp fig3a -scale full -csv > fig3a.csv
//	replbench -exp all -scale quick
//	replbench -trace run.jsonl -traceproto dagt -watch -spans run.perfetto.json
//
// Scales: quick (seconds per point), medium (default), full (the paper's
// 1000 transactions per thread — expect a long run).
//
// The repo benchmark, against which performance claims are judged, is
// the separate benchmark/ module (docs/BENCHMARKING.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fresh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/watch"
	"repro/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment name (see -list), or 'all'")
		scale   = flag.String("scale", "medium", "workload scale: quick|medium|full")
		latency = flag.Duration("latency", 0, "override network latency (default 150µs)")
		seed    = flag.Int64("seed", 0, "override workload RNG seed")
		tree    = flag.Bool("tree", false, "use the general (bushy) propagation tree instead of the chain")
		minBack = flag.Bool("minbackedges", false, "compute the backedge set with the §4.2 weighted FAS heuristic (implies -tree)")
		csv     = flag.Bool("csv", false, "emit CSV instead of a table")
		plot    = flag.Bool("plot", false, "additionally render each figure as an ASCII chart")
		verify  = flag.Bool("verify", false, "record and check serializability for every point (slower)")
		list    = flag.Bool("list", false, "list experiments and exit")
		stats   = flag.Bool("stats", false, "print placement statistics for the Table 1 default configuration and exit")

		traceOut   = flag.String("trace", "", "run one traced cluster and write its propagation events to this JSONL file")
		traceProto = flag.String("traceproto", "backedge", "protocol for the -trace run: psl|dagwt|dagt|backedge")
		traceSkew  = flag.Float64("skew", 0, "with -trace: Zipf item-access skew (0 = the paper's uniform draw, >1 = Zipf s concentrating traffic on a hot set; pairs with -contend)")
		jsonOut    = flag.Bool("json", false, "with -trace: print the run's metrics report as JSON; with -exp: print every point as a JSON array instead of tables")

		faultDrop  = flag.Float64("faultdrop", 0, "with -trace: per-message drop probability injected under the engines (needs -reliable)")
		faultDup   = flag.Float64("faultdup", 0, "with -trace: per-message duplication probability (needs -reliable)")
		faultDelay = flag.Float64("faultdelay", 0, "with -trace: per-message extra-delay probability (0.5ms-3ms holds)")
		faultSeed  = flag.Int64("faultseed", 1, "seed rooting the fault injector's per-edge decision streams and the -chaossched schedule")
		reliable   = flag.Bool("reliable", false, "with -trace: wrap the network in the reliable-delivery sublayer (required when faults drop messages)")
		chaosSched = flag.Bool("chaossched", false, "with -trace: play a seeded partition-and-heal plus crash-and-restart schedule during the run (implies -reliable semantics; see docs/FAULTS.md)")

		walDir = flag.String("waldir", "", "with -trace: run every site over a write-ahead redo log kept under this directory (docs/DURABILITY.md); runs with a fault flag, -reliable or -chaossched always log, to a temporary directory without it, and a crashed site restarts from its log")

		spansOut  = flag.String("spans", "", "with -trace: also write the run as Chrome/Perfetto trace-event JSON to this file (open at ui.perfetto.dev; see docs/OBSERVABILITY.md)")
		watchOn   = flag.Bool("watch", false, "with -trace: run the staleness/liveness watchdog during the run and report its summary (a 'watch' block under -json)")
		flightDir = flag.String("flightdump", "", "with -trace: directory for the watchdog's flight-recorder JSONL dumps on alert (implies -watch)")

		contendOn  = flag.Bool("contend", false, "with -trace: report the contention observatory's live state — top-K item heat, abort root-cause breakdown, live wait-for snapshot (a 'contention' block under -json; critical paths: replexplain; see docs/OBSERVABILITY.md)")
		topK       = flag.Int("topk", 16, "with -contend: heat table size")
		waitforOut = flag.String("waitfor", "", "with -contend: write the wait-for graph snapshot, taken while the load's waits are live, as JSONL to this file (readable by replexplain)")

		freshOn = flag.Bool("fresh", false, "with -trace: report the freshness observatory's live state — replica staleness distributions and read-freshness certificates, which no trace carries (a 'freshness' block under -json; waterfalls: replexplain; see docs/OBSERVABILITY.md)")
	)
	flag.Parse()

	if *stats {
		printStats(*seed)
		return
	}

	if *traceOut != "" {
		fo := faultOptions{
			Drop: *faultDrop, Dup: *faultDup, Delay: *faultDelay,
			Seed: *faultSeed, Reliable: *reliable, Schedule: *chaosSched,
		}
		wo := watchOptions{
			Enable: *watchOn || *flightDir != "", FlightDir: *flightDir, Spans: *spansOut,
		}
		co := contendOptions{Enable: *contendOn || *waitforOut != "", TopK: *topK, WaitFor: *waitforOut}
		if err := runTraced(*traceOut, *traceProto, *seed, *traceSkew, *jsonOut, fo, wo, *walDir, co, *freshOn); err != nil {
			fatal(err)
		}
		return
	}
	if *freshOn {
		fatal(fmt.Errorf("-fresh only applies to a -trace run"))
	}
	if *traceSkew != 0 {
		fatal(fmt.Errorf("-skew only applies to a -trace run"))
	}
	if *spansOut != "" || *watchOn || *flightDir != "" {
		fatal(fmt.Errorf("-spans/-watch/-flightdump only apply to a -trace run"))
	}
	if *contendOn || *waitforOut != "" {
		fatal(fmt.Errorf("-contend/-waitfor only apply to a -trace run"))
	}
	if *walDir != "" {
		fatal(fmt.Errorf("-waldir only applies to a -trace run"))
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range repro.Experiments() {
			fmt.Printf("  %-14s %s\n", e.Name, e.Paper)
		}
		if *exp == "" {
			fmt.Println("\nrun one with: replbench -exp <name> [-scale quick|medium|full]")
		}
		return
	}

	sc, err := parseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opts := repro.ExperimentOptions{
		Scale:             sc,
		Latency:           *latency,
		Seed:              *seed,
		GeneralTree:       *tree,
		MinimizeBackedges: *minBack,
		Verify:            *verify,
	}

	var exps []repro.Experiment
	if *exp == "all" {
		exps = repro.Experiments()
	} else {
		e, err := repro.LookupExperiment(*exp)
		if err != nil {
			fatal(err)
		}
		exps = []repro.Experiment{e}
	}

	if *csv && *jsonOut {
		fatal(fmt.Errorf("-csv and -json are mutually exclusive for -exp runs"))
	}
	if *csv {
		fmt.Println(repro.ExperimentCSVHeader)
	}
	// expPoint is the scriptable shape of one measured sweep point: the
	// full metrics report (phase breakdown included) tagged with its
	// experiment, swept x, and protocol.
	type expPoint struct {
		Experiment string         `json:"experiment"`
		X          float64        `json:"x"`
		Protocol   string         `json:"protocol"`
		Report     metrics.Report `json:"report"`
	}
	var jsonPoints []expPoint
	for _, e := range exps {
		if e.Name == "table1" {
			if !*csv && !*jsonOut {
				fmt.Printf("== table1 — Parameter Settings (Table 1) ==\n")
				repro.PrintTable1(os.Stdout, opts)
				fmt.Println()
			}
			continue
		}
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		switch {
		case *jsonOut:
			for _, p := range res.Points {
				jsonPoints = append(jsonPoints, expPoint{
					Experiment: res.Name, X: p.X,
					Protocol: p.Protocol.String(), Report: p.Report,
				})
			}
			fmt.Fprintf(os.Stderr, "replbench: %s done in %s\n", e.Name, time.Since(start).Round(time.Second))
		case *csv:
			res.WriteCSVRows(os.Stdout)
		default:
			res.Print(os.Stdout)
			if *plot {
				res.PlotASCII(os.Stdout, 64, 16)
			}
			fmt.Printf("(%s in %s)\n\n", e.Name, time.Since(start).Round(time.Second))
		}
	}
	if *jsonOut {
		b, err := json.MarshalIndent(jsonPoints, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}

// faultOptions carries the -fault*/-reliable/-chaossched flags into the
// traced run: a seeded fault injector under the engines, the reliable
// sublayer hiding it, and optionally a partition/crash schedule.
type faultOptions struct {
	Drop, Dup, Delay float64
	Seed             int64
	Reliable         bool
	Schedule         bool
}

func (f faultOptions) active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Delay > 0 || f.Schedule
}

// watchOptions carries the -watch/-flightdump/-spans flags: the
// staleness/liveness watchdog riding on the traced run, and the Perfetto
// export of the recorded span stream.
type watchOptions struct {
	Enable    bool
	FlightDir string
	Spans     string
}

// contendOptions carries the -contend/-topk/-waitfor flags: the
// contention observatory riding on the traced run.
type contendOptions struct {
	Enable  bool
	TopK    int
	WaitFor string
}

// runTraced runs one short Table 1 cluster with the propagation trace
// recorder attached and writes every lifecycle event to out as JSONL.
// With jsonReport, the run's metrics report is printed as JSON instead of
// the human-readable line, so scripts can consume both artifacts; when
// fault injection or the WAL is on, the JSON also carries the
// repl_fault_*, repl_reliable_*, and repl_wal_* counters; with the
// watchdog on, a watch summary block (alert counts, max staleness,
// flight dumps). The sites log under walDir; a fault layer, which can
// crash a site, logs to a temporary directory when walDir is empty.
func runTraced(out, protoName string, seed int64, skew float64, jsonReport bool, fo faultOptions, wo watchOptions, walDir string, co contendOptions, freshOn bool) error {
	protocol, err := core.ParseProtocol(protoName)
	if err != nil {
		return err
	}
	wl := workload.Default()
	wl.TxnsPerThread = 100 // a traced run is a sample, not a benchmark
	if seed != 0 {
		wl.Seed = seed
	}
	wl.Skew = skew
	if !protocol.Propagates() || protocol == core.DAGWT || protocol == core.DAGT {
		// The Table 1 placement induces backedges; the DAG-only protocols
		// need them gone.
		wl.BackedgeProb = 0
	}
	rec := trace.NewRecorder()
	cfg := cluster.Config{
		Workload:         wl,
		Protocol:         protocol,
		Params:           core.DefaultParams(),
		Latency:          150 * time.Microsecond,
		TrackPropagation: true,
		Trace:            rec,
	}
	faulty := fo.active() || fo.Reliable
	var registry *obs.Registry
	if faulty || wo.Enable || walDir != "" || co.Enable || freshOn {
		registry = obs.NewRegistry()
		cfg.Obs = registry
	}
	if faulty && walDir == "" {
		var err error
		if walDir, err = os.MkdirTemp("", "replbench-wal-"); err != nil {
			return err
		}
		defer os.RemoveAll(walDir)
	}
	if walDir != "" {
		cfg.WALDir = walDir
		fmt.Fprintf(os.Stderr, "replbench: per-site redo logs in %s\n", walDir)
	}
	if faulty {
		cfg.Fault = &fault.Config{Seed: fo.Seed, Faults: fault.Faults{
			Drop: fo.Drop, Duplicate: fo.Dup, Delay: fo.Delay,
			DelayMin: 500 * time.Microsecond, DelayMax: 3 * time.Millisecond,
		}}
		cfg.Reliable = fo.Reliable
	}
	if wo.Enable {
		cfg.Watch = &watch.Options{FlightDir: wo.FlightDir}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	c.Start()
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(c.Stop) }
	defer stop()
	var player sync.WaitGroup
	if fo.Schedule {
		sched := fault.Generate(fo.Seed, wl.Sites, 2*time.Second)
		fmt.Fprintf(os.Stderr, "replbench: playing fault schedule:\n%s", sched)
		player.Add(1)
		go func() {
			defer player.Done()
			c.Fault().Play(sched)
		}()
	}
	// The wait-for snapshot is taken while the load runs, when the
	// hotspot's waits are live: the first non-empty one of a 1 ms poll.
	// Once the load has finished nothing waits, so only a run in which no
	// poll saw a waiter falls back to an end-of-load snapshot.
	var waitGraphs []contend.SiteWaitGraph
	endSampling := func() {}
	if co.Enable {
		done, seen := make(chan struct{}), make(chan []contend.SiteWaitGraph, 1)
		go func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					seen <- c.WaitGraphs()
					return
				case <-tick.C:
					if g := c.WaitGraphs(); !contend.EmptyWaitGraphs(g) {
						seen <- g
						return
					}
				}
			}
		}()
		endSampling = func() {
			close(done)
			waitGraphs = <-seen
		}
	}
	report, err := c.Run()
	endSampling()
	if err != nil {
		return err
	}
	player.Wait()
	if err := c.Quiesce(time.Minute); err != nil {
		return err
	}
	if err := writeFile(out, rec.WriteJSONL); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replbench: wrote %d events to %s\n", rec.Len(), out)
	if wo.Spans != "" {
		if err := writeFile(wo.Spans, func(w io.Writer) error { return trace.WriteChromeTrace(w, rec.Snapshot()) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "replbench: wrote Perfetto trace to %s (open at ui.perfetto.dev)\n", wo.Spans)
	}
	// Stop before summarizing: Stop runs the watchdog's final tick, so the
	// summary reflects the whole run.
	stop()
	var contention *contentionState
	if co.Enable {
		contention = &contentionState{Heat: c.Heat(co.TopK), WaitGraphs: waitGraphs, Aborts: c.AbortReasons()}
		if co.WaitFor != "" {
			if err := writeFile(co.WaitFor, func(w io.Writer) error { return contend.WriteWaitGraphs(w, waitGraphs) }); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "replbench: wrote wait-for snapshot to %s\n", co.WaitFor)
		}
	}
	var freshness *fresh.Summary
	if freshOn {
		// The report carries cluster totals only: a per-site row for the
		// tree root, which reads nothing but primaries, would always show
		// zero stale reads.
		if freshness = c.FreshSummary(); freshness != nil {
			freshness.Sites = nil
		}
	}
	if jsonReport {
		var b []byte
		if registry != nil {
			// Fault runs also publish what the injector did and what the
			// reliable sublayer absorbed, next to the usual report; watchdog
			// runs add the liveness summary.
			counters := make(map[string]int64)
			for k, v := range registry.Snapshot() {
				if strings.HasPrefix(k, "repl_fault_") || strings.HasPrefix(k, "repl_reliable_") ||
					strings.HasPrefix(k, "repl_wal_") || strings.HasPrefix(k, "repl_lock_") {
					counters[k] = v
				}
			}
			var ws *watch.Summary
			if w := c.Watch(); w != nil {
				s := w.Summarize()
				ws = &s
			}
			b, err = json.MarshalIndent(struct {
				Report     metrics.Report   `json:"report"`
				Counters   map[string]int64 `json:"counters"`
				Watch      *watch.Summary   `json:"watch,omitempty"`
				Contention *contentionState `json:"contention,omitempty"`
				Freshness  *fresh.Summary   `json:"freshness,omitempty"`
			}{report, counters, ws, contention, freshness}, "", "  ")
		} else {
			b, err = report.JSON()
		}
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("%v: %v\n", protocol, report)
		if registry != nil {
			var dropped, retrans, appends, replayed int64
			for k, v := range registry.Snapshot() {
				if strings.HasPrefix(k, "repl_fault_dropped_total") {
					dropped += v
				}
				if strings.HasPrefix(k, "repl_reliable_retransmits_total") {
					retrans += v
				}
				if strings.HasPrefix(k, "repl_wal_appends_total") {
					appends += v
				}
				if strings.HasPrefix(k, "repl_wal_replayed_total") {
					replayed += v
				}
			}
			fmt.Printf("faults: dropped=%d retransmits=%d\n", dropped, retrans)
			if walDir != "" {
				fmt.Printf("wal: appends=%d replayed=%d\n", appends, replayed)
			}
		}
		if w := c.Watch(); w != nil {
			s := w.Summarize()
			fmt.Printf("watch: raised=%v active=%d max_staleness=%dms flight_dumps=%d\n",
				s.AlertsRaised, s.ActiveAlerts, s.MaxStalenessMs, len(s.FlightDumps))
		}
		if contention != nil {
			contention.print()
		}
		if freshness != nil {
			fmt.Printf("freshness: reads=%d fresh=%d stale=%d (%.1f%% stale)  p95_read_lag=%dus  p95_apply_lag=%dus\n",
				freshness.Reads(), freshness.ReadsFresh, freshness.ReadsStale, freshness.StaleReadPct(),
				freshness.ReadTimeLagUS.P95, freshness.TimeLagUS.P95)
		}
		fmt.Printf("trace-derived views (aborts, critical paths, waterfalls, delays, phases): replexplain %s\n", out)
	}
	return nil
}

// contentionState is the -contend block: the contention observatory's
// live state, which no trace carries — the lock managers' heat, the
// wait-for snapshot taken during the load, and the engines' abort
// counters.
type contentionState struct {
	Heat       []contend.HeatEntry     `json:"heat"`
	WaitGraphs []contend.SiteWaitGraph `json:"wait_for,omitempty"`
	Aborts     map[string]uint64       `json:"aborts,omitempty"`
}

func (s *contentionState) print() {
	fmt.Println("== contention: item heat (top-K) ==")
	if len(s.Heat) == 0 {
		fmt.Println("(no contended items)")
	} else {
		printLines(contend.FormatHeat(s.Heat))
	}
	if len(s.Aborts) > 0 {
		fmt.Println("== contention: aborts by root cause ==")
		printLines(contend.FormatAborts(s.Aborts))
	}
	if !contend.EmptyWaitGraphs(s.WaitGraphs) {
		fmt.Println("== contention: wait-for snapshot ==")
		printLines(contend.FormatWaitGraphs(s.WaitGraphs))
	}
}

func printLines(lines []string) {
	for _, l := range lines {
		fmt.Println(l)
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats shows how the §5.2 data-distribution scheme behaves at the
// sweep endpoints — the counts the paper reasons with in §5.3 (e.g.
// "at r=1, there are almost 500 replicas in the system").
func printStats(seed int64) {
	for _, setting := range []struct {
		label string
		mut   func(*workload.Config)
	}{
		{"defaults (Table 1)", func(*workload.Config) {}},
		{"b=0", func(c *workload.Config) { c.BackedgeProb = 0 }},
		{"b=1", func(c *workload.Config) { c.BackedgeProb = 1 }},
		{"r=0.5", func(c *workload.Config) { c.ReplicationProb = 0.5 }},
		{"r=1", func(c *workload.Config) { c.ReplicationProb = 1 }},
	} {
		cfg := workload.Default()
		if seed != 0 {
			cfg.Seed = seed
		}
		setting.mut(&cfg)
		p, err := cfg.GeneratePlacement()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-20s %v\n", setting.label+":", workload.Stats(p))
	}
}

func parseScale(s string) (repro.Scale, error) {
	switch s {
	case "quick":
		return repro.ScaleQuick, nil
	case "medium":
		return repro.ScaleMedium, nil
	case "full":
		return repro.ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replbench:", err)
	os.Exit(1)
}
