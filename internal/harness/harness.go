// Package harness regenerates the paper's evaluation (§5): every figure
// and reported metric has a named experiment that sweeps the same
// parameter, runs the same protocols, and prints the series the paper
// plots. Absolute numbers differ from the 1999 testbed; the shapes (who
// wins, by what factor, where the crossovers fall) are the reproduction
// target — see EXPERIMENTS.md.
package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Scale selects how much of the paper-sized workload to run.
type Scale int

const (
	// Quick runs in seconds per point (CI-sized).
	Quick Scale = iota
	// Medium is the default for interactive use.
	Medium
	// Full is the paper's Table 1 workload (1000 txns/thread).
	Full
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("harness: unknown scale %q (quick|medium|full)", s)
	}
}

func (s Scale) txnsPerThread() int {
	switch s {
	case Full:
		return 1000
	case Medium:
		return 120
	default:
		return 25
	}
}

func (s Scale) opCost() time.Duration {
	// The prototype's per-operation work on a 296 MHz UltraSparc; scaled
	// down off Full so sweeps finish quickly while contention dynamics
	// survive.
	switch s {
	case Full:
		return 200 * time.Microsecond
	case Medium:
		return 100 * time.Microsecond
	default:
		return 50 * time.Microsecond
	}
}

// Options configures an experiment run.
type Options struct {
	Scale Scale
	// Latency overrides the Table 1 default (0.15 ms) when nonzero.
	Latency time.Duration
	// Seed overrides the workload seed when nonzero.
	Seed int64
	// GeneralTree selects the bushy propagation tree instead of the chain.
	GeneralTree bool
	// Jitter adds uniform random per-message delay in [0, Jitter).
	Jitter time.Duration
	// MinimizeBackedges selects the §4.2 weighted feedback-arc-set
	// heuristic for the backedge set (implies the general tree).
	MinimizeBackedges bool
	// Detect replaces pure timeout deadlock handling with the local
	// wait-for-graph detector (the X5 ablation).
	Detect bool
	// Verify additionally records and checks serializability and replica
	// convergence for every point (slower; used by tests).
	Verify bool

	// tweak, when set (tests only), adjusts every point's workload after
	// the experiment's own mutation — used to shrink sweeps to unit-test
	// size.
	tweak func(*workload.Config)
}

func (o Options) latency() time.Duration {
	if o.Latency > 0 {
		return o.Latency
	}
	return 150 * time.Microsecond
}

// baseWorkload is Table 1 adjusted for the run scale.
func (o Options) baseWorkload() workload.Config {
	wl := workload.Default()
	wl.TxnsPerThread = o.Scale.txnsPerThread()
	if o.Seed != 0 {
		wl.Seed = o.Seed
	}
	return wl
}

func (o Options) params() core.Params {
	p := core.DefaultParams()
	p.OpCost = o.Scale.opCost()
	p.DetectDeadlocks = o.Detect
	return p
}

// Point is one measured configuration.
type Point struct {
	X        float64
	Protocol core.Protocol
	Report   metrics.Report
}

// Result is a completed experiment.
type Result struct {
	Name   string
	Title  string
	XLabel string
	Points []Point
}

// RunPoint executes one cluster configuration through its full lifecycle
// and returns the report.
func RunPoint(cfg cluster.Config) (metrics.Report, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	c.Start()
	defer c.Stop()
	rep, err := c.Run()
	if err != nil {
		return rep, err
	}
	if qerr := c.Quiesce(2 * time.Minute); qerr != nil {
		return rep, qerr
	}
	if cfg.Record && cfg.Protocol.Serializable() {
		if serr := c.CheckSerializable(); serr != nil {
			return rep, fmt.Errorf("harness: %v claimed serializability but: %w", cfg.Protocol, serr)
		}
		if cfg.Protocol.Propagates() {
			if cerr := c.CheckConvergence(); cerr != nil {
				return rep, fmt.Errorf("harness: %v replicas diverged: %w", cfg.Protocol, cerr)
			}
		}
	}
	return rep, nil
}

// sweep runs protocols × xs, mutating the workload per x.
func (o Options) sweep(name, title, xlabel string, protos []core.Protocol,
	xs []float64, mut func(*workload.Config, float64)) (Result, error) {
	res := Result{Name: name, Title: title, XLabel: xlabel}
	for _, x := range xs {
		for _, proto := range protos {
			wl := o.baseWorkload()
			mut(&wl, x)
			if o.tweak != nil {
				o.tweak(&wl)
			}
			rep, err := RunPoint(cluster.Config{
				Workload:          wl,
				Protocol:          proto,
				Params:            o.params(),
				Latency:           o.latency(),
				Jitter:            o.Jitter,
				GeneralTree:       o.GeneralTree,
				MinimizeBackedges: o.MinimizeBackedges,
				Record:            o.Verify,
				TrackPropagation:  true,
			})
			if err != nil {
				return res, fmt.Errorf("%s at %s=%.2f (%v): %w", name, xlabel, x, proto, err)
			}
			res.Points = append(res.Points, Point{X: x, Protocol: proto, Report: rep})
		}
	}
	return res, nil
}

// Print renders the result as the rows/series the paper's figure plots:
// one row per x value, throughput and abort-rate columns per protocol.
func (r Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.Name, r.Title)
	// Collect protocol order as first encountered.
	var protos []core.Protocol
	seen := map[core.Protocol]bool{}
	for _, p := range r.Points {
		if !seen[p.Protocol] {
			seen[p.Protocol] = true
			protos = append(protos, p.Protocol)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", r.XLabel)
	for _, p := range protos {
		fmt.Fprintf(tw, "\t%s thr\t%s abort%%\t%s resp", p, p, p)
	}
	fmt.Fprintln(tw)
	byX := map[float64]map[core.Protocol]metrics.Report{}
	var xs []float64
	for _, p := range r.Points {
		if byX[p.X] == nil {
			byX[p.X] = map[core.Protocol]metrics.Report{}
			xs = append(xs, p.X)
		}
		byX[p.X][p.Protocol] = p.Report
	}
	for _, x := range xs {
		fmt.Fprintf(tw, "%.2f", x)
		for _, proto := range protos {
			rep := byX[x][proto]
			fmt.Fprintf(tw, "\t%.2f\t%.1f\t%s", rep.ThroughputPerSite, rep.AbortRate,
				rep.MeanResponse.Round(time.Millisecond))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// CSVHeader is the column row matching WriteCSVRows.
const CSVHeader = "experiment,x,protocol,throughput_per_site,abort_rate_pct,mean_response_ms,p95_response_ms,mean_prop_ms,messages,remote_reads,secondaries"

// PrintCSV emits the result for external plotting, header included.
func (r Result) PrintCSV(w io.Writer) {
	fmt.Fprintln(w, CSVHeader)
	r.WriteCSVRows(w)
}

// WriteCSVRows emits the data rows only, for concatenating experiments
// under a single header.
func (r Result) WriteCSVRows(w io.Writer) {
	for _, p := range r.Points {
		rep := p.Report
		fmt.Fprintf(w, "%s,%.3f,%s,%.3f,%.2f,%.3f,%.3f,%.3f,%d,%d,%d\n",
			r.Name, p.X, p.Protocol,
			rep.ThroughputPerSite, rep.AbortRate,
			float64(rep.MeanResponse)/1e6, float64(rep.P95Response)/1e6,
			float64(rep.MeanPropDelay)/1e6,
			rep.Messages, rep.RemoteReads, rep.Secondaries)
	}
}

// Get looks up the report for (x, protocol).
func (r Result) Get(x float64, proto core.Protocol) (metrics.Report, bool) {
	for _, p := range r.Points {
		if p.X == x && p.Protocol == proto {
			return p.Report, true
		}
	}
	return metrics.Report{}, false
}
