// Command benchmark is the repository's benchmark: six workloads driven
// through the cluster's public API by closed-loop clients, eleven
// end-to-end metrics per workload, probes of single layers, and a traced
// run that attributes the end-to-end numbers to layers. README.md in this
// directory says what each workload and metric is for.
//
// Two ways to run it, both from the repository root:
//
//	bash benchmark/run.sh -seed 1 -out report.json -spans spans.jsonl
//
// runs everything: the verification pass, then for every workload what
// the second form runs, with the layer probes run once in between. And
//
//	bash benchmark/run.sh --workload t1-dagwt --seed 3 --seconds 12 --trace 0
//
// runs one workload once and prints, as its last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1): the form BENCHMARK.json's command is called in.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// config sizes one invocation. The smoke test shrinks every field; the
// command line sets seed and seconds only.
type config struct {
	seed int64
	// seconds is the measured window of an untraced run. The traced pair
	// (an untraced and a traced run, see measureTraced) gets half of it
	// and half the warm-up each, in a full invocation as in a
	// single-workload one, so that the two print the same metrics.
	seconds      float64
	warm         time.Duration
	verifyWindow time.Duration
	// setups is how many times set-up is timed; setup_s is the median.
	setups     int
	probeScale int
	maxEvents  int
}

func defaultConfig() config {
	return config{
		seed:         1,
		seconds:      runSeconds,
		warm:         2 * time.Second,
		verifyWindow: 3 * time.Second,
		setups:       51,
		probeScale:   1,
		maxEvents:    2_000_000,
	}
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// value is one printed metric. N is the sample count behind a timing (0
// where the metric is not a summary of samples). Note says so when the
// value is not what the metric's name promises.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// workloadReport is what a full invocation records per workload.
type workloadReport struct {
	Name      string           `json:"name"`
	WindowS   float64          `json:"window_s"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	Traced    map[string]value `json:"traced"`
}

// report is the -out document of a full invocation: the baseline later
// changes are measured against.
type report struct {
	Seed       int64            `json:"seed"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	CPUModel   string           `json:"cpu_model"`
	Workloads  []workloadReport `json:"workloads"`
	Probes     map[string]value `json:"probes"`
}

// cpuModel reads the CPU model name; empty when the platform has no
// /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// named attaches units (and sample counts) to computed values, checking
// that exactly the declared metrics were computed and that each is a
// finite number.
func named(defs []metricDef, vals map[string]float64, counts map[string]int) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit, N: counts[d.Name]}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(vals), len(defs))
	}
	return out, nil
}

func printMetrics(title string, defs []metricDef, vals map[string]value) {
	fmt.Println(title)
	for _, d := range defs {
		v := vals[d.Name]
		line := fmt.Sprintf("  %-32s %14.4f %s", d.Name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf("  (n=%d)", v.N)
		}
		if v.Note != "" {
			line += "  [" + v.Note + "]"
		}
		fmt.Println(line)
	}
}

// timeSetups times set-up cfg.setups-1 times on throwaway clusters; the
// measured run's own set-up is the remaining sample.
func timeSetups(def workloadDef, cfg config) ([]float64, error) {
	var ds []float64
	for i := 1; i < cfg.setups; i++ {
		d, err := timeSetup(def, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, float64(d))
	}
	return ds, nil
}

// measureEndToEnd runs def untraced and returns its end-to-end metrics.
// The throwaway set-ups come first, so that they start from the same
// process state whatever the window is.
func measureEndToEnd(def workloadDef, cfg config) (*runResult, map[string]value, error) {
	setups, err := timeSetups(def, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := runOnce(def, cfg.seed, runOpts{warm: cfg.warm, window: cfg.window()})
	if err != nil {
		return res, nil, err
	}
	setup := time.Duration(median(append(setups, float64(res.setup))))
	counts := map[string]int{
		"setup_s":           cfg.setups,
		"resp_ro_mid_ms":    res.nRO,
		"resp_upd_mid_ms":   res.nUpd,
		"resp_worst1pct_ms": res.commits(),
	}
	vals, err := named(endToEnd, res.endToEndValues(setup), counts)
	if err != nil {
		return res, nil, err
	}
	// Every end-to-end metric must be printed on every workload, so a kind
	// of transaction the workload does not have (updates on
	// readonly-local) reads as all transactions, and says so.
	for name, n := range map[string]int{"resp_ro_mid_ms": res.nRO, "resp_upd_mid_ms": res.nUpd} {
		if n == 0 {
			v := vals[name]
			v.N, v.Note = res.commits(), "none of this kind: all transactions"
			vals[name] = v
		}
	}
	return res, vals, nil
}

// measureTraced runs def twice, untraced and then with the instruments
// attached, each for half the window after half the warm-up, and derives
// the traced per-layer metrics from the pair. It returns the traced
// run's client spans and the attempts and failures of both runs.
func measureTraced(def workloadDef, cfg config) (vals map[string]value, spans []span, attempted, failed int, err error) {
	opts := runOpts{warm: cfg.warm / 2, window: cfg.window() / 2}
	plain, err := runOnce(def, cfg.seed, opts)
	if plain != nil {
		attempted, failed = plain.attempts(), plain.failed
	}
	if err != nil {
		return nil, nil, attempted, failed, err
	}
	opts.traced, opts.maxEvents = true, cfg.maxEvents
	tr, err := runOnce(def, cfg.seed, opts)
	if tr != nil {
		attempted += tr.attempts()
		failed += tr.failed
	}
	if err != nil {
		return nil, nil, attempted, failed, err
	}
	vals, err = named(tracedMetrics, tracedValues(tr, plain), nil)
	return vals, tr.spans, attempted, failed, err
}

// measureProbes runs the layer probes.
func measureProbes(cfg config) (map[string]value, error) {
	probes, err := runProbes(cfg.probeScale)
	if err != nil {
		return nil, err
	}
	return named(probeMetrics, probes, nil)
}

// verify is the untimed correctness pass: every workload for a short
// window with the serializability recorder on, then the conflict-graph
// and convergence checks.
func verify(cfg config) error {
	for _, def := range workloads {
		_, err := runOnce(def, cfg.seed, runOpts{warm: 0, window: cfg.verifyWindow, record: true})
		if err != nil {
			return fmt.Errorf("verify %s (seed %d): %w", def.name, cfg.seed, err)
		}
		checks := "serializable, converged"
		if !def.proto.Propagates() {
			checks = "serializable" // PSL defines no convergence check
		}
		fmt.Printf("verify %-16s %s\n", def.name, checks)
	}
	return nil
}

// runAll is one full invocation after verification: for every workload
// what a single-workload invocation measures, untraced first, then the
// probes, then the traced pairs. Spans of the traced runs are appended
// to spans when it is non-nil.
func runAll(cfg config, spans *spanWriter) (*report, error) {
	rep := &report{
		Seed:       cfg.seed,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	for _, def := range workloads {
		res, vals, err := measureEndToEnd(def, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s (seed %d): %w", def.name, cfg.seed, err)
		}
		rep.Workloads = append(rep.Workloads, workloadReport{
			Name: def.name, WindowS: res.window.Seconds(),
			Attempted: res.attempts(), Failed: res.failed, EndToEnd: vals,
		})
		printMetrics(fmt.Sprintf("\n%s: end to end, %.1f s window, %d attempted, %d failed",
			def.name, res.window.Seconds(), res.attempts(), res.failed), endToEnd, vals)
	}

	var err error
	if rep.Probes, err = measureProbes(cfg); err != nil {
		return nil, err
	}
	printMetrics("\nlayer probes", probeMetrics, rep.Probes)

	for i, def := range workloads {
		vals, sp, _, _, err := measureTraced(def, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s traced (seed %d): %w", def.name, cfg.seed, err)
		}
		rep.Workloads[i].Traced = vals
		printMetrics(fmt.Sprintf("\n%s: traced pair, %.1f s windows, %d client spans",
			def.name, cfg.window().Seconds()/2, len(sp)), tracedMetrics, vals)
		if err := spans.write(def.name, sp); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// spanWriter appends client spans to the -spans file, one JSON object
// per line. A nil *spanWriter discards them.
type spanWriter struct {
	f *os.File
	w *bufio.Writer
}

func newSpanWriter(path string) (*spanWriter, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spanWriter{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *spanWriter) write(workload string, spans []span) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(s.w)
	for i := range spans {
		line := struct {
			Workload string `json:"workload"`
			span
		}{workload, spans[i]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

func (s *spanWriter) close() error {
	if s == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// runSingle is the form the BENCHMARK.json command is called in: one
// workload, once. It returns the metrics of the requested kind and the
// attempted and failed counts they rest on.
func runSingle(def workloadDef, cfg config, traced bool, spans *spanWriter) (vals map[string]value, attempted, failed int, err error) {
	if !traced {
		res, vals, err := measureEndToEnd(def, cfg)
		if res != nil {
			attempted, failed = res.attempts(), res.failed
		}
		if err != nil {
			return nil, attempted, failed, err
		}
		printMetrics(def.name+": end to end", endToEnd, vals)
		return vals, attempted, failed, nil
	}
	vals, err = measureProbes(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	tvals, sp, attempted, failed, err := measureTraced(def, cfg)
	if err != nil {
		return nil, attempted, failed, err
	}
	if err := spans.write(def.name, sp); err != nil {
		return nil, attempted, failed, err
	}
	for k, v := range tvals {
		vals[k] = v
	}
	printMetrics(def.name+": per layer", perLayer(), vals)
	return vals, attempted, failed, nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the window the driver passes as --seconds: what fits, six
// workloads by up to 136 runs, in the driver's total with set-up,
// warm-up and drain on top.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{w.name, w.why})
	}
	return m
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	cfg := defaultConfig()
	var (
		workloadName = flag.String("workload", "", "run only this workload, once, and print one JSON result line (see -trace)")
		traceFlag    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "write the full report as JSON to this file")
		spansPath    = flag.String("spans", "", "write the client spans of the traced runs to this file, one JSON object per line")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json, generated from the program's own tables, and exit")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seeds every client's transaction programs (the data placement is fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured window in seconds")
	flag.Parse()
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	if *printMan {
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	spans, err := newSpanWriter(*spansPath)
	if err != nil {
		fatal(err)
	}

	if *workloadName != "" {
		def, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		vals, attempted, failed, runErr := runSingle(def, cfg, *traceFlag == 1, spans)
		if err := spans.close(); err != nil && runErr == nil {
			runErr = err
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d): %v\n", def.name, cfg.seed, runErr)
		}
		if attempted == 0 {
			os.Exit(1) // nothing ran: there is no result to print
		}
		type metric struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		result := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{runErr == nil, attempted, failed, make(map[string]metric, len(vals))}
		for k, v := range vals {
			result.Metrics[k] = metric{v.Value, v.Unit}
		}
		line, err := json.Marshal(result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if runErr != nil {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("go %s, nproc %d, GOMAXPROCS %d, seed %d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed)
	if err := verify(cfg); err != nil {
		fatal(err)
	}
	rep, err := runAll(cfg, spans)
	if err != nil {
		fatal(err)
	}
	if err := spans.close(); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
