package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs the whole set once at a fraction of its size: all six
// workloads untraced and traced, the probes at 1/100 of their iterations.
// named() inside runAll already fails on a metric that is missing,
// undeclared or not finite; this checks the report's shape on top.
func TestSmoke(t *testing.T) {
	cfg := defaultConfig()
	cfg.seconds = 0.3
	cfg.warm = 50 * time.Millisecond
	cfg.setups = 2
	cfg.probeScale = 100
	cfg.maxEvents = 200_000
	rep, err := runAll(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	check := func(where string, defs []metricDef, got map[string]value) {
		t.Helper()
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", where, len(got), len(defs))
		}
		for _, d := range defs {
			v, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: %s missing", where, d.Name)
				continue
			}
			if v.Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", where, d.Name, v.Unit, d.Unit)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", where, d.Name, v.Value)
			}
		}
	}
	for i, w := range rep.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, w.Attempted, w.Failed)
		}
		check(w.Name+" end to end", endToEnd, w.EndToEnd)
		check(w.Name+" traced", tracedMetrics, w.Traced)
		for _, m := range endToEnd {
			if w.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, w.EndToEnd[m.Name].Value)
			}
		}
	}
	check("probes", probeMetrics, rep.Probes)
}

// TestManifest holds BENCHMARK.json equal to the program's tables and
// both inside the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var onDisk manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with -manifest\n on disk: %+v\n program: %+v", onDisk, want)
	}

	m := want
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", m.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the name alphabet", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		name("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s, unit s, lower is better")
	}
	for _, d := range m.PerLayer {
		name("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

// TestSupportedTail pins the rule for which percentile a sample count
// supports: the highest with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{
		{0, p50}, {5, p50}, {19, p50}, {20, p50},
		{99, p50}, {100, p90}, {199, p90}, {200, p95},
		{999, p95}, {1000, p99}, {9999, p99}, {10000, p999}, {1 << 20, p999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := cappedTail(p99, 500); got != p95 {
		t.Errorf("p99 of 500 samples reports at %v, want %v", got, p95)
	}
	if got := cappedTail(p50, 1_000_000); got != p50 {
		t.Errorf("p50 of many samples reports at %v, want %v", got, p50)
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, p99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(nil, p50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}
