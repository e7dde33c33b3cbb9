package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Golden coverage for the Prometheus text exposition's edge cases: the
// quiet corners (empty registry), the quoting rules (label values with
// quotes, backslashes, newlines), and histogram extremes (zero,
// negative, and beyond-last-bucket observations landing in the +Inf
// bucket). Regenerate with:
//
//	go test ./internal/obs -run TestWritePrometheusGolden -update
var update = os.Getenv("UPDATE_GOLDEN") != ""

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestWritePrometheusGoldenEmpty(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Errorf("empty registry rendered %q, want empty output", sb.String())
	}
	// A nil registry must render identically (the disabled-observation
	// contract).
	var nilReg *Registry
	sb.Reset()
	if err := nilReg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Errorf("nil registry rendered %q, want empty output", sb.String())
	}
}

func TestWritePrometheusGoldenEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("repl_esc_total", Label{Key: "q", Value: `say "hi"`}).Add(1)
	r.Counter("repl_esc_total", Label{Key: "q", Value: `back\slash`}).Add(2)
	r.Counter("repl_esc_total", Label{Key: "q", Value: "line\nbreak"}).Add(3)
	r.Gauge("repl_esc_gauge", Label{Key: "a", Value: "x"}, Label{Key: "b", Value: ""}).Set(-7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "prometheus_escaping.golden", sb.String())
}

func TestWritePrometheusGoldenHistogramExtremes(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repl_extreme_seconds", Label{Key: "site", Value: "0"})
	h.Observe(0)                // below the first bucket bound
	h.Observe(-time.Second)     // negative = "unknown": ignored by contract
	h.Observe(time.Microsecond) // exactly the first bound
	h.Observe(42 * time.Hour)   // far beyond the last bound: +Inf bucket
	h.Observe(1<<62 - 1)        // near-overflow duration, still +Inf
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	goldenCompare(t, "prometheus_histogram_extremes.golden", out)

	if !strings.Contains(out, `le="+Inf"} 4`) {
		t.Errorf("+Inf bucket must be cumulative over the 4 counted observations (negatives are ignored):\n%s", out)
	}
}
