package cluster

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSeriesKeysGolden pins the live registry's surface: after a seeded,
// traced run on each engine, the repl_* series keys (family plus labels)
// must be exactly those in testdata/series_keys.golden. Values are not
// compared — they depend on timing — only which series exist. The
// transport's per-edge repl_comm_* series are left out: which edges carry
// a message at all (a 2PC decision inquiry, a DAG(T) dummy) depends on
// timing too. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/cluster -run TestSeriesKeysGolden.
func TestSeriesKeysGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	var sb strings.Builder
	for _, pc := range []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.PSL, 0.2},
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.2},
		{core.NaiveLazy, 0},
	} {
		wl := smallWorkload()
		wl.TxnsPerThread = 20
		wl.BackedgeProb = pc.backedge
		reg := obs.NewRegistry()
		c, err := New(Config{
			Workload: wl,
			Protocol: pc.proto,
			Params:   fastParams(),
			Latency:  100 * time.Microsecond,
			Trace:    trace.NewRecorder(),
			Obs:      reg,
		})
		if err != nil {
			t.Fatalf("%v: New: %v", pc.proto, err)
		}
		c.Start()
		if _, err := c.Run(); err != nil {
			t.Fatalf("%v: Run: %v", pc.proto, err)
		}
		if err := c.Quiesce(30 * time.Second); err != nil {
			t.Fatalf("%v: Quiesce: %v", pc.proto, err)
		}
		c.Stop()
		var keys []string
		for k := range reg.Snapshot() {
			if strings.HasPrefix(k, "repl_") && !strings.HasPrefix(k, "repl_comm_") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		sb.WriteString("# " + pc.proto.String() + "\n")
		for _, k := range keys {
			sb.WriteString(k + "\n")
		}
	}
	path := filepath.Join("testdata", "series_keys.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	got, wantLines := lineSet(sb.String()), lineSet(string(want))
	for k := range wantLines {
		if !got[k] {
			t.Errorf("series missing (in %s): %s", path, k)
		}
	}
	for k := range got {
		if !wantLines[k] {
			t.Errorf("series not in %s: %s", path, k)
		}
	}
}

// lineSet returns the lines of s, each prefixed with the engine section
// it falls under.
func lineSet(s string) map[string]bool {
	out := make(map[string]bool)
	section := ""
	for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
		if strings.HasPrefix(l, "# ") {
			section = l[2:]
			continue
		}
		out[section+": "+l] = true
	}
	return out
}
