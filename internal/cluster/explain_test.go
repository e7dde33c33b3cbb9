package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestExplainLiveEqualsJSONL holds the trace fold to "the same answer live
// or from a JSONL": on a seeded traced run of every engine, trace.Explain
// over the recorder's snapshot and over that snapshot's JSONL round trip
// marshal to the same bytes, its committed count is the report's, and its
// abort breakdown is the engines' counter banks'.
func TestExplainLiveEqualsJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
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
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.Seed = 5
			wl.BackedgeProb = pc.backedge
			wl.Skew = 2 // a hot spot, so that some transactions abort
			rec := trace.NewRecorder()
			c, err := New(Config{Workload: wl, Protocol: pc.proto, Params: fastParams(),
				Latency: 100 * time.Microsecond, Trace: rec})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c.Start()
			defer c.Stop()
			rep, err := c.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := c.Quiesce(30 * time.Second); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}

			live := rec.Snapshot()
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, live); err != nil {
				t.Fatal(err)
			}
			read, err := trace.ReadJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			x := trace.Explain(live)
			liveJSON, err := json.Marshal(x)
			if err != nil {
				t.Fatal(err)
			}
			readJSON, err := json.Marshal(trace.Explain(read))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveJSON, readJSON) {
				t.Fatalf("live and JSONL explanations differ:\n%s\n---\n%s", liveJSON, readJSON)
			}

			var committed int
			for _, p := range x.Paths {
				committed += p.Committed
			}
			if committed != int(rep.Committed) || committed == 0 {
				t.Errorf("explained %d commits, report %d", committed, rep.Committed)
			}
			if banks := c.AbortReasons(); !reflect.DeepEqual(x.Aborts, banks) {
				t.Errorf("explained aborts %v, counter banks %v", x.Aborts, banks)
			}
			t.Logf("%d commits, aborts %v", committed, x.Aborts)
			if pc.proto.Propagates() && len(x.Waterfalls) == 0 {
				t.Error("propagating run explained no waterfalls")
			}
		})
	}
}
