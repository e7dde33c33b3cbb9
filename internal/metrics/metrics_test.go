package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func txid(n uint64) model.TxnID { return model.TxnID{Site: 0, Seq: n} }

func TestThroughputAndAbortRate(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	for i := 0; i < 30; i++ {
		c.TxnCommitted(txid(uint64(i+1)), time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		c.TxnAborted()
	}
	time.Sleep(20 * time.Millisecond)
	c.End()
	r := c.Snapshot(3)
	if r.Committed != 30 || r.Aborted != 10 {
		t.Errorf("counts = %d/%d", r.Committed, r.Aborted)
	}
	if r.AbortRate != 25 {
		t.Errorf("abort rate = %v, want 25%%", r.AbortRate)
	}
	wantTPS := float64(30) / r.Elapsed.Seconds() / 3
	if diff := r.ThroughputPerSite - wantTPS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("throughput = %v, want %v", r.ThroughputPerSite, wantTPS)
	}
}

func TestResponseStats(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	for i := 1; i <= 100; i++ {
		c.TxnCommitted(txid(uint64(i)), time.Duration(i)*time.Millisecond)
	}
	r := c.Snapshot(1)
	if r.MeanResponse != 50500*time.Microsecond {
		t.Errorf("mean = %v", r.MeanResponse)
	}
	if r.P50Response != 50*time.Millisecond {
		t.Errorf("p50 = %v", r.P50Response)
	}
	if r.P95Response != 95*time.Millisecond {
		t.Errorf("p95 = %v", r.P95Response)
	}
	if r.MaxResponse != 100*time.Millisecond {
		t.Errorf("max = %v", r.MaxResponse)
	}
}

func TestPropagationDelay(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	c.TxnCommitted(txid(1), time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	c.SecondaryApplied(txid(1))
	c.SecondaryApplied(txid(99)) // unknown primary: no sample
	r := c.Snapshot(1)
	if r.Secondaries != 2 {
		t.Errorf("secondaries = %d", r.Secondaries)
	}
	if r.MeanPropDelay < 8*time.Millisecond {
		t.Errorf("prop delay = %v, want ~10ms", r.MeanPropDelay)
	}
}

func TestPropagationDisabled(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(txid(1), time.Millisecond)
	c.SecondaryApplied(txid(1))
	if r := c.Snapshot(1); r.MeanPropDelay != 0 {
		t.Errorf("prop delay tracked while disabled: %v", r.MeanPropDelay)
	}
}

func TestCounters(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.MsgSent(3)
	c.MsgSent(2)
	c.RemoteRead()
	c.Dummy()
	c.Retry()
	r := c.Snapshot(1)
	if r.Messages != 5 || r.RemoteReads != 1 || r.Dummies != 1 || r.Retries != 1 {
		t.Errorf("counters = %+v", r)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Begin()
	c.TxnCommitted(txid(1), time.Second)
	c.TxnAborted()
	c.SecondaryApplied(txid(1))
	c.MsgSent(1)
	c.RemoteRead()
	c.Dummy()
	c.Retry()
	c.End()
	if r := c.Snapshot(9); r.Committed != 0 {
		t.Errorf("nil collector recorded: %+v", r)
	}
}

func TestSnapshotWithoutEndUsesNow(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(txid(1), time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	r := c.Snapshot(1)
	if r.Elapsed < 4*time.Millisecond {
		t.Errorf("elapsed = %v", r.Elapsed)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := model.TxnID{Site: model.SiteID(g), Seq: uint64(i + 1)}
				c.TxnCommitted(id, time.Microsecond)
				c.SecondaryApplied(id)
				c.MsgSent(1)
			}
		}(g)
	}
	wg.Wait()
	r := c.Snapshot(8)
	if r.Committed != 1600 || r.Messages != 1600 || r.Secondaries != 1600 {
		t.Errorf("lost updates: %+v", r)
	}
}

func TestReportString(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(txid(1), time.Millisecond)
	s := c.Snapshot(1).String()
	if s == "" {
		t.Error("empty report string")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	var d durStats
	if got := d.percentile(0.95); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	d.add(7 * time.Millisecond)
	for _, p := range []float64{-1, 0, 0.5, 0.95, 1, 2} {
		if got := d.percentile(p); got != 7*time.Millisecond {
			t.Errorf("single-sample percentile(%v) = %v, want the sample", p, got)
		}
	}
	d.add(1 * time.Millisecond)
	d.add(3 * time.Millisecond)
	if got := d.percentile(-1); got != time.Millisecond {
		t.Errorf("percentile(-1) = %v, want the minimum", got)
	}
	if got := d.percentile(2); got != 7*time.Millisecond {
		t.Errorf("percentile(2) = %v, want the maximum", got)
	}
	if got := d.percentile(0.5); got != 3*time.Millisecond {
		t.Errorf("percentile(0.5) = %v, want the median", got)
	}
}

func TestSnapshotSingleSample(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	c.TxnCommitted(txid(1), 5*time.Millisecond)
	c.SecondaryApplied(txid(1))
	c.End()
	r := c.Snapshot(1)
	if r.P50Response != 5*time.Millisecond || r.P95Response != 5*time.Millisecond {
		t.Errorf("single-sample response percentiles = %v/%v, want the sample", r.P50Response, r.P95Response)
	}
	if r.P95PropDelay == 0 || r.P95PropDelay != r.MaxPropDelay {
		t.Errorf("single-sample propagation p95 = %v, max = %v", r.P95PropDelay, r.MaxPropDelay)
	}
}

func TestReportJSON(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(txid(1), time.Millisecond)
	c.TxnAborted()
	c.End()
	b, err := c.Snapshot(1).JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Committed != 1 || back.Aborted != 1 || back.MeanResponse != time.Millisecond {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

// TestReportJSONFieldNamesFrozen pins the Report JSON schema: replbench
// -json, the replwatch HTTP export, and downstream tooling all parse
// these keys, so removing or renaming one is a breaking change. New fields
// may be appended; add them to the frozen list here when they land.
func TestReportJSONFieldNamesFrozen(t *testing.T) {
	frozen := []string{
		"Elapsed", "Committed", "Aborted", "ThroughputPerSite", "AbortRate",
		"MeanResponse", "P50Response", "P95Response", "MaxResponse",
		"MeanPropDelay", "P95PropDelay", "MaxPropDelay", "P99Response",
		"Messages", "RemoteReads", "Secondaries", "Dummies", "Retries",
		"Phases",
	}
	r := Report{Phases: map[string]PhaseStats{PhaseLockWait.String(): {Count: 1}}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatalf("unmarshal keys: %v", err)
	}
	for _, name := range frozen {
		if _, ok := keys[name]; !ok {
			t.Errorf("Report JSON lost frozen field %q: renaming or removing it breaks consumers of the snapshot schema", name)
		}
		delete(keys, name)
	}
	for name := range keys {
		t.Errorf("Report JSON gained field %q: append it to the frozen list to pin it", name)
	}
}

// TestPhaseSample exercises the phase-attribution path: samples land in
// the right bucket, negative durations are clamped, unknown phases and
// nil collectors are dropped, and Snapshot exposes only non-empty phases.
func TestPhaseSample(t *testing.T) {
	var nilC *Collector
	nilC.PhaseSample(PhaseLockWait, time.Millisecond) // must not panic

	c := NewCollector(false)
	c.Begin()
	c.PhaseSample(PhaseLockWait, 2*time.Millisecond)
	c.PhaseSample(PhaseLockWait, 4*time.Millisecond)
	c.PhaseSample(PhaseApply, -time.Second) // clamps to 0
	c.PhaseSample(Phase(250), time.Second)  // out of range: dropped
	c.End()
	r := c.Snapshot(1)

	lw, ok := r.Phases[PhaseLockWait.String()]
	if !ok || lw.Count != 2 {
		t.Fatalf("lock_wait phase = %+v, ok=%v; want 2 samples", lw, ok)
	}
	if lw.Max != 4*time.Millisecond || lw.Total != 6*time.Millisecond {
		t.Errorf("lock_wait max/total = %v/%v, want 4ms/6ms", lw.Max, lw.Total)
	}
	if ap := r.Phases[PhaseApply.String()]; ap.Count != 1 || ap.Max != 0 {
		t.Errorf("apply phase = %+v, want one clamped-to-zero sample", ap)
	}
	if _, ok := r.Phases[PhaseQueueWait.String()]; ok {
		t.Errorf("empty phase %s should be omitted from the report", PhaseQueueWait)
	}
	for _, p := range Phases() {
		if p.String() == "" {
			t.Errorf("phase %d has no name", p)
		}
	}
}
