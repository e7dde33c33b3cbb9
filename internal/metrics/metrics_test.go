package metrics

import (
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func txid(n uint64) model.TxnID { return model.TxnID{Site: 0, Seq: n} }

func TestThroughputAndAbortRate(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	for s := model.SiteID(0); s < 3; s++ {
		b := c.Bank(s, int(NumCounts))
		b[Committed].Add(10)
		b[Aborted].Add(uint64(3 + s/2)) // 3, 3, 4
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
	if r.MaxPropDelay != r.MeanPropDelay {
		t.Errorf("prop delay: mean %v, max %v; want one sample", r.MeanPropDelay, r.MaxPropDelay)
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

// TestCounters pins Report's counts as sums over the sites' banks: each
// Count slot lands in its own field, slots past NumCounts in none, and a
// site's bank is created once and then shared.
func TestCounters(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	b0 := c.Bank(0, int(NumCounts)+2)
	b0[Messages].Add(3)
	b0[RemoteReads].Inc()
	b0[NumCounts].Add(100) // an engine's own slot: not a Report count
	c.Bank(1, int(NumCounts)+2)[Messages].Add(2)
	c.Bank(1, int(NumCounts)+2)[Dummies].Inc()
	c.Bank(0, int(NumCounts)+2)[Retries].Inc()
	c.Bank(2, int(NumCounts)+2)[Secondaries].Add(4)
	r := c.Snapshot(3)
	if r.Messages != 5 || r.RemoteReads != 1 || r.Dummies != 1 || r.Retries != 1 || r.Secondaries != 4 {
		t.Errorf("counters = %+v", r)
	}
	if r.Committed != 0 || r.Aborted != 0 {
		t.Errorf("engine slot leaked into Report: %+v", r)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Begin()
	c.TxnCommitted(txid(1), time.Second)
	c.SecondaryApplied(txid(1))
	b := c.Bank(0, int(NumCounts)) // private: counts, but reaches no Report
	b[Committed].Inc()
	if b[Committed].Value() != 1 {
		t.Error("nil collector's bank does not count")
	}
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
				b := c.Bank(model.SiteID(g%4), int(NumCounts))
				c.TxnCommitted(id, time.Microsecond)
				b[Committed].Inc()
				c.SecondaryApplied(id)
				b[Secondaries].Inc()
				b[Messages].Inc()
			}
		}(g)
	}
	wg.Wait()
	r := c.Snapshot(8)
	if r.Committed != 1600 || r.Messages != 1600 || r.Secondaries != 1600 {
		t.Errorf("lost updates: %+v", r)
	}
	if r.MeanResponse != time.Microsecond || r.P95PropDelay == 0 {
		t.Errorf("lost durations: %+v", r)
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

	// Nearest rank, not a rounded rank: over 1..12 ms, p95 is the 12th
	// sample (ceil(11.4) = 12), where rounding the rank would give 11 ms.
	twelve := make([]time.Duration, 12)
	for i := range twelve {
		twelve[i] = time.Duration(12-i) * time.Millisecond
	}
	if got := Percentile(twelve, 0.95); got != 12*time.Millisecond {
		t.Errorf("Percentile(1..12ms, 0.95) = %v, want 12ms", got)
	}
	if twelve[0] != 12*time.Millisecond {
		t.Error("Percentile reordered its input")
	}
}

// TestPercentilesNearestRank checks the one-sort helper the reports use
// against the nearest-rank definition, computed without sorting: the
// smallest sample with at least ceil(p*n) samples at or below it, the
// rank clamped to [1, n].
func TestPercentilesNearestRank(t *testing.T) {
	nearestRank := func(ds []time.Duration, p float64) time.Duration {
		if len(ds) == 0 {
			return 0
		}
		rank := min(max(int(math.Ceil(p*float64(len(ds)))), 1), len(ds))
		best := time.Duration(math.MaxInt64)
		for _, x := range ds {
			atOrBelow := 0
			for _, y := range ds {
				if y <= x {
					atOrBelow++
				}
			}
			if atOrBelow >= rank && x < best {
				best = x
			}
		}
		return best
	}
	ps := []float64{-1, 0, 0.5, 0.95, 0.99, 1, 2}
	for n := 0; n <= 40; n++ {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration((i*7919)%13) * time.Millisecond
		}
		out := make([]time.Duration, len(ps))
		Percentiles(ds, ps, out)
		for i, p := range ps {
			if want := nearestRank(ds, p); out[i] != want || Percentile(ds, p) != want {
				t.Errorf("n=%d p=%v: Percentiles %v, Percentile %v, want %v", n, p, out[i], Percentile(ds, p), want)
			}
		}
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
	bank := c.Bank(0, int(NumCounts))
	bank[Committed].Inc()
	bank[Aborted].Inc()
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
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == "" {
			t.Errorf("phase %d has no name", p)
		}
	}
}

// TestReservoirPercentilesCoverWholeRun feeds a run whose first 65 536
// samples are fast and whose remaining three quarters are slow: a
// keep-the-first-N buffer reports the warm-up (p50 = 1 ms), a uniform
// reservoir the run (p50 = 9 ms). Memory stays at the cap, and two
// identical runs report identical percentiles.
func TestReservoirPercentilesCoverWholeRun(t *testing.T) {
	run := func() Report {
		c := NewCollector(false)
		c.Begin()
		for i := 0; i < maxSamples; i++ {
			c.PhaseSample(PhaseApply, time.Millisecond)
		}
		for i := 0; i < 3*maxSamples; i++ {
			c.PhaseSample(PhaseApply, 9*time.Millisecond)
		}
		if n := len(c.phases[PhaseApply].samples); n != maxSamples {
			t.Fatalf("reservoir holds %d samples, want %d", n, maxSamples)
		}
		c.End()
		return c.Snapshot(1)
	}
	a, b := run().Phases[PhaseApply.String()], run().Phases[PhaseApply.String()]
	if a.P50 != 9*time.Millisecond {
		t.Errorf("p50 = %v, want 9ms (the run, not its first %d samples)", a.P50, maxSamples)
	}
	if a.Count != 4*maxSamples {
		t.Errorf("count = %d, want %d", a.Count, 4*maxSamples)
	}
	if a != b {
		t.Errorf("same input, different percentiles: %+v vs %+v", a, b)
	}
}

// TestShardBatchesIntoOneReservoir records the same response times
// through per-site shards, from concurrent clients, and directly into a
// second collector: under the reservoir budget both must report the same
// count, sum, max and percentiles. Each site's sample count leaves a
// partial batch, which a mid-run Snapshot and the final one must fold
// exactly once. Run it under -race.
func TestShardBatchesIntoOneReservoir(t *testing.T) {
	const (
		sites   = 3
		clients = 2                  // per site
		each    = 5*shardBatch/2 + 7 // per client: full batches and a partial one
		total   = sites * clients * each
	)
	if total >= maxSamples {
		t.Fatalf("%d samples exceed the reservoir budget", total)
	}
	resp := func(site, client, i int) time.Duration {
		return time.Duration((site*clients+client)*each+i+1) * time.Microsecond
	}
	direct, sharded := NewCollector(true), NewCollector(true)
	for s := 0; s < sites; s++ {
		for cl := 0; cl < clients; cl++ {
			for i := 0; i < each; i++ {
				direct.TxnCommitted(model.TxnID{Site: model.SiteID(s), Seq: uint64(cl*each + i + 1)}, resp(s, cl, i))
			}
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		sh := sharded.Shard(model.SiteID(s))
		if sh != sharded.Shard(model.SiteID(s)) {
			t.Fatal("Shard returned two shards for one site")
		}
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(s, cl int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					sh.TxnCommitted(model.TxnID{Site: model.SiteID(s), Seq: uint64(cl*each + i + 1)}, resp(s, cl, i))
					if i == each/2 {
						sharded.Snapshot(sites) // folds partial batches mid-run
					}
				}
			}(s, cl)
		}
	}
	wg.Wait()
	want, got := direct.Snapshot(sites), sharded.Snapshot(sites)
	if got.MeanResponse != want.MeanResponse || got.MaxResponse != want.MaxResponse ||
		got.P50Response != want.P50Response || got.P95Response != want.P95Response || got.P99Response != want.P99Response {
		t.Errorf("sharded report %v, direct %v", got, want)
	}
	d, sd := &direct.resp, &sharded.resp
	if sd.count != total || sd.count != d.count || sd.sum != d.sum || sd.max != d.max {
		t.Errorf("sharded count/sum/max = %d/%v/%v, direct %d/%v/%v, want count %d",
			sd.count, sd.sum, sd.max, d.count, d.sum, d.max, total)
	}
	a, b := slices.Clone(d.samples), slices.Clone(sd.samples)
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("sharded and direct reservoirs hold different samples")
	}
	for q := 0.05; q <= 1; q += 0.05 {
		if x, y := Percentile(a, q), Percentile(b, q); x != y {
			t.Errorf("p%.0f: sharded %v, direct %v", 100*q, y, x)
		}
	}
	// Commit times stay on the run-wide path: a propagation sample needs
	// the commit the shard recorded.
	sharded.SecondaryApplied(model.TxnID{Site: 0, Seq: 1})
	if r := sharded.Snapshot(sites); r.MaxPropDelay == 0 {
		t.Error("a commit recorded through a shard gave no propagation sample")
	}
	var none *Collector
	none.Shard(0).TxnCommitted(model.TxnID{Site: 0, Seq: 1}, time.Second) // a nil shard records nothing
}
