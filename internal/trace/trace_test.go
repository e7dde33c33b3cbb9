package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

func tid(site, seq int) model.TxnID {
	return model.TxnID{Site: model.SiteID(site), Seq: uint64(seq)}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(TxnCommit, 0, model.NoSite, tid(0, 1), 1)
	if r.Len() != 0 {
		t.Fatalf("nil recorder Len = %d", r.Len())
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder Snapshot = %v", got)
	}
}

// The disabled-tracing hot path must never allocate: engines call Record
// unconditionally and rely on the nil check being free.
func TestNilRecorderNeverAllocates(t *testing.T) {
	var r *Recorder
	id := tid(3, 7)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(SecondaryApplied, 3, 1, id, 2)
	})
	if allocs != 0 {
		t.Fatalf("nil Record allocates %.1f per call", allocs)
	}
}

func TestRecordAndSnapshotSorted(t *testing.T) {
	r := NewRecorder()
	r.Record(TxnBegin, 0, model.NoSite, tid(0, 1), 1)
	r.Record(TxnCommit, 0, model.NoSite, tid(0, 1), 1)
	r.Record(SecondaryApplied, 5, 0, tid(0, 1), 1)
	evs := r.Snapshot()
	if len(evs) != 3 || r.Len() != 3 {
		t.Fatalf("got %d events, Len %d", len(evs), r.Len())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("events not sorted: %v before %v", evs[i-1], evs[i])
		}
	}
	if evs[0].Kind != TxnBegin || evs[2].Site != 5 || evs[2].Peer != 0 {
		t.Fatalf("unexpected events %v", evs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(SecondaryApplied, model.SiteID(g), model.NoSite, tid(g, i+1), 1)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != goroutines*per {
		t.Fatalf("lost events: %d != %d", r.Len(), goroutines*per)
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	r := NewRecorder()
	r.Record(TxnCommit, 2, model.NoSite, tid(2, 9), 3)
	r.Record(SecondaryForwarded, 2, 4, tid(2, 9), 3)
	r.Record(DummySent, 1, 3, model.TxnID{}, 2)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"SecondaryForwarded"`) {
		t.Fatalf("JSONL lacks readable kind names:\n%s", buf.String())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("roundtrip length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	evs, err := ReadJSONL(strings.NewReader("\n{\"t\":5,\"kind\":\"TxnCommit\",\"site\":1,\"peer\":-1,\"tsite\":1,\"tseq\":2,\"proto\":0}\n\n"))
	if err != nil || len(evs) != 1 || evs[0].TID != tid(1, 2) {
		t.Fatalf("evs=%v err=%v", evs, err)
	}
	if _, err := ReadJSONL(strings.NewReader("{nope}\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"NoSuchKind","site":0,"peer":0,"tsite":0,"tseq":1,"proto":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPropDelaysAndQuantile(t *testing.T) {
	id1, id2 := tid(0, 1), tid(1, 1)
	events := []Event{
		{T: 100, Kind: TxnCommit, Site: 0, TID: id1, Proto: 1},
		{T: 300, Kind: SecondaryApplied, Site: 2, TID: id1, Proto: 1},
		{T: 700, Kind: SecondaryApplied, Site: 3, TID: id1, Proto: 1},
		{T: 50, Kind: TxnCommit, Site: 1, TID: id2, Proto: 2},
		{T: 150, Kind: SecondaryApplied, Site: 0, TID: id2, Proto: 2},
		// Same TID under a different protocol must not match proto 1's commit.
		{T: 500, Kind: SecondaryApplied, Site: 4, TID: id1, Proto: 9},
	}
	d := PropDelays(events)
	if len(d[1]) != 2 || d[1][0] != 200 || d[1][1] != 600 {
		t.Fatalf("proto1 delays = %v", d[1])
	}
	if len(d[2]) != 1 || d[2][0] != 100 {
		t.Fatalf("proto2 delays = %v", d[2])
	}
	if len(d[9]) != 0 {
		t.Fatalf("cross-protocol contamination: %v", d[9])
	}
	if q := metrics.Percentile(nil, 0.95); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	if q := metrics.Percentile([]time.Duration{42}, 0.5); q != 42 {
		t.Fatalf("single-sample quantile = %v", q)
	}
	ds := []time.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if q := metrics.Percentile(ds, 0.5); q != 50 {
		t.Fatalf("p50 = %v", q)
	}
	if q := metrics.Percentile(ds, 1.0); q != 100 {
		t.Fatalf("p100 = %v", q)
	}
}

// TestRecordPhaseRoundtrip covers the latency-attribution events: the
// phase name and duration survive the JSONL round trip, and — because
// PhaseLatency events are span-less — they never show up in span trees,
// so wall-clock durations cannot perturb the byte-stable span structure
// the chaos tests pin.
func TestRecordPhaseRoundtrip(t *testing.T) {
	r := NewRecorder()
	r.RecordSpan(TxnCommit, 2, model.NoSite, tid(2, 9), 3, 1, 0)
	r.Add(Event{Kind: PhaseLatency, Site: 2, Peer: 4, TID: tid(2, 9), Proto: 3,
		Phase: "queue_wait", Dur: int64(1500 * time.Microsecond)})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"phase":"queue_wait"`) {
		t.Fatalf("JSONL lacks the phase name:\n%s", buf.String())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	found := false
	for _, e := range got {
		if e.Kind == PhaseLatency {
			ev, found = e, true
		}
	}
	if !found {
		t.Fatal("PhaseLatency event lost in round trip")
	}
	if ev.Phase != "queue_wait" || ev.Dur != int64(1500*time.Microsecond) {
		t.Errorf("phase fields lost: phase=%q dur=%d", ev.Phase, ev.Dur)
	}
	if ev.Span != 0 || ev.Parent != 0 {
		t.Errorf("phase events must be span-less, got span=%d parent=%d", ev.Span, ev.Parent)
	}
	trees := BuildSpanTrees(got)
	tree, ok := trees[tid(2, 9)]
	if !ok {
		t.Fatal("span tree for the commit missing")
	}
	for _, n := range tree.Nodes {
		if n.Has(PhaseLatency) {
			t.Error("PhaseLatency event leaked into a span tree")
		}
	}
	for _, ev := range tree.Orphans {
		if ev.Kind == PhaseLatency {
			t.Error("PhaseLatency event counted as a span orphan")
		}
	}

	var nilR *Recorder
	nilR.Add(Event{Kind: PhaseLatency, Phase: "apply", Dur: int64(time.Millisecond)}) // must not panic
}
