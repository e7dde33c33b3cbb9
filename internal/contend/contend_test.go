package contend

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/twopc"
	"repro/internal/wal"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want AbortReason
	}{
		{nil, ReasonUnknown},
		{errors.New("opaque"), ReasonUnknown},
		{lock.ErrTimeout, ReasonLockTimeout},
		{lock.ErrDeadlock, ReasonDeadlock},
		{twopc.ErrNoVote, ReasonNoVote},
		{wal.ErrFenced, ReasonWALFence},
		{lock.ErrLeaseExpired, ReasonLeaseExpired},
		// Wrapped the way the layers actually wrap: txn wraps lock,
		// engines wrap txn. Classification must survive the chain.
		{fmt.Errorf("txn: %w", fmt.Errorf("lock: %w", lock.ErrTimeout)), ReasonLockTimeout},
		{fmt.Errorf("core: aborted by 2PC: %w", twopc.ErrNoVote), ReasonNoVote},
		{fmt.Errorf("core: commit: %w", wal.ErrFenced), ReasonWALFence},
		{fmt.Errorf("core: %w: %w", errors.New("txn: aborted"), lock.ErrLeaseExpired), ReasonLeaseExpired},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestReasonNamesRoundTrip(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range Reasons() {
		name := r.String()
		if seen[name] {
			t.Errorf("duplicate reason name %q", name)
		}
		seen[name] = true
		var back AbortReason
		if err := back.UnmarshalText([]byte(name)); err != nil {
			t.Errorf("UnmarshalText(%q): %v", name, err)
		} else if back != r {
			t.Errorf("round trip %v -> %q -> %v", r, name, back)
		}
	}
	var r AbortReason
	if err := r.UnmarshalText([]byte("definitely-not-a-reason")); err == nil {
		t.Error("unknown reason name parsed without error")
	}
}

func TestBuildHeatMergesRanksAndBounds(t *testing.T) {
	sites := []SiteHeat{
		{Site: 0, Items: []lock.ItemStats{
			{Item: 1, Acquired: 10, Waited: 2, WaitNS: 100},
			{Item: 2, Acquired: 50}, // uncontended: must not appear
			{Item: 3, Acquired: 5, Timeouts: 1, WaitNS: 500, MaxWaitNS: 500, QueuePeak: 2},
		}},
		{Site: 1, Items: []lock.ItemStats{
			{Item: 1, Acquired: 4, Waited: 1, WaitNS: 700, MaxWaitNS: 650, QueuePeak: 3},
			{Item: 9, Acquired: 1, Wounds: 1},
		}},
	}
	heat := BuildHeat(sites, 0)
	if len(heat) != 3 {
		t.Fatalf("got %d entries, want 3 (uncontended item 2 excluded): %+v", len(heat), heat)
	}
	// Item 1: WaitNS 800 summed across two sites — hottest.
	if heat[0].Item != 1 || heat[0].WaitNS != 800 || heat[0].Sites != 2 ||
		heat[0].Acquired != 14 || heat[0].Waited != 3 ||
		heat[0].MaxWaitNS != 650 || heat[0].QueuePeak != 3 {
		t.Errorf("hottest entry wrong: %+v", heat[0])
	}
	if heat[1].Item != 3 || heat[2].Item != 9 {
		t.Errorf("rank order wrong: %v, %v", heat[1].Item, heat[2].Item)
	}
	if top := BuildHeat(sites, 1); len(top) != 1 || top[0].Item != 1 {
		t.Errorf("k=1 cut wrong: %+v", top)
	}
}

func TestMergeHeatFoldsTables(t *testing.T) {
	a := []HeatEntry{{Item: 7, Acquired: 3, Waited: 1, WaitNS: 40, MaxWaitNS: 40, QueuePeak: 1, Sites: 1}}
	b := []HeatEntry{
		{Item: 7, Acquired: 2, Waited: 2, WaitNS: 60, MaxWaitNS: 55, QueuePeak: 4, Sites: 2},
		{Item: 8, Timeouts: 1, WaitNS: 10, Sites: 1},
	}
	merged := MergeHeat([][]HeatEntry{a, b}, 0)
	if len(merged) != 2 || merged[0].Item != 7 {
		t.Fatalf("merge wrong: %+v", merged)
	}
	got := merged[0]
	want := HeatEntry{Item: 7, Acquired: 5, Waited: 3, WaitNS: 100, MaxWaitNS: 55, QueuePeak: 4, Sites: 3}
	if got != want {
		t.Errorf("folded entry = %+v, want %+v", got, want)
	}
	if top := MergeHeat([][]HeatEntry{a, b}, 1); len(top) != 1 {
		t.Errorf("k=1 cut wrong: %+v", top)
	}
}

// park blocks a goroutine acquiring item for owner and returns once the
// request is visibly queued in the manager's wait graph.
func park(t *testing.T, m *lock.Manager, owner model.TxnID, item model.ItemID, wantEdges int) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Acquire(owner, item, lock.Exclusive, 5*time.Second) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.WaitGraph()) < wantEdges {
		if time.Now().After(deadline) {
			t.Fatalf("request %v never queued", owner)
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestWaitGraphDumpDeterministic pins the satellite requirement that the
// same captured wait-for state always serializes to the same bytes, and
// that the dump round-trips.
func TestWaitGraphDumpDeterministic(t *testing.T) {
	m := lock.NewManager(false)
	holder := model.TxnID{Site: 0, Seq: 1}
	if err := m.Acquire(holder, 5, lock.Exclusive, time.Second); err != nil {
		t.Fatal(err)
	}
	w1 := park(t, m, model.TxnID{Site: 1, Seq: 2}, 5, 1)
	w2 := park(t, m, model.TxnID{Site: 2, Seq: 3}, 5, 2)

	snap := []SiteWaitGraph{
		{Site: 3, Edges: nil}, // quiet site: must not appear in the dump
		{Site: 0, Edges: m.WaitGraph()},
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteWaitGraphs(&buf1, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteWaitGraphs(&buf2, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Errorf("same state serialized differently:\n%s\n---\n%s", buf1.Bytes(), buf2.Bytes())
	}

	back, err := ReadWaitGraphs(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Site != 0 || len(back[0].Edges) != 2 {
		t.Fatalf("round trip wrong: %+v", back)
	}
	// AgeNS is capture-time wall clock, deliberately excluded from the
	// serialization; everything structural must survive.
	wantEdges := append([]lock.WaitEdge(nil), snap[1].Edges...)
	for i := range wantEdges {
		wantEdges[i].AgeNS = 0
	}
	if !reflect.DeepEqual(back[0].Edges, wantEdges) {
		t.Errorf("edges round trip:\ngot  %+v\nwant %+v", back[0].Edges, wantEdges)
	}
	if back[0].Edges[0].Waiter != (model.TxnID{Site: 1, Seq: 2}) || back[0].Edges[0].Pos != 0 {
		t.Errorf("queue order lost: %+v", back[0].Edges)
	}

	m.ReleaseAll(holder)
	for i, done := range []chan error{w1, w2} {
		if err := <-done; err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
		m.ReleaseAll(model.TxnID{Site: model.SiteID(i + 1), Seq: uint64(i + 2)})
	}
}
