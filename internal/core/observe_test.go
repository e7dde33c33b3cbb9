package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// TestDAGTQueueGaugeDrains pins the DAG(T) timestamp-hold queue's
// repl_queue_depth{queue="ts"} series to the queues themselves: the
// registry reads their length at every scrape, so after propagation
// quiesces the series returns to zero.
func TestDAGTQueueGaugeDrains(t *testing.T) {
	p := placement(t, 2,
		[]model.SiteID{0},
		[][]model.SiteID{{1}})
	s := buildSystem(t, DAGT, p, testParams(), time.Millisecond)
	for i := 1; i <= 5; i++ {
		if err := s.engines[0].Execute([]model.Op{w(0, int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.waitValue(t, 1, 0, 5)
	s.quiesce(t)

	// Secondaries flowed, so the gauge was exercised.
	if got := s.collector.Snapshot(2).Secondaries; got == 0 {
		t.Fatal("no secondaries applied; the queue gauge was never exercised")
	}
	// Dummies keep arriving while the system idles, so the series can be
	// transiently positive; with a single parent every arrival is popped
	// promptly, so it must keep returning to zero.
	const key = `repl_queue_depth{queue="ts",site="1"}`
	var depth int64
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if depth = s.registry.Snapshot()[key]; depth == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("ts queue series never drained back to zero (stuck at %d)", depth)
}

// TestFailedSnapshotCountsItsReads: a snapshot reader counts its reads
// once, when the program ends, and one that fails mid-program counts only
// the reads that succeeded. At s0, which holds item 0 but not item 1, the
// third read fails.
func TestFailedSnapshotCountsItsReads(t *testing.T) {
	s := buildSystem(t, DAGWT, example11Placement(t), testParams(), time.Millisecond)
	if err := s.engines[0].Execute([]model.Op{r(0), r(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.engines[0].Execute([]model.Op{r(0), r(0), r(1), r(0)}); err == nil {
		t.Fatal("a snapshot read of an item s0 does not hold succeeded")
	}
	s.quiesce(t)
	var reads int64
	for key, n := range s.registry.Snapshot() {
		if strings.HasPrefix(key, "repl_txn_reads_total{") {
			reads += n
		}
	}
	if reads != 4 {
		t.Errorf("repl_txn_reads_total = %d, want 4: two programs' successful reads", reads)
	}
}

// TestNoTrackerCountsReadsOnly: a site built without a freshness tracker,
// as a TCP node is, still counts every read in repl_txn_reads_total.
func TestNoTrackerCountsReadsOnly(t *testing.T) {
	for _, proto := range []Protocol{DAGWT, PSL} {
		t.Run(proto.String(), func(t *testing.T) {
			s := buildSystem(t, proto, example11Placement(t), testParams(), time.Millisecond)
			for _, run := range []struct {
				site model.SiteID
				ops  []model.Op
			}{
				{0, []model.Op{w(0, 1), r(0)}}, // an own-write read
				{1, []model.Op{r(1), w(1, 2)}}, // a locking read
				{2, []model.Op{r(0), r(1)}},    // a snapshot read, or remote under PSL
			} {
				if err := s.engines[run.site].Execute(run.ops); err != nil {
					t.Fatalf("s%d: %v", run.site, err)
				}
			}
			s.quiesce(t)
			var reads int64
			for key, n := range s.registry.Snapshot() {
				if strings.HasPrefix(key, "repl_txn_reads_total{") {
					reads += n
				}
			}
			if reads != 4 {
				t.Errorf("repl_txn_reads_total = %d, want 4", reads)
			}
		})
	}
}
