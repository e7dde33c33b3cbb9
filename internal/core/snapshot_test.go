package core

import (
	"testing"

	"repro/internal/model"
)

// TestReadOnlyLockingByProtocol: a read-only program takes no lock under
// DAG(WT), DAG(T) and NaiveLazy, whose sites run it as a snapshot reader,
// and shared locks under BackEdge and PSL, whose readers stay strict-2PL:
// a BackEdge participant installs an eager transaction at the 2PC
// decision, out of the FIFO order it executed in, and a snapshot reader
// could observe the gap (DESIGN.md §6).
func TestReadOnlyLockingByProtocol(t *testing.T) {
	for _, tc := range []struct {
		proto   Protocol
		locking bool
	}{
		{DAGWT, false}, {DAGT, false}, {NaiveLazy, false}, {BackEdge, true}, {PSL, true},
	} {
		e, err := New(tc.proto, allocConfig(t), 0, discardTransport{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Execute([]model.Op{r(0), r(1), r(0)}); err != nil {
			t.Fatalf("%v: %v", tc.proto, err)
		}
		got := lockStats(e).Acquired
		if (got > 0) != tc.locking {
			t.Errorf("%v: a read-only program took %d locks, want locking=%v", tc.proto, got, tc.locking)
		}
		e.Stop()
	}
}
