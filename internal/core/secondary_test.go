package core

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestSecondaryNeverWaitsHoldingALock: a secondary subtransaction writing
// [b, a] meets a local transaction that holds S(a) and will next read b —
// the client↔applier deadlock of a single-applier site. Refused on a, the
// secondary must release X(b) before it waits for a, so the local read of
// b is granted at once and nobody sits out a lock timeout. Rows: the
// lazy kernel's apply (DAG(WT)) and BackEdge's executeHolding.
func TestSecondaryNeverWaitsHoldingALock(t *testing.T) {
	const a, b = model.ItemID(0), model.ItemID(1)
	for _, row := range []struct {
		name            string
		proto           Protocol
		origin, replica model.SiteID
		base            func(Engine) *base
	}{
		{"DAG(WT) apply", DAGWT, 0, 1, func(e Engine) *base { return e.(*dagwtEngine).base }},
		{"BackEdge executeHolding", BackEdge, 1, 0, func(e Engine) *base { return e.(*backedgeEngine).base }},
	} {
		t.Run(row.name, func(t *testing.T) {
			params := testParams()
			// Long enough that no wait in the scenario can time out, and a
			// local read stuck behind the secondary shows clearly.
			params.LockTimeout = 200 * time.Millisecond
			params.PrepareTimeout = 5 * time.Second
			params.RPCTimeout = time.Second
			p := placement(t, 2, []model.SiteID{row.origin, row.origin},
				[][]model.SiteID{{row.replica}, {row.replica}})
			s := buildSystem(t, row.proto, p, params, 0)
			rb := row.base(s.engines[row.replica])

			local := rb.tm.Begin(rb.newTxnID())
			if _, err := local.Read(a); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- s.engines[row.origin].Execute([]model.Op{w(b, 5), w(a, 6)}) }()

			var sub model.TxnID
			waitFor(t, func() bool {
				for _, e := range rb.LockWaitGraph() {
					if e.Item == a && e.Waiter != local.ID {
						sub = e.Waiter
						return true
					}
				}
				return false
			}, "the secondary to queue on a")
			if n := rb.locks.HeldCount(sub); n != 0 {
				t.Errorf("the secondary waits on a holding %d locks, want none", n)
			}
			start := time.Now()
			if _, err := local.Read(b); err != nil {
				t.Fatalf("local read of b: %v", err)
			}
			if d := time.Since(start); d >= params.LockTimeout/2 {
				t.Errorf("local read of b took %v, want under %v", d, params.LockTimeout/2)
			}
			if err := local.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("origin: %v", err)
			}
			s.waitValue(t, row.replica, a, 6)
			s.waitValue(t, row.replica, b, 5)
			s.quiesce(t)
			if n := rb.lockStats().Timeouts; n != 0 {
				t.Errorf("%d lock timeouts at the replica, want 0", n)
			}
			if err := s.recorder.CheckSerializable(); err != nil {
				t.Error(err)
			}
		})
	}
}
