package lock

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

func tid(n uint64) model.TxnID { return model.TxnID{Site: 0, Seq: n} }

const wait = 200 * time.Millisecond

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager(false)
	for i := uint64(1); i <= 3; i++ {
		if err := m.Acquire(tid(i), 1, Shared, wait); err != nil {
			t.Fatalf("S lock %d: %v", i, err)
		}
	}
	if n := m.HeldCount(tid(1)); n != 1 {
		t.Errorf("HeldCount = %d", n)
	}
}

func TestExclusiveExcludes(t *testing.T) {
	m := NewManager(false)
	if err := m.Acquire(tid(1), 1, Exclusive, wait); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(tid(2), 1, Shared, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("S behind X should time out, got %v", err)
	}
	if err := m.Acquire(tid(2), 1, Exclusive, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("X behind X should time out, got %v", err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager(false)
	if err := m.Acquire(tid(1), 1, Exclusive, wait); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(tid(1), 1, Exclusive, wait); err != nil {
		t.Errorf("reacquire X: %v", err)
	}
	if err := m.Acquire(tid(1), 1, Shared, wait); err != nil {
		t.Errorf("weaker reacquire: %v", err)
	}
	if mode, ok := m.Holds(tid(1), 1); !ok || mode != Exclusive {
		t.Errorf("lock downgraded: %v %v", mode, ok)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager(false)
	if err := m.Acquire(tid(1), 1, Shared, wait); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(tid(1), 1, Exclusive, wait); err != nil {
		t.Errorf("upgrade as sole holder: %v", err)
	}
	if mode, _ := m.Holds(tid(1), 1); mode != Exclusive {
		t.Error("mode not upgraded")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := NewManager(false)
	if err := m.Acquire(tid(1), 1, Shared, wait); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(tid(2), 1, Shared, wait); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(tid(1), 1, Exclusive, wait) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("upgrade granted while another reader holds: %v", err)
	default:
	}
	m.ReleaseAll(tid(2))
	if err := <-done; err != nil {
		t.Fatalf("upgrade after release: %v", err)
	}
}

func TestUpgradeDeadlockBetweenTwoReadersTimesOut(t *testing.T) {
	m := NewManager(false)
	_ = m.Acquire(tid(1), 1, Shared, wait)
	_ = m.Acquire(tid(2), 1, Shared, wait)
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(tid(1), 1, Exclusive, 50*time.Millisecond) }()
	go func() { errs <- m.Acquire(tid(2), 1, Exclusive, 50*time.Millisecond) }()
	e1, e2 := <-errs, <-errs
	if !errors.Is(e1, ErrTimeout) && !errors.Is(e2, ErrTimeout) {
		t.Errorf("classic upgrade deadlock must time out at least one: %v %v", e1, e2)
	}
}

func TestFIFOWritersBeforeLateReaders(t *testing.T) {
	// Holder: S by t1. Queue: X by t2, then S by t3. t3 must not overtake
	// t2 even though it is compatible with the current holder.
	m := NewManager(false)
	_ = m.Acquire(tid(1), 1, Shared, wait)
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := m.Acquire(tid(2), 1, Exclusive, time.Second); err == nil {
			mu.Lock()
			order = append(order, 2)
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			m.ReleaseAll(tid(2))
		}
	}()
	time.Sleep(20 * time.Millisecond) // ensure t2 queues first
	go func() {
		defer wg.Done()
		if err := m.Acquire(tid(3), 1, Shared, time.Second); err == nil {
			mu.Lock()
			order = append(order, 3)
			mu.Unlock()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(tid(1))
	wg.Wait()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Errorf("grant order = %v, want [2 3]", order)
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := NewManager(false)
	_ = m.Acquire(tid(1), 1, Exclusive, wait)
	_ = m.Acquire(tid(1), 2, Exclusive, wait)
	got := make(chan error, 2)
	go func() { got <- m.Acquire(tid(2), 1, Exclusive, time.Second) }()
	go func() { got <- m.Acquire(tid(3), 2, Shared, time.Second) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(tid(1))
	if err := <-got; err != nil {
		t.Errorf("waiter 1: %v", err)
	}
	if err := <-got; err != nil {
		t.Errorf("waiter 2: %v", err)
	}
}

func TestReleaseSingleItem(t *testing.T) {
	m := NewManager(false)
	_ = m.Acquire(tid(1), 1, Exclusive, wait)
	_ = m.Acquire(tid(1), 2, Exclusive, wait)
	m.Release(tid(1), 1)
	if _, held := m.Holds(tid(1), 1); held {
		t.Error("item 1 still held")
	}
	if _, held := m.Holds(tid(1), 2); !held {
		t.Error("item 2 should still be held")
	}
	if err := m.Acquire(tid(2), 1, Exclusive, 10*time.Millisecond); err != nil {
		t.Errorf("released lock not grantable: %v", err)
	}
}

func TestZeroTimeoutFailsFast(t *testing.T) {
	m := NewManager(false)
	_ = m.Acquire(tid(1), 1, Exclusive, wait)
	start := time.Now()
	err := m.Acquire(tid(2), 1, Shared, 0)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want immediate timeout, got %v", err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Error("zero timeout should not wait")
	}
}

func TestDeadlockDetector(t *testing.T) {
	m := NewManager(true)
	_ = m.Acquire(tid(1), 1, Exclusive, wait)
	_ = m.Acquire(tid(2), 2, Exclusive, wait)
	// t1 waits for item 2 (held by t2) in the background...
	bg := make(chan error, 1)
	go func() { bg <- m.Acquire(tid(1), 2, Exclusive, 5*time.Second) }()
	time.Sleep(30 * time.Millisecond)
	// ...so t2 requesting item 1 would close the cycle; the detector must
	// refuse immediately.
	start := time.Now()
	err := m.Acquire(tid(2), 1, Exclusive, 5*time.Second)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("detector should fail fast, not wait for the timeout")
	}
	m.ReleaseAll(tid(2))
	if err := <-bg; err != nil {
		t.Errorf("victim released, waiter should proceed: %v", err)
	}
	if m.Stats().Deadlocks == 0 {
		t.Error("deadlock counter not bumped")
	}
}

func TestStatsCounters(t *testing.T) {
	m := NewManager(false)
	_ = m.Acquire(tid(1), 1, Exclusive, wait)
	_ = m.Acquire(tid(2), 1, Exclusive, 10*time.Millisecond) // timeout
	s := m.Stats()
	if s.Acquired != 1 || s.Timeouts != 1 || s.Waited != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.WaitTime <= 0 {
		t.Error("wait time not accumulated")
	}
}

// TestNoConflictingGrantsUnderStress hammers the manager from many
// goroutines and asserts the core safety invariant: an exclusive holder is
// always alone on its item.
func TestNoConflictingGrantsUnderStress(t *testing.T) {
	m := NewManager(false)
	const items = 8
	var holders [items]atomic.Int64 // +1000 for X, +1 per S
	var violations atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				owner := model.TxnID{Site: model.SiteID(g), Seq: uint64(i + 1)}
				item := model.ItemID(rng.Intn(items))
				mode := Shared
				if rng.Intn(2) == 0 {
					mode = Exclusive
				}
				if err := m.Acquire(owner, item, mode, 30*time.Millisecond); err != nil {
					continue
				}
				if mode == Exclusive {
					if v := holders[item].Add(1000); v != 1000 {
						violations.Add(1)
					}
					holders[item].Add(-1000)
				} else {
					v := holders[item].Add(1)
					if v >= 1000 {
						violations.Add(1)
					}
					holders[item].Add(-1)
				}
				m.ReleaseAll(owner)
			}
		}(g)
	}
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d conflicting grants observed", n)
	}
}

// TestRecycledWaiterNeverSeesAStaleTimeout: waits that time out hand
// their waiter back for reuse; a later long wait on the same manager must
// run its own timeout, not inherit an expiry from an earlier one.
func TestRecycledWaiterNeverSeesAStaleTimeout(t *testing.T) {
	m := NewManager(false)
	a, b := tid(1), tid(2)
	for round := 0; round < 20; round++ {
		if err := m.Acquire(a, 1, Exclusive, wait); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(b, 1, Exclusive, time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: short wait = %v, want ErrTimeout", round, err)
		}
		released := make(chan struct{})
		go func() {
			time.Sleep(5 * time.Millisecond)
			m.ReleaseAll(a)
			close(released)
		}()
		if err := m.Acquire(b, 1, Exclusive, 5*time.Second); err != nil {
			t.Fatalf("round %d: long wait = %v, want granted", round, err)
		}
		<-released
		m.ReleaseAll(b)
	}
	if s := m.String(); s != "" {
		t.Fatalf("lock table not empty:\n%s", s)
	}
}
