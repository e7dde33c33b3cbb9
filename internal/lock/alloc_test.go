package lock

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/model"
)

// TestUncontendedAcquireAllocatesNothing: once the holder-set pool is
// warm, an uncontended grant and the release of it allocate nothing.
func TestUncontendedAcquireAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m := NewManager(false)
	owner := model.TxnID{Site: 0, Seq: 1}
	if n := testing.AllocsPerRun(1000, func() {
		if err := m.Acquire(owner, 1, Exclusive, time.Second); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(owner)
	}); n != 0 {
		t.Fatalf("acquire + ReleaseAll allocates %v times, want 0", n)
	}
}

// TestGrantedWaitAllocatesNothing: once the waiter pool is warm, a
// request that queues behind a holder and is then granted allocates
// nothing — not its waiter, its grant channel or its timer.
func TestGrantedWaitAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m := NewManager(false)
	a, b := model.TxnID{Site: 0, Seq: 1}, model.TxnID{Site: 0, Seq: 2}
	start, done := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			err := m.Acquire(b, 1, Exclusive, 10*time.Second)
			m.ReleaseAll(b)
			done <- err
		}
	}()
	defer close(start)
	round := func() {
		if err := m.Acquire(a, 1, Exclusive, time.Second); err != nil {
			t.Fatal(err)
		}
		waited := m.Stats().Waited
		start <- struct{}{}
		for m.Stats().Waited == waited {
			runtime.Gosched()
		}
		m.ReleaseAll(a)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	round() // warm-up: the first wait fills the pools
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a granted wait allocates %v times, want 0", n)
	}
}
