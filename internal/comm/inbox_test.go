package comm

import (
	"sync"
	"testing"
	"time"
)

// closed is a done channel that is already closed: Push on a full inbox
// then returns false at once instead of blocking.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// segments counts the segments an inbox holds.
func (in *Inbox[T]) segments() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for s := in.head; s != nil; s = s.next {
		n++
	}
	return n
}

// FuzzInbox drives an inbox and a slice model with the same operations —
// each input byte pushes (even) or pops (odd) — and asserts FIFO order,
// the bound, the empty result, and the Len and Pops readings against the
// model. The bound is a few
// segments, so the ops cross segment boundaries, recycle segments and
// rewind a drained one.
func FuzzInbox(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 3, 5, 7})
	f.Add(make([]byte, 300))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const bound = 3*segSize + 5
		in := NewInbox[int](bound)
		var model []int
		next, pops := 0, uint64(0)
		for i, op := range ops {
			if in.Len() != len(model) || in.Pops() != pops {
				t.Fatalf("op %d: Len, Pops = %d, %d; want %d, %d", i, in.Len(), in.Pops(), len(model), pops)
			}
			if op%2 == 0 {
				ok := in.Push(next, closed)
				if want := len(model) < bound; ok != want {
					t.Fatalf("op %d: Push with %d queued reported %v, want %v", i, len(model), ok, want)
				}
				if ok {
					model = append(model, next)
				}
				next++
				continue
			}
			v, ok := in.Pop()
			if len(model) == 0 {
				if ok {
					t.Fatalf("op %d: Pop on an empty inbox returned %d", i, v)
				}
				continue
			}
			if !ok || v != model[0] {
				t.Fatalf("op %d: Pop = %d, %v; want %d, true", i, v, ok, model[0])
			}
			model = model[1:]
			pops++
		}
		for _, want := range model {
			if v, ok := in.Pop(); !ok || v != want {
				t.Fatalf("drain: Pop = %d, %v; want %d, true", v, ok, want)
			}
		}
		if v, ok := in.Pop(); ok {
			t.Fatalf("drained inbox popped %d", v)
		}
	})
}

// TestInboxConcurrentProducersKeepOrder pushes from four producers through
// a bound small enough that they block, and checks with one consumer that
// each producer's items arrive complete and in that producer's order.
func TestInboxConcurrentProducersKeepOrder(t *testing.T) {
	const producers, per = 4, 5000
	in := NewInbox[[2]int](100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !in.Push([2]int{p, i}, stop) {
					t.Errorf("producer %d: Push failed with stop open", p)
					return
				}
			}
		}(p)
	}
	next := make([]int, producers)
	for n := 0; n < producers*per; n++ {
		v, ok := in.Next(stop)
		if !ok {
			t.Fatal("Next failed with stop open")
		}
		if v[1] != next[v[0]] {
			t.Fatalf("producer %d: got item %d, want %d", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
	}
	wg.Wait()
	if v, ok := in.Pop(); ok {
		t.Fatalf("extra item %v", v)
	}
}

// TestInboxFullBlocksPush checks the bound: a full inbox blocks Push until
// one Pop makes room, and a blocked Push gives up once done closes.
func TestInboxFullBlocksPush(t *testing.T) {
	const bound = 3
	in := NewInbox[int](bound)
	for i := 0; i < bound; i++ {
		in.Push(i, nil)
	}
	pushed := make(chan bool)
	go func() { pushed <- in.Push(bound, nil) }()
	select {
	case <-pushed:
		t.Fatal("Push on a full inbox did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if v, _ := in.Pop(); v != 0 {
		t.Fatalf("Pop = %d, want 0", v)
	}
	if !<-pushed {
		t.Fatal("blocked Push failed after a Pop made room")
	}

	done := make(chan struct{})
	go func() { pushed <- in.Push(-1, done) }()
	select {
	case <-pushed:
		t.Fatal("Push on a full inbox did not block")
	case <-time.After(20 * time.Millisecond):
	}
	close(done)
	if <-pushed {
		t.Fatal("Push reported success after done closed on a full inbox")
	}
	for want := 1; want <= bound; want++ {
		if v, ok := in.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d, %v; want %d, true", v, ok, want)
		}
	}
}

// TestInboxNextSeesStopFirst checks that Next stops between items: with a
// backlog queued and stop closed, it returns false instead of an item.
func TestInboxNextSeesStopFirst(t *testing.T) {
	in := NewInbox[int](8)
	in.Push(1, nil)
	if _, ok := in.Next(closed); ok {
		t.Fatal("Next returned an item after stop closed")
	}
	stop := make(chan struct{})
	got := make(chan bool)
	go func() {
		_, ok := in.Next(stop)
		got <- ok
		_, ok = in.Next(stop) // empty: waits until stop closes
		got <- ok
	}()
	if !<-got {
		t.Fatal("Next failed with an item queued and stop open")
	}
	close(stop)
	if <-got {
		t.Fatal("Next on an empty inbox returned an item")
	}
}

// TestInboxWarmPushPopAllocatesNothing: once a segment exists, steady flow
// through the inbox allocates nothing.
func TestInboxWarmPushPopAllocatesNothing(t *testing.T) {
	in := NewInbox[int](16)
	in.Push(0, nil)
	in.Pop()
	if n := testing.AllocsPerRun(1000, func() {
		in.Push(1, nil)
		in.Pop()
	}); n != 0 {
		t.Fatalf("warm push+pop allocates %v times, want 0", n)
	}
}

// TestInboxDrainedHoldsOneSegment: however large the backlog was, a
// drained inbox keeps at most the one segment it rewinds into.
func TestInboxDrainedHoldsOneSegment(t *testing.T) {
	in := NewInbox[int](1000)
	if n := in.segments(); n != 0 {
		t.Fatalf("new inbox holds %d segments, want 0", n)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 1000; i++ {
			in.Push(i, nil)
		}
		if n, want := in.segments(), (1000+segSize-1)/segSize; n < want {
			t.Fatalf("round %d: %d segments hold 1000 items", round, n)
		}
		for {
			if _, ok := in.Pop(); !ok {
				break
			}
		}
		if n := in.segments(); n > 1 {
			t.Fatalf("round %d: drained inbox holds %d segments, want <= 1", round, n)
		}
	}
}
