package comm

import "sync"

// segSize is the number of items one inbox segment holds.
const segSize = 64

// segment is one fixed-size block of an inbox's storage; segments link
// head to tail in FIFO order.
type segment[T any] struct {
	items [segSize]T
	next  *segment[T]
}

// Inbox is a bounded FIFO queue for one consumer and any number of
// producers, whose memory follows what it holds rather than its bound.
// Items live in 64-element segments allocated on demand; a segment the
// consumer drains goes to a per-inbox sync.Pool, so steady flow reuses
// segments and an idle inbox returns them to the heap within two GCs. A
// drained inbox keeps its last segment in place, so a queue that keeps
// emptying does not regrow on every push.
//
// The bound is a counting semaphore: a channel of zero-size tokens whose
// capacity is the bound, which therefore allocates no buffer. A full inbox
// blocks pushers and wakes them in arrival order, as a buffered channel of
// the same capacity would.
type Inbox[T any] struct {
	slots chan struct{} // one token per item queued or being queued
	ready chan struct{} // capacity 1: a push found the inbox empty
	pool  sync.Pool     // drained segments

	mu         sync.Mutex
	head, tail *segment[T] // nil until the first push // repl:guardedby(mu)
	hi, ti     int         // next read index in head, next write index in tail // repl:guardedby(mu)
	pops       uint64      // items popped so far // repl:guardedby(mu)
}

// NewInbox returns an empty inbox that holds at most bound items.
func NewInbox[T any](bound int) *Inbox[T] {
	in := &Inbox[T]{
		slots: make(chan struct{}, bound),
		ready: make(chan struct{}, 1),
	}
	in.pool.New = func() any { return new(segment[T]) }
	return in
}

// Push appends v, blocking while the inbox holds its bound of items. It
// reports false, with v not queued, if done closes while it waits.
func (in *Inbox[T]) Push(v T, done <-chan struct{}) bool {
	select {
	case in.slots <- struct{}{}:
	default:
		select {
		case in.slots <- struct{}{}:
		case <-done:
			return false
		}
	}
	in.mu.Lock()
	wasEmpty := in.emptyLocked()
	if in.tail == nil || in.ti == segSize {
		s := in.pool.Get().(*segment[T])
		if in.tail == nil {
			in.head = s
		} else {
			in.tail.next = s
		}
		in.tail, in.ti = s, 0
	}
	in.tail.items[in.ti] = v
	in.ti++
	in.mu.Unlock()
	if wasEmpty {
		select {
		case in.ready <- struct{}{}:
		default:
		}
	}
	return true
}

// Pop removes and returns the oldest item without waiting; it reports
// false if the inbox is empty.
func (in *Inbox[T]) Pop() (T, bool) {
	var zero T
	in.mu.Lock()
	if in.emptyLocked() {
		in.mu.Unlock()
		return zero, false
	}
	h := in.head
	v := h.items[in.hi]
	h.items[in.hi] = zero // a popped item must not stay reachable from here
	in.hi++
	in.pops++
	switch {
	case h == in.tail && in.hi == in.ti:
		in.hi, in.ti = 0, 0 // drained: rewind and keep the segment
	case in.hi == segSize:
		in.head, in.hi = h.next, 0
		h.next = nil
		in.pool.Put(h)
	}
	in.mu.Unlock()
	<-in.slots // never blocks: v's token was sent before v was stored
	return v, true
}

// Next pops the oldest item, waiting while the inbox is empty. It reports
// false once stop is closed. Stop is checked before every item, so closing
// it takes effect between items even while a backlog remains queued.
func (in *Inbox[T]) Next(stop <-chan struct{}) (T, bool) {
	var zero T
	for {
		select {
		case <-stop:
			return zero, false
		default:
		}
		if v, ok := in.Pop(); ok {
			return v, true
		}
		select {
		case <-in.ready:
		case <-stop:
			return zero, false
		}
	}
}

// Len returns the number of items queued or being queued.
func (in *Inbox[T]) Len() int { return len(in.slots) }

// Pops returns the number of items popped so far.
func (in *Inbox[T]) Pops() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.pops
}

func (in *Inbox[T]) emptyLocked() bool {
	return in.head == nil || (in.head == in.tail && in.hi == in.ti)
}
