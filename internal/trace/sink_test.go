package trace

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// TestSinkFanOut verifies that every registered sink observes every
// event, in registration order.
func TestSinkFanOut(t *testing.T) {
	r := NewRecorder()
	var order []int
	r.AddSink(func(Event) { order = append(order, 1) })
	r.AddSink(func(Event) { order = append(order, 2) })
	r.Record(TxnCommit, 0, model.NoSite, model.TxnID{Site: 0, Seq: 1}, 0)
	if want := []int{1, 2}; len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("sink invocation order = %v, want %v", order, want)
	}
}

// TestAddSinkConcurrentWithRecording registers sinks while many
// goroutines record. Run under -race this pins the copy-on-write registration as
// data-race free; the counts assert that a sink registered before any
// traffic misses nothing.
func TestAddSinkConcurrentWithRecording(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
		lateSinks = 16
	)
	r := NewRecorder()
	var first atomic.Int64
	r.AddSink(func(Event) { first.Add(1) })

	var wg sync.WaitGroup
	start := make(chan struct{})
	counts := make([]atomic.Int64, lateSinks)
	for i := 0; i < lateSinks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r.AddSink(func(Event) { counts[i].Add(1) })
		}(i)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				tid := model.TxnID{Site: model.SiteID(w), Seq: uint64(i + 1)}
				r.RecordSpan(TxnCommit, model.SiteID(w), model.NoSite, tid, 0, model.RootSpan(tid), 0)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	total := int64(writers * perWriter)
	if got := first.Load(); got != total {
		t.Fatalf("sink registered before traffic saw %d events, want %d", got, total)
	}
	if got := int64(r.Len()); got != total {
		t.Fatalf("recorder holds %d events, want %d", got, total)
	}
	for i := range counts {
		if got := counts[i].Load(); got > total {
			t.Fatalf("late sink %d saw %d events, more than the %d recorded", i, got, total)
		}
	}
}
