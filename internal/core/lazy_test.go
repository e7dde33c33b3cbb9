package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ts"
	"repro/internal/wal"
)

// kernelRig is one unstarted propagating engine at the replica site s1 of
// a two-site placement (item 0: primary s0, replica s1), over a capture
// transport and a real redo log, with the test playing the sender: it
// takes the pending obligations a sender would and delivers by calling
// the kernel directly.
type kernelRig struct {
	engine   Engine
	kernel   *lazyEngine
	log      *wal.SiteLog
	dir      string
	items    []model.ItemID
	recorder *history.Recorder
	metrics  *metrics.Collector
	pending  sync.WaitGroup
}

func newKernelRig(t *testing.T, build func(*SharedConfig, model.SiteID, comm.Transport) (Engine, *lazyEngine)) *kernelRig {
	t.Helper()
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	order := []model.SiteID{0, 1}
	tree := graph.BuildChain(order)
	r := &kernelRig{
		dir:      t.TempDir(),
		items:    p.CopiesAt(1),
		recorder: history.NewRecorder(),
		metrics:  metrics.NewCollector(false),
	}
	r.log = r.open(t)
	cfg := &SharedConfig{
		Placement:    p,
		Graph:        graph.FromPlacement(p),
		Order:        order,
		Tree:         tree,
		SubtreeItems: graph.SubtreeCopyItems(tree, p),
		Params:       testParams(),
		Recorder:     r.recorder,
		Metrics:      r.metrics,
		Pending:      &r.pending,
		WALs:         map[model.SiteID]*wal.SiteLog{1: r.log},
	}
	r.engine, r.kernel = build(cfg, 1, newCaptureTransport())
	t.Cleanup(func() {
		r.engine.Stop()
		_ = r.log.Close()
	})
	return r
}

func (r *kernelRig) open(t *testing.T) *wal.SiteLog {
	t.Helper()
	lg, err := wal.Open(r.dir, wal.Options{Site: 1, Items: r.items})
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// deliver takes the sender's pending obligation and makes the receipt
// durable, as the kernel's admission would, without handing the message to
// the protocol's ordering: the test applies it itself.
func (r *kernelRig) deliver(t *testing.T, msg comm.Message) {
	t.Helper()
	r.pending.Add(1)
	if !r.kernel.logReceipt(msg) {
		t.Fatal("receipt not logged")
	}
}

// unconsumed closes the log and returns the receipts a recovery would
// inherit from it.
func (r *kernelRig) unconsumed(t *testing.T) []wal.Receipt {
	t.Helper()
	if err := r.log.Close(); err != nil {
		t.Fatal(err)
	}
	r.log = r.open(t)
	return r.log.Recovered().Receipts
}

// settled fails the test unless every pending obligation taken so far has
// been released. (One release too many panics the WaitGroup instead.)
func (r *kernelRig) settled(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		r.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a pending obligation was never released")
	}
}

func (r *kernelRig) retries() uint64 { return r.metrics.Snapshot(2).Retries }

// TestLazyKernelContract holds every propagating engine to the kernel's
// delivery contract: exactly-once application under duplicated delivery,
// and a receipt (with its pending obligation) that survives, unconsumed,
// any exit the engine takes before the consumption is durable.
func TestLazyKernelContract(t *testing.T) {
	tid := model.TxnID{Site: 0, Seq: 1}
	sc := model.SpanContext{TID: tid}.Fork(0)
	p := secondaryPayload{TID: tid, TS: ts.New(0).BumpLast(), Writes: []model.WriteOp{{Item: 0, Value: 7}}}
	msg := comm.Message{From: 0, To: 1, Kind: kindSecondary, Span: sc, Payload: p}

	rows := []struct {
		name  string
		build func(*SharedConfig, model.SiteID, comm.Transport) (Engine, *lazyEngine)
	}{
		{"DAG(WT)", func(c *SharedConfig, id model.SiteID, tr comm.Transport) (Engine, *lazyEngine) {
			e := newDAGWT(c, id, tr)
			return e, &e.lazyEngine
		}},
		{"DAG(T)", func(c *SharedConfig, id model.SiteID, tr comm.Transport) (Engine, *lazyEngine) {
			e := newDAGT(c, id, tr)
			return e, &e.lazyEngine
		}},
		{"NaiveLazy", func(c *SharedConfig, id model.SiteID, tr comm.Transport) (Engine, *lazyEngine) {
			e := newNaive(c, id, tr)
			return e, &e.lazyEngine
		}},
		{"BackEdge", func(c *SharedConfig, id model.SiteID, tr comm.Transport) (Engine, *lazyEngine) {
			e := newBackEdge(c, id, tr)
			return e, &e.lazyEngine
		}},
	}
	for _, row := range rows {
		t.Run(row.name+"/duplicate", func(t *testing.T) {
			r := newKernelRig(t, row.build)
			for i := 0; i < 2; i++ {
				r.deliver(t, msg)
				if !r.kernel.apply(p, sc) {
					t.Fatalf("delivery %d: apply refused", i)
				}
			}
			r.settled(t)
			if h := r.recorder.WriteHistory(1, 0); len(h) != 1 || h[0] != tid {
				t.Errorf("store writes at the replica = %v, want exactly [%v]", h, tid)
			}
			if got := r.unconsumed(t); len(got) != 0 {
				t.Errorf("receipts left unconsumed: %v", got)
			}
		})

		t.Run(row.name+"/stop-mid-retry", func(t *testing.T) {
			r := newKernelRig(t, row.build)
			blocker := r.kernel.tm.Begin(r.kernel.newTxnID())
			if _, err := blocker.Read(0); err != nil { // S lock on the replica
				t.Fatal(err)
			}
			defer blocker.Abort()
			r.deliver(t, msg)
			applied := make(chan bool, 1)
			go func() { applied <- r.kernel.apply(p, sc) }()
			waitFor(t, func() bool { return r.retries() > 0 }, "a resubmission")
			r.engine.Stop()
			if <-applied {
				t.Fatal("apply reported success through a held lock")
			}
			// The obligation is still ours to release: had apply released
			// it, this Done would drive the counter negative and panic.
			r.pending.Done()
			r.settled(t)
			if got := r.unconsumed(t); len(got) != 1 || got[0].TID != tid {
				t.Errorf("receipts for recovery = %v, want the one for %v", got, tid)
			}
		})

		t.Run(row.name+"/fenced-commit", func(t *testing.T) {
			r := newKernelRig(t, row.build)
			r.deliver(t, msg)
			r.log.Fence()
			applied := make(chan bool, 1)
			go func() { applied <- r.kernel.apply(p, sc) }()
			// Every commit now fails on the fence; the loop must keep coming
			// back to its stop check rather than give up or spin past it.
			waitFor(t, func() bool { return r.retries() >= 2 }, "two failed commits")
			select {
			case ok := <-applied:
				t.Fatalf("apply returned %v with the log fenced and the engine running", ok)
			default:
			}
			r.engine.Stop()
			if <-applied {
				t.Fatal("apply reported success over a fenced log")
			}
			r.pending.Done()
			r.settled(t)
			if h := r.recorder.WriteHistory(1, 0); len(h) != 0 {
				t.Errorf("store written without a durable redo record: %v", h)
			}
		})
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
