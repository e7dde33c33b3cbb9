package core

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ts"
	"repro/internal/wal"
	"repro/internal/watch"
)

// kernelRig is one unstarted propagating engine at the replica site s1 of
// a two-site placement (item 0: primary s0, replica s1), over a capture
// transport and a real redo log, with the test playing the sender: it
// counts the forwards a sender would and delivers by calling the kernel
// directly.
type kernelRig struct {
	engine   Engine
	kernel   *lazyEngine
	log      *wal.SiteLog
	dir      string
	items    []model.ItemID
	recorder *history.Recorder
	metrics  *metrics.Collector
	sent     uint64 // forwards delivered to the replica
}

func newKernelRig(t *testing.T, proto Protocol, build func(*Topology, Site, comm.Transport) (Engine, *lazyEngine)) *kernelRig {
	t.Helper()
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	r := &kernelRig{
		dir:      t.TempDir(),
		items:    p.CopiesAt(1),
		recorder: history.NewRecorder(),
		metrics:  metrics.NewCollector(false),
	}
	r.log = r.open(t)
	site := Site{ID: 1, Log: r.log, Sinks: Sinks{Recorder: r.recorder, Metrics: r.metrics}}
	r.engine, r.kernel = build(topology(t, proto, p, testParams(), Shape{}), site, newCaptureTransport())
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

// deliver counts the sender's forward and makes the receipt durable, as
// the kernel's admission would, without handing the message to the
// protocol's ordering: the test applies it itself.
func (r *kernelRig) deliver(t *testing.T, msg comm.Message) {
	t.Helper()
	r.sent++
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

// statuses is the two-site view Quiescent judges: the test as the
// sender, which forwarded every delivery, and the replica engine.
func (r *kernelRig) statuses() []watch.Status {
	return []watch.Status{{Site: 0, Forwarded: r.sent}, r.engine.Status()}
}

// settled fails the test unless Quiescent holds: the replica released
// exactly as many receipts as were delivered, one too many failing it as
// surely as one too few.
func (r *kernelRig) settled(t *testing.T) {
	t.Helper()
	if first := r.statuses(); !Quiescent(first, r.statuses()) {
		t.Fatalf("not quiescent: %d forwards sent, replica %+v", r.sent, first[1])
	}
}

// unreleased fails the test if the stopped replica released the receipt
// of its one delivery.
func (r *kernelRig) unreleased(t *testing.T) {
	t.Helper()
	if st := r.engine.Status(); st.Consumed != 0 {
		t.Fatalf("stopped apply released its receipt: %+v", st)
	}
}

func (r *kernelRig) retries() uint64 { return r.metrics.Snapshot(2).Retries }

// TestLazyKernelContract holds every propagating engine to the kernel's
// delivery contract: exactly-once application under duplicated delivery,
// and a receipt that survives, unconsumed and unreleased, any exit the
// engine takes before the consumption is durable.
func TestLazyKernelContract(t *testing.T) {
	tid := model.TxnID{Site: 0, Seq: 1}
	sc := model.SpanContext{TID: tid}.Fork(0)
	p := secondaryPayload{TID: tid, TS: ts.New(0).BumpLast(), Writes: []model.WriteOp{{Item: 0, Value: 7}}}
	msg := comm.Message{From: 0, To: 1, Kind: kindSecondary, Span: sc, Payload: p}

	rows := []struct {
		proto Protocol
		build func(*Topology, Site, comm.Transport) (Engine, *lazyEngine)
	}{
		{DAGWT, func(topo *Topology, s Site, tr comm.Transport) (Engine, *lazyEngine) {
			e := newDAGWT(topo, s, tr)
			return e, &e.lazyEngine
		}},
		{DAGT, func(topo *Topology, s Site, tr comm.Transport) (Engine, *lazyEngine) {
			e := newDAGT(topo, s, tr)
			return e, &e.lazyEngine
		}},
		{NaiveLazy, func(topo *Topology, s Site, tr comm.Transport) (Engine, *lazyEngine) {
			e := newNaive(topo, s, tr)
			return e, &e.lazyEngine
		}},
		{BackEdge, func(topo *Topology, s Site, tr comm.Transport) (Engine, *lazyEngine) {
			e := newBackEdge(topo, s, tr)
			return e, &e.lazyEngine
		}},
	}
	for _, row := range rows {
		t.Run(row.proto.String()+"/duplicate", func(t *testing.T) {
			r := newKernelRig(t, row.proto, row.build)
			for i := 0; i < 2; i++ {
				r.deliver(t, msg)
				if !r.kernel.apply(msg.From, p, sc) {
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

		t.Run(row.proto.String()+"/stop-mid-retry", func(t *testing.T) {
			r := newKernelRig(t, row.proto, row.build)
			blocker := r.kernel.tm.Begin(r.kernel.newTxnID())
			if _, err := blocker.Read(0); err != nil { // S lock on the replica
				t.Fatal(err)
			}
			defer blocker.Abort()
			r.deliver(t, msg)
			applied := make(chan bool, 1)
			go func() { applied <- r.kernel.apply(msg.From, p, sc) }()
			waitFor(t, func() bool { return r.retries() > 0 }, "a resubmission")
			r.engine.Stop()
			if <-applied {
				t.Fatal("apply reported success through a held lock")
			}
			r.unreleased(t)
			if got := r.unconsumed(t); len(got) != 1 || got[0].TID != tid {
				t.Errorf("receipts for recovery = %v, want the one for %v", got, tid)
			}
		})

		t.Run(row.proto.String()+"/fenced-commit", func(t *testing.T) {
			r := newKernelRig(t, row.proto, row.build)
			r.deliver(t, msg)
			r.log.Fence()
			applied := make(chan bool, 1)
			go func() { applied <- r.kernel.apply(msg.From, p, sc) }()
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
			r.unreleased(t)
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
