// Package fault manufactures an unreliable network out of a reliable one.
// The paper's protocols assume the network "delivers messages reliably and
// in FIFO order between any two sites" (§1.1) and that sites do not fail;
// this package deliberately breaks both assumptions so the rest of the
// system can be shown to restore them (comm.Reliable for the delivery
// contract, the 2PC decision-inquiry path for crash recovery).
//
// Transport wraps any comm.Transport and injects deterministic, seeded
// faults: per-edge message drop, duplication and extra delay, directed
// partitions with heal, and whole-site crash/restart. Every per-edge
// decision stream derives from the seed and the edge alone, so the k-th
// message on an edge meets the same fate in every run that sends the same
// k-th message — the strongest determinism available under concurrent
// senders. Schedule generation (see schedule.go) is fully deterministic:
// one seed always yields the byte-for-byte identical fault schedule.
//
// Injected faults are counted in an obs.Registry (repl_fault_* series)
// and recorded as trace events (FaultDrop, SiteCrash, PartitionCut, ...)
// so a chaos run can be audited offline.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Faults is one edge's fault mix. Probabilities are per message, drawn
// independently; a message can be both duplicated and delayed.
type Faults struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Delay is the probability a message is held for an extra delay drawn
	// uniformly from [DelayMin, DelayMax] before being handed to the inner
	// transport (which may reorder it past later messages on the edge).
	Delay              float64
	DelayMin, DelayMax time.Duration
}

// Validate checks the fault mix.
func (f Faults) Validate() error {
	for _, p := range []float64{f.Drop, f.Duplicate, f.Delay} {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: probability %v out of [0,1]", p)
		}
	}
	if f.DelayMin < 0 || f.DelayMax < f.DelayMin {
		return fmt.Errorf("fault: need 0 <= DelayMin <= DelayMax, got [%v, %v]", f.DelayMin, f.DelayMax)
	}
	return nil
}

// Config configures an injector.
type Config struct {
	// Seed roots every per-edge decision stream; two injectors with the
	// same seed make the same per-edge decisions.
	Seed int64
	// Faults is the fault mix every edge draws from.
	Faults Faults
}

type edge struct{ from, to model.SiteID }

// Lifecycle hooks a crash-recovery implementation into Crash and Restart.
// Both hooks run with the site's delivery gate write-held: no delivery is
// in flight at the site while they run, and none starts until they
// return. With no Lifecycle installed the injector keeps its legacy
// in-memory fail-recover mode — the site's heap state survives the
// outage untouched — which fast tests opt into by simply not wiring a
// WAL.
type Lifecycle struct {
	// OnCrash finalizes the dying site: fence its write-ahead log (un-
	// fsynced appends are honestly lost) and halt its engine. Everything
	// the site "knew" that never reached disk is gone when it returns.
	OnCrash func(site model.SiteID)
	// OnRestart rebuilds the site from its durable state: reopen the log,
	// replay snapshot + records, construct a fresh engine, and re-register
	// its handler. The site starts receiving again only after it returns.
	OnRestart func(site model.SiteID)
}

// Transport is a fault-injecting comm.Transport wrapper. All methods are
// safe for concurrent use. The zero faults mix makes it a transparent
// pass-through that still supports partitions and crashes.
type Transport struct {
	inner comm.Transport
	cfg   Config

	mu          sync.Mutex
	edges       map[edge]*rand.Rand // each directed edge's private decision stream
	partitioned map[edge]bool
	crashed     map[model.SiteID]bool
	gates       map[model.SiteID]*sync.RWMutex
	lifecycle   Lifecycle
	closed      bool

	trace *trace.Recorder
	ctr   counters
	wg    sync.WaitGroup // outstanding delayed deliveries
}

// counters are the injector's live metrics handles; nil handles (no
// registry) are no-ops.
type counters struct {
	dropRandom    *obs.Counter
	dropPartition *obs.Counter
	dropCrash     *obs.Counter
	duplicated    *obs.Counter
	delayed       *obs.Counter
	crashes       *obs.Counter
	restarts      *obs.Counter
	cuts          *obs.Counter
	heals         *obs.Counter
}

// New wraps inner in a fault injector.
func New(inner comm.Transport, cfg Config) (*Transport, error) {
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	return &Transport{
		inner:       inner,
		cfg:         cfg,
		edges:       make(map[edge]*rand.Rand),
		partitioned: make(map[edge]bool),
		crashed:     make(map[model.SiteID]bool),
		gates:       make(map[model.SiteID]*sync.RWMutex),
	}, nil
}

// SetLifecycle installs the crash-recovery hooks (see Lifecycle). Call
// before traffic starts.
func (t *Transport) SetLifecycle(lc Lifecycle) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lifecycle = lc
}

// gate returns site's delivery gate, creating it on first use. Every
// delivery to the site holds it shared; Crash and Restart hold it
// exclusive, which is what makes "no delivery straddles a crash"
// a guarantee rather than a race.
func (t *Transport) gate(site model.SiteID) *sync.RWMutex {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gates[site]
	if !ok {
		g = new(sync.RWMutex)
		t.gates[site] = g
	}
	return g
}

// SetObs installs the live-metrics registry the injector counts faults
// into (nil disables). Call before traffic starts.
func (t *Transport) SetObs(r *obs.Registry) {
	reason := func(v string) obs.Label { return obs.Label{Key: "reason", Value: v} }
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ctr = counters{
		dropRandom:    r.Counter("repl_fault_dropped_total", reason("random")),
		dropPartition: r.Counter("repl_fault_dropped_total", reason("partition")),
		dropCrash:     r.Counter("repl_fault_dropped_total", reason("crash")),
		duplicated:    r.Counter("repl_fault_duplicated_total"),
		delayed:       r.Counter("repl_fault_delayed_total"),
		crashes:       r.Counter("repl_fault_crashes_total"),
		restarts:      r.Counter("repl_fault_restarts_total"),
		cuts:          r.Counter("repl_fault_partition_cuts_total"),
		heals:         r.Counter("repl_fault_partition_heals_total"),
	}
}

// SetTrace installs the lifecycle-event recorder fault events are written
// to (nil disables). Call before traffic starts.
func (t *Transport) SetTrace(rec *trace.Recorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace = rec
}

// faultSalt distinguishes injected-fault auxiliary spans from the
// reliable sublayer's retransmit/ack spans under the same parent.
const faultSalt = 0xfa1 << 32

// spanOf extracts the causal span context of a message, looking through
// the reliable-delivery envelope when the sublayer runs above the
// injector (the usual chaos stack: engine → Reliable → fault → mem).
func spanOf(m comm.Message) model.SpanContext {
	if p, ok := m.Payload.(comm.RelDataPayload); ok {
		return p.Msg.Span
	}
	return m.Span
}

// traceFault records one per-message injected fault, attributed to the
// causal span of the affected message when it carries one.
func traceFault(rec *trace.Recorder, k trace.Kind, m comm.Message) {
	sc := spanOf(m)
	if sc.Parent == 0 {
		rec.Record(k, m.From, m.To, sc.TID, 0)
		return
	}
	rec.RecordSpan(k, m.From, m.To, sc.TID, 0, model.AuxSpan(sc.Parent, faultSalt), sc.Parent)
}

// edgeSeed derives a per-edge RNG seed from the injector seed, splitmix-
// style so adjacent edges get uncorrelated streams.
func edgeSeed(seed int64, from, to model.SiteID) int64 {
	z := uint64(seed) ^ (uint64(from)+1)*0x9e3779b97f4a7c15 ^ (uint64(to)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// rng returns the edge's decision stream, creating it on first use. The
// caller holds t.mu.
func (t *Transport) rng(e edge) *rand.Rand {
	r, ok := t.edges[e]
	if !ok {
		r = rand.New(rand.NewSource(edgeSeed(t.cfg.Seed, e.from, e.to)))
		t.edges[e] = r
	}
	return r
}

// Crash takes a site down: every message to or from it is dropped until
// Restart. Crash first drains the site's delivery gate — deliveries
// already dispatched into the site's handler finish (including their
// write-ahead fsync, so the reliable sublayer's "acknowledged" always
// means "durable") — then marks the site down and runs the Lifecycle
// OnCrash hook, which fences the site's log and halts its engine:
// volatile state is wiped with the process. Without a Lifecycle the
// legacy in-memory mode applies instead: the heap stands in for the
// disk and the site's state survives the outage untouched. The SiteCrash
// trace event marks the instant the site stops receiving, before any
// recovery work.
func (t *Transport) Crash(site model.SiteID) {
	g := t.gate(site)
	g.Lock()
	t.mu.Lock()
	t.crashed[site] = true
	rec := t.trace
	lc := t.lifecycle
	t.mu.Unlock()
	t.ctr.crashes.Inc()
	rec.Record(trace.SiteCrash, site, model.NoSite, model.TxnID{}, 0)
	if lc.OnCrash != nil {
		lc.OnCrash(site)
	}
	g.Unlock()
}

// Restart brings a crashed site back. The Lifecycle OnRestart hook runs
// first, with the delivery gate still write-held and the site still
// marked down: the rebuilt engine's recovery-time sends are dropped
// (crashed-from) and survive only through the reliable sublayer's
// retransmission, exactly like a real site whose first packets race its
// NIC coming up. Only after the hook returns is the site marked up; the
// SiteRestart trace event therefore marks the instant the site is
// actually serving again, not when recovery began.
func (t *Transport) Restart(site model.SiteID) {
	g := t.gate(site)
	g.Lock()
	t.mu.Lock()
	lc := t.lifecycle
	t.mu.Unlock()
	if lc.OnRestart != nil {
		lc.OnRestart(site)
	}
	t.mu.Lock()
	delete(t.crashed, site)
	rec := t.trace
	t.mu.Unlock()
	t.ctr.restarts.Inc()
	rec.Record(trace.SiteRestart, site, model.NoSite, model.TxnID{}, 0)
	g.Unlock()
}

// Crashed reports whether site is currently down.
func (t *Transport) Crashed(site model.SiteID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashed[site]
}

// Partition cuts the directed from→to edge: messages on it are dropped
// until Heal. Cut both directions for a full partition.
func (t *Transport) Partition(from, to model.SiteID) {
	t.mu.Lock()
	t.partitioned[edge{from, to}] = true
	rec := t.trace
	t.mu.Unlock()
	t.ctr.cuts.Inc()
	rec.Record(trace.PartitionCut, from, to, model.TxnID{}, 0)
}

// Heal restores the directed from→to edge.
func (t *Transport) Heal(from, to model.SiteID) {
	t.mu.Lock()
	delete(t.partitioned, edge{from, to})
	rec := t.trace
	t.mu.Unlock()
	t.ctr.heals.Inc()
	rec.Record(trace.PartitionHeal, from, to, model.TxnID{}, 0)
}

// Register implements comm.Transport. The handler is wrapped so messages
// arriving at a crashed site are dropped: a down site neither sends nor
// receives, even messages already in flight. Each delivery holds the
// site's gate shared for the whole handler call, so a Crash either
// happens entirely before a delivery (which is then dropped) or entirely
// after it (which then completed, fsync and all) — never in the middle.
func (t *Transport) Register(site model.SiteID, h comm.Handler) {
	t.inner.Register(site, func(m comm.Message) {
		g := t.gate(site)
		g.RLock()
		defer g.RUnlock()
		t.mu.Lock()
		down := t.crashed[site]
		rec := t.trace
		t.mu.Unlock()
		if down {
			t.ctr.dropCrash.Inc()
			traceFault(rec, trace.FaultDrop, m)
			return
		}
		h(m)
	})
}

// Send implements comm.Transport, applying the edge's fault decisions. A
// dropped message returns nil: the sender believes it was sent, exactly
// like a lost datagram.
func (t *Transport) Send(msg comm.Message) error {
	e := edge{msg.From, msg.To}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return comm.ErrClosed
	}
	if t.crashed[msg.From] || t.crashed[msg.To] {
		rec := t.trace
		t.mu.Unlock()
		t.ctr.dropCrash.Inc()
		traceFault(rec, trace.FaultDrop, msg)
		return nil
	}
	if t.partitioned[e] {
		rec := t.trace
		t.mu.Unlock()
		t.ctr.dropPartition.Inc()
		traceFault(rec, trace.FaultDrop, msg)
		return nil
	}
	r := t.rng(e)
	// Always draw the full per-message tuple so the edge's decision stream
	// stays aligned with the message count regardless of outcomes.
	f := t.cfg.Faults
	uDrop, uDup, uDelay, uFrac := r.Float64(), r.Float64(), r.Float64(), r.Float64()
	rec := t.trace
	t.mu.Unlock()

	if uDrop < f.Drop {
		t.ctr.dropRandom.Inc()
		traceFault(rec, trace.FaultDrop, msg)
		return nil
	}
	if uDup < f.Duplicate {
		t.ctr.duplicated.Inc()
		traceFault(rec, trace.FaultDuplicate, msg)
		if err := t.inner.Send(msg); err != nil {
			return err
		}
	}
	if uDelay < f.Delay && f.DelayMax > 0 {
		d := f.DelayMin + time.Duration(uFrac*float64(f.DelayMax-f.DelayMin))
		t.ctr.delayed.Inc()
		traceFault(rec, trace.FaultDelay, msg)
		// The Add must be ordered against Close's closed=true under t.mu:
		// a late sender (e.g. the reliable sublayer acking a delivery that
		// raced shutdown) calling Add while Close is in Wait with the
		// counter at zero is the sync.WaitGroup misuse the race detector
		// flags. Once closed, skip the hold and deliver inline.
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return t.inner.Send(msg)
		}
		t.wg.Add(1)
		t.mu.Unlock()
		time.AfterFunc(d, func() {
			defer t.wg.Done()
			t.mu.Lock()
			blocked := t.closed || t.crashed[msg.From] || t.crashed[msg.To] || t.partitioned[e]
			t.mu.Unlock()
			if blocked {
				// The edge went down while the message was in the air.
				if !t.Closed() {
					t.ctr.dropPartition.Inc()
				}
				return
			}
			//lint:allow senderr delayed delivery has no caller left to inform; injected loss is counted separately
			_ = t.inner.Send(msg)
		})
		return nil
	}
	return t.inner.Send(msg)
}

// Closed reports whether Close was called.
func (t *Transport) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close implements comm.Transport: it waits for in-flight delayed
// deliveries (bounded by DelayMax) and closes the inner transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
	return t.inner.Close()
}
