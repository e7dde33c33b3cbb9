package core

import (
	"strconv"
	"time"

	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The site counter bank's slots after the seven that Report sums
// (metrics.Count): one per kind of lifecycle step or count an engine
// makes.
const (
	begun       = metrics.NumCounts + iota // primary subtransactions started
	enqueued                               // propagation messages admitted to an ordering
	forwarded                              // secondary subtransactions shipped
	epochs                                 // DAG(T) source epoch advances
	prepares                               // BackEdge 2PC prepares, at origin and participants
	decided                                // BackEdge 2PC commits, at origin and participants
	inquiries                              // BackEdge 2PC decision inquiries
	undelivered                            // 2PC rounds whose logged decision failed to reach a participant
	lateReplies                            // RPC replies that arrived after their call gave up
	reads                                  // read operations, each owed a certificate
	readsFresh                             // fresh read certificates
	readsStale                             // stale read certificates
	lockGrants                             // lock manager counters, in lock.Stats order, added when the site halts
	lockWaits
	lockWounds
	lockTimeouts
	lockDeadlocks
	abortedBy // first of one abort slot per contend.AbortReason

	numSlots = abortedBy + metrics.Count(contend.NumReasons)
)

// slot says what one bank slot means: the series a registry exports it
// under, labelled with the site ("" keeps it unexported), and the trace
// event emit records with it (zero for none). Events that carry a
// wall-clock payload are span-less, so timing never perturbs span-tree
// structure; tag fills the event's Phase field.
type slot struct {
	series   string
	kind     trace.Kind
	spanless bool
	tag      string
}

// slots is the one table of the bank's slots.
var slots = func() [numSlots]slot {
	t := [numSlots]slot{
		metrics.Committed:   {series: "repl_txn_committed_total", kind: trace.TxnCommit},
		metrics.Aborted:     {series: "repl_txn_aborted_total"},
		metrics.Secondaries: {series: "repl_secondary_applied_total", kind: trace.SecondaryApplied},
		metrics.RemoteReads: {series: "repl_remote_reads_total", kind: trace.RemoteRead},
		metrics.Dummies:     {series: "repl_dummy_sent_total", kind: trace.DummySent, spanless: true},
		metrics.Retries:     {series: "repl_secondary_retries_total"},
		begun:               {kind: trace.TxnBegin},
		enqueued:            {kind: trace.SecondaryEnqueued},
		forwarded:           {series: "repl_secondary_forwarded_total", kind: trace.SecondaryForwarded},
		epochs:              {series: "repl_epoch_advances_total", kind: trace.EpochAdvance, spanless: true},
		prepares:            {series: "repl_backedge_prepares_total", kind: trace.BackedgePrepare},
		decided:             {series: "repl_backedge_commits_total", kind: trace.BackedgeCommit},
		inquiries:           {series: "repl_backedge_inquiries_total", kind: trace.DecisionInquiry},
		undelivered:         {series: "repl_backedge_decision_errors_total"},
		lateReplies:         {series: "repl_rpc_late_responses_total"},
		reads:               {series: "repl_txn_reads_total"},
		readsFresh:          {series: "repl_read_staleness_fresh_total", kind: trace.ReadCertificate, spanless: true, tag: "fresh"},
		readsStale:          {series: "repl_read_staleness_stale_total", kind: trace.ReadCertificate, spanless: true, tag: "stale"},
		lockGrants:          {series: "repl_lock_grants_total"},
		lockWaits:           {series: "repl_lock_waits_total"},
		lockWounds:          {series: "repl_lock_wounds_total"},
		lockTimeouts:        {series: "repl_lock_timeouts_total"},
		lockDeadlocks:       {series: "repl_lock_deadlocks_total"},
	}
	for _, r := range contend.Reasons() {
		t[abortSlot(r)] = slot{series: "repl_txn_abort_reason_total", kind: trace.TxnAbort, tag: r.String()}
	}
	return t
}()

// abortSlot is the bank slot of an abort with root cause r. Emitting it
// also counts the abort in metrics.Aborted and tags the TxnAbort event
// with r, so no engine can abort without classifying.
func abortSlot(r contend.AbortReason) metrics.Count { return abortedBy + metrics.Count(r) }

// exportBank registers the site's bank slots in the live registry under
// their series; the registry then reads the bank in place.
func (b *base) exportBank() {
	r := b.cfg.Obs // nil-safe: without a registry every call is a no-op
	site := obs.Label{Key: "site", Value: strconv.Itoa(int(b.id))}
	for s, row := range slots {
		switch {
		case s >= int(abortedBy):
			r.Export(&b.bank[s], row.series, site, obs.Label{Key: "reason", Value: row.tag})
		case row.series != "":
			r.Export(&b.bank[s], row.series, site)
		}
	}
}

// emit reports one lifecycle step: it bumps slot s of the site's bank
// and, when tracing, records the slot's event, under this site's span
// within sc unless the event is span-less. d is the step's duration: a
// commit's response time, a certificate's time behind the primary.
func (b *base) emit(s metrics.Count, peer model.SiteID, sc model.SpanContext, d time.Duration) {
	b.bank[s].Inc()
	switch {
	case s == metrics.Committed:
		b.cfg.Metrics.TxnCommitted(sc.TID, d)
	case s == metrics.Secondaries:
		b.cfg.Metrics.SecondaryApplied(sc.TID)
	case s >= abortedBy:
		b.bank[metrics.Aborted].Inc()
	}
	row := &slots[s]
	if b.cfg.Trace == nil || row.kind == 0 {
		return
	}
	ev := trace.Event{Kind: row.kind, Site: b.id, Peer: peer, TID: sc.TID, Proto: uint8(b.proto), Phase: row.tag}
	if row.spanless {
		ev.Dur = int64(d)
	} else {
		ev.Span, ev.Parent = sc.SpanAt(b.id), sc.Parent
	}
	b.cfg.Trace.Add(ev)
}

// AbortReasons returns the site's cumulative abort root-cause breakdown,
// reason name → count, zero-count reasons omitted.
func (b *base) AbortReasons() map[string]uint64 {
	out := make(map[string]uint64)
	for _, r := range contend.Reasons() {
		if n := b.bank[abortSlot(r)].Value(); n > 0 {
			out[r.String()] = n
		}
	}
	return out
}

// Phase-level latency attribution (docs/BENCHMARKING.md). Every clock
// read for observation is confined to phaseClock and elapsed, so the
// nodeterminism allowances live in one place; engines deal only in
// opaque stamps.

// phaseClock returns the current time when phase attribution has a sink
// (a metrics collector or a trace recorder), and the zero time otherwise,
// keeping disabled hot paths clock-free.
func (b *base) phaseClock() time.Time {
	if b.cfg.Metrics == nil && b.cfg.Trace == nil {
		return time.Time{}
	}
	//lint:allow nodeterminism latency observation only; the measured duration never branches protocol logic
	return time.Now()
}

// elapsed returns the wall time since stamp t.
func elapsed(t time.Time) time.Duration {
	//lint:allow nodeterminism latency observation only; the measured duration never branches protocol logic
	return time.Since(t)
}

// phaseSince is emit's phase path: it closes a latency segment of phase p
// opened at start — a phaseClock stamp, a message's SentAt, a transaction
// manager's segment start — with one sample in the run collector plus,
// when tracing, a span-less PhaseLatency event. The zero stamp means
// attribution is off and the call is one branch.
func (b *base) phaseSince(p metrics.Phase, peer model.SiteID, tid model.TxnID, start time.Time) {
	if start.IsZero() {
		return
	}
	d := elapsed(start)
	b.cfg.Metrics.PhaseSample(p, d)
	if b.cfg.Trace != nil {
		b.cfg.Trace.Add(trace.Event{Kind: trace.PhaseLatency, Site: b.id, Peer: peer, TID: tid,
			Proto: uint8(b.proto), Phase: p.String(), Dur: int64(d)})
	}
}
