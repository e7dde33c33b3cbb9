// Package engine exercises the obscomplete analyzer from the consumer
// side: handles that are updated, ones that never are, and the trace
// kinds it records.
package engine

import (
	"metrics"
	"obs"
	"trace"
)

type siteObs struct {
	committed *obs.Counter
	orphans   *obs.Counter // want "obs handle .*orphans is registered but never updated"
	inflight  *obs.Gauge
	// Handle banks: arrays/slices of handles indexed by a label enum.
	// Indexed updates count; a bank nobody indexes into is dead.
	reasons  [3]*obs.Counter
	perSite  []*obs.Histogram
	deadBank [3]*obs.Counter // want "obs handle .*deadBank is registered but never updated"
	latency  *obs.Histogram
	// Freshness observatory handles: the read-staleness certificate
	// counters and behind-histogram (repl_read_staleness_*) and the
	// commit/apply mirrors (repl_fresh_*); one left unwired to prove the
	// analyzer still sees through the bank.
	readsFresh   *obs.Counter
	readsStale   *obs.Counter
	staleBehind  *obs.Histogram
	freshCommits *obs.Counter
	freshOrphan  *obs.Counter // want "obs handle .*freshOrphan is registered but never updated"
	//lint:allow obscomplete wired up by the next engine
	reserved *obs.Counter
}

type engine struct {
	o      siteObs
	out    []trace.Kind
	phases []metrics.Phase
}

func (e *engine) run() {
	e.out = append(e.out, trace.TxnBegin, trace.TxnCommit, trace.ReadCertificate)
	e.phases = append(e.phases, metrics.PhaseLockWait, metrics.PhaseApply)
	e.o.committed.Inc()
	e.o.readsFresh.Inc()
	e.o.readsStale.Inc()
	e.o.staleBehind.Observe(3)
	e.o.freshCommits.Add(2)
	e.o.reasons[1].Inc()
	e.o.perSite[0].Observe(2)
	e.o.inflight.Set(2)
	e.o.latency.Observe(1)
}
