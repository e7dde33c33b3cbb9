package core

import (
	"repro/internal/comm"
	"repro/internal/model"
)

// naiveEngine is the indiscriminate lazy propagation most commercial
// systems offered (§1, §1.2), as a policy over the lazy kernel. Routing:
// after a transaction commits, its updates are shipped directly to every
// replica site. Ordering: none beyond per-edge FIFO — each secondary is
// applied on arrival as an independent transaction, and with no
// after-commit step the kernel does not even serialize those commits.
// Example 1.1 shows this is NOT serializable even on a DAG copy graph;
// the engine exists as the negative control for the serializability
// checker and the anomaly example.
type naiveEngine struct {
	lazyEngine
}

func newNaive(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *naiveEngine {
	e := &naiveEngine{lazyEngine: newLazy(cfg, NaiveLazy, id, tr)}
	all := make([]model.SiteID, cfg.Placement.NumSites)
	for i := range all {
		all[i] = model.SiteID(i)
	}
	e.routes, e.enqueue = replicaRoutes(cfg.Placement, id, all), e.spawn
	e.replay()
	return e
}

func (e *naiveEngine) Start() {}

// spawn applies an admitted secondary on arrival, concurrently with every
// other — precisely the indiscriminate behaviour that loses
// serializability.
func (e *naiveEngine) spawn(q queuedMsg) {
	go e.apply(q.msg.Payload.(secondaryPayload), q.msg.Span)
}
