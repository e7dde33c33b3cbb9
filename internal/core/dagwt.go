package core

import (
	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/watch"
)

// dagwtEngine implements the DAG(WT) protocol (§2) as a policy over the
// lazy kernel. Routing: updates travel only along the edges of the tree
// cfg.Tree, and a committed secondary is relayed onward. Ordering: every
// site has (at most) one tree parent, so a single FIFO queue holds the
// incoming secondary subtransactions, which one applier commits and
// forwards in receipt order. The kernel's commit mutex makes "commit,
// then forward to relevant children" atomic, so the forwarding order at a
// site always equals its commit order.
type dagwtEngine struct {
	lazyEngine
	queue chan queuedMsg
	prog  *watch.Progress

	// special takes the queued messages that are not plain secondaries.
	// Nil under DAG(WT), which admits nothing else; BackEdge, which embeds
	// this engine, sets it to run its special subtransactions in the same
	// FIFO order (§4.1 step 2).
	special func(comm.Message)
}

// buildDAGWT constructs the engine without replaying its redo log, so
// BackEdge can restore its eager state first.
func buildDAGWT(cfg *SharedConfig, proto Protocol, id model.SiteID, tr comm.Transport) *dagwtEngine {
	e := &dagwtEngine{
		lazyEngine: newLazy(cfg, proto, id, tr),
		// Deep enough that Handle, which runs on the transport's delivery
		// goroutine, never blocks behind a slow applier in any run this
		// repository makes; bounded inboxes are ROADMAP 5d.
		queue: make(chan queuedMsg, 1<<16),
		prog:  cfg.Watch.Queue(id, "fifo"),
	}
	e.routes, e.relay, e.enqueue = treeRoutes(cfg, id), true, e.push
	return e
}

func newDAGWT(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *dagwtEngine {
	e := buildDAGWT(cfg, DAGWT, id, tr)
	e.replay()
	return e
}

func (e *dagwtEngine) Start() { go e.applier() }

// push appends an admitted message to the FIFO queue.
func (e *dagwtEngine) push(q queuedMsg) {
	e.obs.fifoDepth.Inc()
	e.prog.Push()
	e.queue <- q
}

// applier consumes the FIFO queue: each secondary subtransaction is
// executed to commit (resubmitting after deadlock timeouts, §2) and
// forwarded onward before the next is looked at, preserving receipt order.
func (e *dagwtEngine) applier() {
	for {
		select {
		case q := <-e.queue:
			e.obs.fifoDepth.Dec()
			e.prog.Pop()
			e.phaseSince(metrics.PhaseQueueWait, q.msg.From, q.msg.Span.TID, q.at)
			if q.msg.Kind != kindSecondary {
				e.special(q.msg)
			} else if !e.apply(q.msg.Payload.(secondaryPayload), q.msg.Span) {
				return // stopped mid-retry
			}
		case <-e.stop:
			return
		}
	}
}
