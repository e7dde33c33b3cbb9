package core

import (
	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/model"
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
	queue *comm.Inbox[queuedMsg] // bounded by inboxBound
	fifo  depth

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
		queue:      comm.NewInbox[queuedMsg](inboxBound),
	}
	e.fifo = e.newDepth("fifo")
	e.routes, e.relay, e.enqueue = treeRoutes(cfg, id), true, e.push
	return e
}

func newDAGWT(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *dagwtEngine {
	e := buildDAGWT(cfg, DAGWT, id, tr)
	e.replay()
	return e
}

func (e *dagwtEngine) Start() { go e.applier() }

// push appends an admitted message to the FIFO queue, blocking while the
// queue is full. If the engine stops first the message is not queued; its
// receipt and pending obligation pass to recovery, as a queued one's do.
func (e *dagwtEngine) push(q queuedMsg) {
	e.fifo.push()
	e.queue.Push(q, e.stop)
}

// applier consumes the FIFO queue: each secondary subtransaction is
// executed to commit (resubmitting after deadlock timeouts, §2) and
// forwarded onward before the next is looked at, preserving receipt order.
func (e *dagwtEngine) applier() {
	for {
		q, ok := e.queue.Next(e.stop)
		if !ok {
			return
		}
		e.fifo.pop()
		e.phaseSince(metrics.PhaseQueueWait, q.msg.From, q.msg.Span.TID, q.at)
		if q.msg.Kind != kindSecondary {
			e.special(q.msg)
		} else if !e.apply(q.msg.Payload.(secondaryPayload), q.msg.Span) {
			return // stopped mid-retry
		}
	}
}
