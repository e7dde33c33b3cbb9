// Package core implements the paper's update-propagation protocols:
//
//   - DAG(WT) (§2): lazy propagation along a tree derived from the copy
//     graph, secondaries applied and forwarded in FIFO commit order;
//   - DAG(T) (§3): lazy propagation along copy-graph edges, ordered by
//     vector timestamps with epoch numbers for progress;
//   - BackEdge (§4): the hybrid protocol for cyclic copy graphs — eager,
//     two-phase-committed propagation along backedges, DAG(WT) elsewhere;
//   - PSL (§5.1): the lazy primary-site-locking baseline;
//   - NaiveLazy (§1.2): indiscriminate lazy propagation, which does NOT
//     guarantee serializability and exists to reproduce Example 1.1.
//
// One Engine instance runs per site; engines communicate only through a
// comm.Transport, so the same code drives the in-process simulation and
// the TCP multi-process deployment.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/fresh"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/ts"
	"repro/internal/wal"
	"repro/internal/watch"
)

// Protocol selects an update-propagation protocol.
type Protocol int

const (
	// PSL is the primary-site-locking baseline.
	PSL Protocol = iota
	// DAGWT is the tree-routed lazy protocol of §2.
	DAGWT
	// DAGT is the timestamp-ordered lazy protocol of §3.
	DAGT
	// BackEdge is the hybrid protocol of §4 (extension of DAG(WT)).
	BackEdge
	// NaiveLazy propagates indiscriminately and is NOT serializable; it is
	// the negative control for the serializability checker.
	NaiveLazy
)

func (p Protocol) String() string {
	switch p {
	case PSL:
		return "PSL"
	case DAGWT:
		return "DAG(WT)"
	case DAGT:
		return "DAG(T)"
	case BackEdge:
		return "BackEdge"
	case NaiveLazy:
		return "NaiveLazy"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol converts a user-facing name to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(s, "(", ""), ")", "")) {
	case "psl":
		return PSL, nil
	case "dagwt", "dag-wt":
		return DAGWT, nil
	case "dagt", "dag-t":
		return DAGT, nil
	case "backedge", "be":
		return BackEdge, nil
	case "naivelazy", "naive":
		return NaiveLazy, nil
	default:
		return 0, fmt.Errorf("core: unknown protocol %q", s)
	}
}

// Propagates reports whether the protocol pushes updates to replicas (PSL
// deliberately does not: replicas are bypassed via remote reads).
func (p Protocol) Propagates() bool { return p != PSL }

// Serializable reports whether the protocol guarantees globally
// serializable executions.
func (p Protocol) Serializable() bool { return p != NaiveLazy }

// Params are the tunables shared by all protocols, mirroring Table 1.
type Params struct {
	// LockTimeout bounds every lock wait; on expiry the waiter is the
	// deadlock victim (the paper's 50 ms mechanism).
	LockTimeout time.Duration
	// PrepareTimeout bounds how long a BackEdge primary holds its locks
	// waiting for its special subtransaction to come home before treating
	// itself as globally deadlocked and aborting.
	PrepareTimeout time.Duration
	// WoundGrace is how long a parked BackEdge primary is protected from
	// being wounded by a blocking secondary subtransaction: long enough
	// for a healthy backedge round-trip to finish, short enough that a
	// genuine global deadlock (Example 4.1) resolves well before
	// PrepareTimeout.
	WoundGrace time.Duration
	// EpochPeriod is how often DAG(T) source sites advance their epoch
	// (§3.3).
	EpochPeriod time.Duration
	// DummyPeriod is the silence threshold after which a DAG(T) site sends
	// a dummy secondary subtransaction down an idle copy-graph edge (§3.3).
	DummyPeriod time.Duration
	// OpCost simulates the CPU time of one read/write operation, standing
	// in for the prototype's 1990s UltraSparc per-operation work so lock
	// contention windows resemble the paper's.
	OpCost time.Duration
	// RPCTimeout bounds request/reply calls (PSL remote reads, 2PC
	// rounds); it must exceed LockTimeout or remote lock waits are cut
	// short. It also sets PSL's read lease (readLease).
	RPCTimeout time.Duration
	// DetectDeadlocks enables the local wait-for-graph detector as an
	// alternative to pure timeouts.
	DetectDeadlocks bool
}

// DefaultParams returns the prototype's settings (Table 1).
func DefaultParams() Params {
	return Params{
		LockTimeout:    50 * time.Millisecond,
		PrepareTimeout: 500 * time.Millisecond,
		WoundGrace:     25 * time.Millisecond,
		EpochPeriod:    25 * time.Millisecond,
		DummyPeriod:    10 * time.Millisecond,
		OpCost:         200 * time.Microsecond,
		RPCTimeout:     250 * time.Millisecond,
	}
}

// readLease is how long a PSL remote read grant is honoured, counted from
// when the reader sent the request: a reader commits only inside the lease
// of its earliest grant, and a restarted primary grants no exclusive lock
// for this long after boot, so no lease granted before a crash is ever
// broken. Twice RPCTimeout leaves a reader whose one remote read took the
// whole timeout as long again to finish, and keeps a restarted primary's
// write fence at half a second under Table 1's settings.
func (p Params) readLease() time.Duration { return 2 * p.RPCTimeout }

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.LockTimeout <= 0 {
		return fmt.Errorf("core: LockTimeout must be positive")
	}
	if p.RPCTimeout <= p.LockTimeout {
		return fmt.Errorf("core: RPCTimeout (%v) must exceed LockTimeout (%v)", p.RPCTimeout, p.LockTimeout)
	}
	if p.PrepareTimeout <= 0 || p.EpochPeriod <= 0 || p.DummyPeriod <= 0 {
		return fmt.Errorf("core: timeouts and periods must be positive")
	}
	if p.WoundGrace < 0 {
		return fmt.Errorf("core: WoundGrace must be non-negative")
	}
	if p.WoundGrace >= p.PrepareTimeout {
		return fmt.Errorf("core: WoundGrace (%v) must stay below PrepareTimeout (%v)", p.WoundGrace, p.PrepareTimeout)
	}
	return nil
}

// Shape chooses how NewTopology cuts the copy graph's cycles and lays out
// the propagation tree. The zero Shape is the prototype's (§5.1): the
// backedges are the edges pointing backwards in site-ID order, and the
// tree is the ID-order chain.
type Shape struct {
	// GeneralTree builds the bushy tree over the DAG instead of the chain.
	GeneralTree bool
	// MinimizeBackedges cuts the §4.2 weighted feedback-arc-set heuristic's
	// backedges instead of the ID-order ones, so fewer (and lighter) item
	// updates propagate eagerly. The chain follows the ID order, so this
	// implies GeneralTree.
	MinimizeBackedges bool
}

// Topology is the propagation structure every site of a run shares,
// derived once from the placement by NewTopology and never changed after:
// the placement, the backedge set B and the DAG that remains without it,
// the propagation tree over that DAG, and the protocol parameters. Beyond
// it, sites share only the run's Sinks and the transport.
type Topology struct {
	Placement *model.Placement
	// Backedges is the removed edge set B (§4); empty for pure-DAG runs.
	Backedges []graph.Edge
	// DAG is the copy graph without B. DAG(T) propagates along its edges.
	DAG *graph.CopyGraph
	// Tree routes DAG(WT) and BackEdge propagation. It satisfies the §2
	// ancestor property for DAG's edges, and for BackEdge every backedge
	// target is a tree ancestor of its origin (§4.1).
	Tree   *graph.Tree
	Params Params
	// subtree[s] is the set of items with a copy at s or at any tree
	// descendant of s: what DAG(WT) forwards to s (treeRoutes).
	subtree []map[model.ItemID]bool
}

// NewTopology derives proto's topology over placement p, shaped by shape,
// and checks what proto assumes of it: DAG(WT) and DAG(T) need an acyclic
// copy graph, and BackEdge routes each backedge through a tree ancestor.
// Every deployment — the in-process cluster and one process per site —
// derives it here from the same inputs, so all sites agree.
func NewTopology(proto Protocol, p *model.Placement, params Params, shape Shape) (*Topology, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	g := graph.FromPlacement(p)
	// The total order over sites is the ID order (the workload generator
	// lays data out with respect to it).
	order := make([]model.SiteID, p.NumSites)
	for i := range order {
		order[i] = model.SiteID(i)
	}
	var backs []graph.Edge
	if shape.MinimizeBackedges {
		backs = graph.MinWeightBackedges(g)
	} else {
		backs = graph.OrderBackedges(g, order)
	}
	dag := g.Without(backs)
	if !dag.IsDAG() {
		return nil, fmt.Errorf("core: internal error: graph minus backedges is not a DAG")
	}
	if (proto == DAGWT || proto == DAGT) && len(backs) > 0 {
		return nil, fmt.Errorf("core: %v needs a DAG copy graph but the placement induces %d backedges; use BackEdge or a backedge probability of 0",
			proto, len(backs))
	}
	var tree *graph.Tree
	if shape.GeneralTree || shape.MinimizeBackedges {
		var err error
		if tree, err = graph.BuildTree(dag); err != nil {
			return nil, err
		}
	} else {
		tree = graph.BuildChain(order)
	}
	if e := graph.CheckAncestorProperty(dag, tree); e != nil {
		return nil, fmt.Errorf("core: propagation tree violates the ancestor property on edge %v", *e)
	}
	if proto == BackEdge {
		for _, e := range backs {
			if !tree.IsAncestor(e.To, e.From) {
				return nil, fmt.Errorf("core: backedge %v target is not a tree ancestor of its origin", e)
			}
		}
	}
	return &Topology{
		Placement: p, Backedges: backs, DAG: dag, Tree: tree, Params: params,
		subtree: graph.SubtreeCopyItems(tree, p),
	}, nil
}

// Sinks are a run's observers, shared by its sites; each nil one is
// disabled.
type Sinks struct {
	Recorder *history.Recorder  // serializability recording
	Metrics  *metrics.Collector // measurement
	// Trace receives per-transaction propagation lifecycle events
	// (engines pay one branch per event site when it is nil).
	Trace *trace.Recorder
	// Obs is the live metrics registry. Engines export their counter
	// banks and queue depths into it as reads of their own state, and
	// each rebuilt engine's export replaces its predecessor's.
	Obs *obs.Registry
	// Fresh is the freshness observatory tracker (docs/OBSERVABILITY.md).
	// Each site's transaction manager feeds it, beside Recorder: it notes
	// every primary commit and secondary apply and certifies every read
	// as it is made, and is the only place a certificate is counted; the
	// engines count reads, certified or not. It stays one in-process
	// oracle for the run, because certifying a replica read needs the
	// primary's version at that moment. Without it reads are counted but
	// not certified.
	Fresh *fresh.Tracker
}

// Site is what one site brings to its engine besides the Topology: its
// identity, its own redo log, and the run's sinks.
type Site struct {
	ID model.SiteID
	// Log is the site's write-ahead redo log; nil runs the site without
	// durability, and such a site is never crashed. With a log the engine
	// recovers its store image, unconsumed receipts, pending forwards and
	// 2PC state from it at construction, and follows the
	// log-then-externalize discipline at runtime (docs/DURABILITY.md).
	Log *wal.SiteLog
	Sinks
}

// Engine is one site's protocol instance.
type Engine interface {
	// Site returns the engine's site.
	Site() model.SiteID
	// Execute runs one transaction program originating here and blocks
	// until it commits or aborts. Reads must target items with a copy at
	// this site; writes must target items whose primary is here (§1.1).
	Execute(ops []model.Op) error
	// Handle consumes one transport message; it is the comm.Handler for
	// the site and must not block indefinitely.
	Handle(msg comm.Message)
	// Start launches background workers (appliers, tickers).
	Start()
	// Stop terminates background workers. Queued secondaries die with the
	// heap, but not with the site: over a WAL every acknowledged receipt
	// was logged before it was queued, and the next engine built on that
	// log re-admits the unconsumed ones. Without a WAL they are dropped.
	Stop()
	// Status reads the engine's own state, for the watchdog and for
	// Quiescent: whether it is stopped, its queue's depth and pops, its
	// protocol's own progress (DAG(T) epochs, BackEdge prepared and
	// unsettled participants), and its bank's forward and consumption
	// counts.
	Status() watch.Status
}

// Quiescent reports whether a run whose clients have all returned has no
// propagation left in flight, judged from two successive reads of every
// site's Status, first and second (site-indexed, equal length): no site
// is down and no BackEdge participant unsettled in either read, and the
// receipts consumed in the first read sum to the forwards counted in the
// second.
//
// Why two reads make one instant: let F(t) and C(t) be the true sums of
// forwards and consumptions at time t, and t any instant between the
// reads. Both counts only grow, so Σ first.Consumed <= C(t) and
// F(t) <= Σ second.Forwarded; and every consumption settles a distinct
// earlier forward, so C(t) <= F(t). Equal read sums therefore force
// C(t) = F(t): at t no forward was open. Nothing open means nothing left
// to forward, because a forward is always counted before the consumption
// that causes it: an applier forwards inside its commit and releases the
// receipt after it, and a relay ships before it consumes. The one other
// source of work is a BackEdge participant awaiting its decision. Its
// record is made before its own receipt is consumed, and Status reads the
// unsettled records after the consumed count. So a participant unsettled
// at t either shows in the first read, or was made after that read's
// consumed count and was consumed after it too, yet before t: the first
// read's sum then falls short of C(t), and the sums differ. A down site
// is not quiescent either: its recovery may re-forward.
func Quiescent(first, second []watch.Status) bool {
	var consumed, forwarded uint64
	for i := range first {
		a, b := &first[i], &second[i]
		if a.Down || b.Down || a.Unsettled > 0 || b.Unsettled > 0 {
			return false
		}
		consumed += a.Consumed
		forwarded += b.Forwarded
	}
	return consumed == forwarded
}

// New constructs proto's engine for site over tr; topo must come from
// NewTopology for the same protocol. The transport handler is registered
// automatically.
func New(proto Protocol, topo *Topology, site Site, tr comm.Transport) (Engine, error) {
	var e Engine
	switch proto {
	case PSL:
		e = newPSL(topo, site, tr)
	case DAGWT:
		e = newDAGWT(topo, site, tr)
	case DAGT:
		e = newDAGT(topo, site, tr)
	case BackEdge:
		e = newBackEdge(topo, site, tr)
	case NaiveLazy:
		e = newNaive(topo, site, tr)
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", proto)
	}
	exportQueues(site.Obs, e)
	tr.Register(site.ID, e.Handle)
	return e, nil
}

// Message kinds.
const (
	kindSecondary     = iota + 1 // secondary subtransaction (DAG(WT)/DAG(T)/NaiveLazy)
	kindSpecial                  // BackEdge special secondary (uncommitted relay, §4.1 step 2)
	kindBackedgeExec             // BackEdge: origin -> farthest backedge site (§4.1 step 1)
	kindBackedgeAbort            // BackEdge: origin aborts its backedge subtransactions
	kindPrepare                  // 2PC phase 1 (RPC)
	kindDecision                 // 2PC phase 2 (RPC)
	kindPSLRead                  // PSL remote read: lock at primary + ship value (RPC)
	kindPSLRelease               // PSL commit/abort-time remote lock release
	kindInquiry                  // 2PC decision inquiry: stuck participant -> coordinator (RPC)
)

// secondaryPayload carries a committed transaction's writes to a replica
// site. TS is meaningful for DAG(T) only; Dummy marks the §3.3 heartbeat.
type secondaryPayload struct {
	TID    model.TxnID
	TS     ts.Timestamp
	Writes []model.WriteOp
	Dummy  bool
}

// WireSize implements comm.PayloadSizer for byte accounting on the
// in-process transport: TID + flags, 16 bytes per write, 16 per
// timestamp tuple plus the epoch.
func (p secondaryPayload) WireSize() int {
	return 24 + 16*len(p.Writes) + 16*len(p.TS.Tuples)
}

// specialPayload carries a BackEdge transaction's writes: directly to the
// farthest backedge site (kindBackedgeExec) and then hop-by-hop down the
// tree back to the origin (kindSpecial).
type specialPayload struct {
	TID    model.TxnID
	Origin model.SiteID
	Writes []model.WriteOp
}

// WireSize implements comm.PayloadSizer.
func (p specialPayload) WireSize() int { return 24 + 16*len(p.Writes) }

type preparePayload struct{ TID model.TxnID }

type prepareResp struct{ Vote bool }

type decisionPayload struct {
	TID    model.TxnID
	Commit bool
}

type decisionResp struct{}

type abortPayload struct{ TID model.TxnID }

type pslReadReq struct {
	TID  model.TxnID
	Item model.ItemID
}

type pslReadResp struct {
	Value   int64
	Version uint64
}

type pslReleasePayload struct{ TID model.TxnID }

// inquiryPayload asks a transaction's coordinator for its 2PC decision; a
// participant sends it when it has been prepared for suspiciously long
// (the phase-2 message was lost, or the coordinator crashed after
// deciding).
type inquiryPayload struct{ TID model.TxnID }

// inquiryResp answers a decision inquiry from the coordinator's decision
// log. Known is false while the coordinator has not decided yet — the
// participant keeps waiting (and keeps its locks, as prepared demands).
type inquiryResp struct {
	Known  bool
	Commit bool
}

// RegisterPayloads registers every protocol payload for gob encoding; TCP
// deployments must call it once at startup.
func RegisterPayloads() {
	comm.RegisterPayload(secondaryPayload{})
	comm.RegisterPayload(specialPayload{})
	comm.RegisterPayload(preparePayload{})
	comm.RegisterPayload(prepareResp{})
	comm.RegisterPayload(decisionPayload{})
	comm.RegisterPayload(decisionResp{})
	comm.RegisterPayload(abortPayload{})
	comm.RegisterPayload(pslReadReq{})
	comm.RegisterPayload(pslReadResp{})
	comm.RegisterPayload(pslReleasePayload{})
	comm.RegisterPayload(inquiryPayload{})
	comm.RegisterPayload(inquiryResp{})
	comm.RegisterPayload(comm.RemoteError{})
}
