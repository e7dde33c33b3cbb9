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
	"sync"
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
	// short.
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

// SharedConfig is the cluster-wide state every engine sees: the placement,
// the copy graph and its derived structures, and the run-wide sinks.
type SharedConfig struct {
	Placement *model.Placement
	Graph     *graph.CopyGraph
	// Order is the total order over sites consistent with the DAG (after
	// backedge removal); Order[i] is the i-th site. Timestamp site fields
	// are positions in this order.
	Order []model.SiteID
	// Tree routes DAG(WT)/BackEdge propagation and must satisfy the §2
	// ancestor property for the DAG edges of Graph.
	Tree *graph.Tree
	// SubtreeItems[s] is the set of items with a copy at s or any tree
	// descendant of s (drives DAG(WT) relevance).
	SubtreeItems []map[model.ItemID]bool
	// Backedges is the removed edge set B (§4); empty for pure-DAG runs.
	Backedges map[graph.Edge]bool

	Params   Params
	Recorder *history.Recorder  // nil disables serializability recording
	Metrics  *metrics.Collector // nil disables measurement
	// Trace receives per-transaction propagation lifecycle events; nil
	// disables tracing (engines then pay one branch per event site).
	Trace *trace.Recorder
	// Obs is the live metrics registry (counters, queue-depth gauges);
	// nil disables it — engines keep nil handles, which are no-ops.
	Obs *obs.Registry
	// Watch is the staleness/liveness watchdog; nil disables it — engines
	// then hold nil progress handles and register no probes, all no-ops.
	Watch *watch.Watchdog
	// Fresh is the freshness observatory tracker (docs/OBSERVABILITY.md):
	// engines note primary commits and secondary applies into it and
	// certify every read against it. Nil disables the observatory —
	// certificates, staleness distributions, and their metrics all become
	// one-branch no-ops.
	Fresh *fresh.Tracker
	// Pending tracks in-flight real (non-dummy) propagation messages so
	// the cluster can quiesce; nil disables tracking.
	Pending *sync.WaitGroup
	// WALs maps each site to its write-ahead redo log. Nil (or a missing
	// entry) runs the site without durability: crashes are then purely
	// in-memory. With a log present the engine recovers its store image,
	// unconsumed receipts, pending forwards, and 2PC state from it at
	// construction, and follows the log-then-externalize discipline at
	// runtime (docs/DURABILITY.md).
	WALs map[model.SiteID]*wal.SiteLog
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
}

// New constructs the engine for proto at site id over tr. The transport
// handler is registered automatically.
func New(proto Protocol, cfg *SharedConfig, id model.SiteID, tr comm.Transport) (Engine, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	var e Engine
	switch proto {
	case PSL:
		e = newPSL(cfg, id, tr)
	case DAGWT:
		e = newDAGWT(cfg, id, tr)
	case DAGT:
		e = newDAGT(cfg, id, tr)
	case BackEdge:
		e = newBackEdge(cfg, id, tr)
	case NaiveLazy:
		e = newNaive(cfg, id, tr)
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", proto)
	}
	tr.Register(id, e.Handle)
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
