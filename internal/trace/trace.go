// Package trace records structured per-transaction lifecycle events as
// they flow through the propagation protocols: primary begin/commit/abort,
// secondary subtransactions enqueued, applied, forwarded and consumed
// site-to-site, DAG(T) dummies and epoch advances, BackEdge 2PC rounds,
// and PSL remote reads. Each event is tagged with the site, the logical
// transaction id, the protocol, and a monotonic timestamp, so a run's
// full propagation behaviour — the subject of the paper's Figures 5–9 —
// can be replayed offline: see BuildSpanTrees for per-transaction
// propagation trees and Explain for the one fold every offline view
// (aborts, critical paths, waterfalls, commit-to-replica delays) comes
// from.
//
// The recorder is lock-sharded by site so concurrent engines rarely
// contend, and a nil *Recorder is a true no-op: disabled tracing costs the
// hot paths exactly one nil check and zero allocations.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Kind enumerates the event taxonomy.
type Kind uint8

const (
	// TxnBegin marks the start of a primary subtransaction at its origin.
	TxnBegin Kind = iota + 1
	// TxnCommit marks a committed primary subtransaction.
	TxnCommit
	// TxnAbort marks an aborted primary subtransaction.
	TxnAbort
	// SecondaryEnqueued marks a secondary subtransaction entering a site's
	// incoming queue; Peer is the sending site.
	SecondaryEnqueued
	// SecondaryApplied marks a secondary subtransaction committing at a
	// replica site.
	SecondaryApplied
	// SecondaryForwarded marks a site shipping a secondary subtransaction
	// to Peer (tree child, copy-graph child, or backedge target).
	SecondaryForwarded
	// DummySent marks a DAG(T) dummy subtransaction sent down an idle edge
	// to Peer (§3.3); its TID is zero.
	DummySent
	// EpochAdvance marks a DAG(T) source site advancing its epoch (§3.3).
	EpochAdvance
	// BackedgePrepare marks a 2PC prepare: at the origin when the round
	// starts, at a participant when it votes.
	BackedgePrepare
	// BackedgeCommit marks a 2PC commit decision: at the origin when the
	// round succeeds, at a participant when it applies the decision.
	BackedgeCommit
	// RemoteRead marks a PSL remote read issued to the primary site Peer.
	RemoteRead
	// FaultDrop marks the fault injector discarding a message on the
	// Site→Peer edge (seeded loss, a partition, or a crashed endpoint).
	FaultDrop
	// FaultDuplicate marks the fault injector delivering an extra copy of a
	// message on the Site→Peer edge.
	FaultDuplicate
	// FaultDelay marks the fault injector holding a message on the
	// Site→Peer edge beyond the transport's own latency.
	FaultDelay
	// SiteCrash marks a whole-site crash injected at Site: the site stops
	// sending and receiving until SiteRestart.
	SiteCrash
	// SiteRestart marks a crashed Site coming back.
	SiteRestart
	// PartitionCut marks the directed Site→Peer edge being partitioned.
	PartitionCut
	// PartitionHeal marks the directed Site→Peer edge healing.
	PartitionHeal
	// DecisionInquiry marks 2PC decision recovery: at a participant when it
	// asks the coordinator Peer for a missed decision, at the coordinator
	// when it answers one.
	DecisionInquiry
	// RelRetransmit marks the reliable-delivery sublayer resending an
	// unacknowledged envelope to Peer (docs/FAULTS.md).
	RelRetransmit
	// RelAck marks the reliable-delivery sublayer acknowledging delivered
	// data back to Peer.
	RelAck
	// WatchAlert marks the watchdog raising a liveness/staleness alert at
	// Site (docs/OBSERVABILITY.md); Peer is the implicated edge endpoint
	// or model.NoSite.
	WatchAlert
	// WatchClear marks a previously raised watchdog alert clearing.
	WatchClear
	// PhaseLatency attributes a latency segment (Event.Phase names it,
	// Event.Dur holds nanoseconds) to the transaction at Site; recorded
	// span-less so wall-clock durations never perturb span-tree structure.
	PhaseLatency
	// WALSnapshot marks Site's write-ahead log serializing a storage
	// snapshot and truncating the segments it covers (docs/DURABILITY.md).
	WALSnapshot
	// WALRecover marks Site finishing crash recovery: snapshot load, redo
	// replay, and engine rebuild from its WAL directory; Event.Dur holds
	// the recovery latency in nanoseconds.
	WALRecover
	// SecondaryConsumed marks Site consuming one receipt of a
	// subtransaction Peer forwarded to it — applied, executed holding
	// locks and relayed, passed through, come home, or deduplicated — at
	// the point the receipt's pending obligation is released. It settles
	// one SecondaryForwarded on the Peer→Site edge (Open).
	SecondaryConsumed

	kindEnd
)

var kindNames = [kindEnd]string{
	TxnBegin:           "TxnBegin",
	TxnCommit:          "TxnCommit",
	TxnAbort:           "TxnAbort",
	SecondaryEnqueued:  "SecondaryEnqueued",
	SecondaryApplied:   "SecondaryApplied",
	SecondaryForwarded: "SecondaryForwarded",
	DummySent:          "DummySent",
	EpochAdvance:       "EpochAdvance",
	BackedgePrepare:    "BackedgePrepare",
	BackedgeCommit:     "BackedgeCommit",
	RemoteRead:         "RemoteRead",
	FaultDrop:          "FaultDrop",
	FaultDuplicate:     "FaultDuplicate",
	FaultDelay:         "FaultDelay",
	SiteCrash:          "SiteCrash",
	SiteRestart:        "SiteRestart",
	PartitionCut:       "PartitionCut",
	PartitionHeal:      "PartitionHeal",
	DecisionInquiry:    "DecisionInquiry",
	RelRetransmit:      "RelRetransmit",
	RelAck:             "RelAck",
	WatchAlert:         "WatchAlert",
	WatchClear:         "WatchClear",
	PhaseLatency:       "PhaseLatency",
	WALSnapshot:        "WALSnapshot",
	WALRecover:         "WALRecover",
	SecondaryConsumed:  "SecondaryConsumed",
}

func (k Kind) String() string {
	if k > 0 && k < kindEnd {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText renders the kind name, making JSONL human-readable.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i := Kind(1); i < kindEnd; i++ {
		if kindNames[i] == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one recorded lifecycle event. T is nanoseconds since the
// recorder was created (monotonic); Peer is the counterpart site of the
// event (sender, receiver, or remote-read primary) or model.NoSite.
type Event struct {
	T    int64        `json:"t"`
	Kind Kind         `json:"kind"`
	Site model.SiteID `json:"site"`
	Peer model.SiteID `json:"peer"`
	TID  model.TxnID  `json:"-"`
	// Span is the causal span this event belongs to and Parent the span
	// it descends from (model.RootSpan(TID) roots each transaction's
	// tree); both are zero for events recorded without span context.
	Span   model.SpanID `json:"span,omitempty"`
	Parent model.SpanID `json:"parent,omitempty"`
	Proto  uint8        `json:"proto"`
	// Phase and Dur carry latency attribution for PhaseLatency events:
	// the metrics.Phase name and the segment's duration in nanoseconds.
	// Phase also tags TxnAbort with its root cause; Dur also holds
	// WALRecover's recovery latency.
	Phase string `json:"phase,omitempty"`
	Dur   int64  `json:"dur,omitempty"`
}

// jsonEvent flattens TID so each JSONL line is a single small object.
type jsonEvent struct {
	T      int64        `json:"t"`
	Kind   Kind         `json:"kind"`
	Site   model.SiteID `json:"site"`
	Peer   model.SiteID `json:"peer"`
	TSite  model.SiteID `json:"tsite"`
	TSeq   uint64       `json:"tseq"`
	Span   model.SpanID `json:"span,omitempty"`
	Parent model.SpanID `json:"parent,omitempty"`
	Proto  uint8        `json:"proto"`
	Phase  string       `json:"phase,omitempty"`
	Dur    int64        `json:"dur,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{
		T: e.T, Kind: e.Kind, Site: e.Site, Peer: e.Peer,
		TSite: e.TID.Site, TSeq: e.TID.Seq,
		Span: e.Span, Parent: e.Parent, Proto: e.Proto,
		Phase: e.Phase, Dur: e.Dur,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j jsonEvent
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*e = Event{
		T: j.T, Kind: j.Kind, Site: j.Site, Peer: j.Peer,
		TID:  model.TxnID{Site: j.TSite, Seq: j.TSeq},
		Span: j.Span, Parent: j.Parent, Proto: j.Proto,
		Phase: j.Phase, Dur: j.Dur,
	}
	return nil
}

// shardCount trades memory for contention; sharding is by site, so any
// power of two comfortably above the typical site count works.
const shardCount = 32

type shard struct {
	mu     sync.Mutex
	events []Event
	// pad shards apart so neighbouring locks do not share a cache line.
	_ [40]byte
}

// Recorder accumulates events from concurrently-running engines. All
// methods are safe for concurrent use; a nil *Recorder is a valid no-op
// sink whose Record costs one branch and never allocates.
type Recorder struct {
	start time.Time
	// sinks is a copy-on-write slice behind an atomic pointer, so the
	// record path reads it with one load and registration is safe even
	// while traffic flows; sinkMu serializes registrations only.
	sinks  atomic.Pointer[[]func(Event)]
	sinkMu sync.Mutex
	shards [shardCount]shard
}

// NewRecorder returns an empty recorder; its creation time is the zero
// point of every event timestamp.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// AddSink registers a live tap invoked synchronously (in registration
// order, after earlier sinks) for every recorded event, on the recording
// goroutine and outside the shard lock. Safe to call concurrently with
// recording: events recorded before the registration completes may or may
// not reach fn, but none are torn.
func (r *Recorder) AddSink(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	var next []func(Event)
	if cur := r.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, fn)
	r.sinks.Store(&next)
}

// Add stamps ev.T with the time since the recorder was created, appends
// the event to its site's shard and hands it to every sink. The caller
// fills every other field. Events that carry wall-clock payloads (a Dur)
// are recorded span-less, so that timing never perturbs span-tree
// structure. A nil recorder drops the event.
func (r *Recorder) Add(ev Event) {
	if r == nil {
		return
	}
	ev.T = int64(time.Since(r.start))
	s := &r.shards[uint(ev.Site)%shardCount]
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	if sinks := r.sinks.Load(); sinks != nil {
		for _, fn := range *sinks {
			fn(ev)
		}
	}
}

// Record appends one span-less event. All arguments are scalars so the
// disabled (nil-recorder) path performs no interface boxing and no
// allocation.
func (r *Recorder) Record(k Kind, site, peer model.SiteID, tid model.TxnID, proto uint8) {
	r.RecordSpan(k, site, peer, tid, proto, 0, 0)
}

// RecordSpan appends one event carrying causal span attribution.
func (r *Recorder) RecordSpan(k Kind, site, peer model.SiteID, tid model.TxnID, proto uint8, span, parent model.SpanID) {
	r.Add(Event{Kind: k, Site: site, Peer: peer, TID: tid, Span: span, Parent: parent, Proto: proto})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns every recorded event, sorted by timestamp. It may be
// called while engines are still recording.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// WriteJSONL writes the sorted event stream as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Snapshot())
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses an event stream produced by WriteJSONL. Blank lines are
// skipped, so concatenated trace files parse cleanly.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
