package trace

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// The trace fold (docs/OBSERVABILITY.md): every offline view of a run —
// why a transaction was slow, an update late, a transaction aborted — is
// one field of the Explanation that Explain derives from the event
// stream alone. Every join is keyed by (protocol, TID), so concatenated
// traces of different protocols never mix, and every distribution is a
// metrics.PhaseStats under metrics.Percentile's nearest-rank rule.

// PhaseExecute names a critical path's residual segment: commit latency
// no recorded phase claims — the simulated operation cost plus
// scheduling.
const PhaseExecute = "execute"

// SegmentNames are the per-hop segments a propagation waterfall
// attributes commit→apply delay to, in causal order:
//
//	enqueue    commit (or receipt at a relay) → the update leaves the site
//	wire       sender's forward → receiver's queue (transport)
//	queue_wait sitting in the receiver's service queue
//	lock_wait  the applier blocked in the receiver's lock manager
//	apply      installing the writes into the receiver's storage
//
// The names are part of replexplain's JSON output, so they must stay
// stable.
var SegmentNames = []string{"enqueue", "wire", "queue_wait", "lock_wait", "apply"}

// Explanation is what a trace says about its run. Protocol display
// fields are left empty (the proto byte → name mapping lives in
// internal/core, above this package); Name fills them.
type Explanation struct {
	// Aborts counts TxnAbort events by root-cause tag. An untagged abort
	// counts as "unknown" (contend.ReasonUnknown) — visible, not dropped.
	Aborts map[string]uint64 `json:"aborts,omitempty"`
	// Paths is one commit critical-path profile per protocol.
	Paths []*PathProfile `json:"critical_paths,omitempty"`
	// Waterfalls is one propagation waterfall per (protocol, edge).
	Waterfalls []*Waterfall `json:"waterfalls,omitempty"`
	// Protocols holds each protocol's delay and phase distributions.
	Protocols []*ProtoStats `json:"protocols,omitempty"`
	// Unapplied is one row per (protocol, edge) that still has open
	// forwards: forwarded, and never consumed by the receiver (Open). A
	// drained run whose every process contributed its trace has none.
	Unapplied []*UnappliedEdge `json:"unapplied,omitempty"`
}

// PathProfile is one protocol's commit critical path. A transaction
// counts as committed when its origin recorded both TxnBegin and
// TxnCommit; its latency is attributed to the PhaseLatency events
// stamped inside that window, so post-commit propagation never pollutes
// it, and the unclaimed remainder is the origin's PhaseExecute segment.
type PathProfile struct {
	Proto     uint8  `json:"proto"`
	Protocol  string `json:"protocol,omitempty"`
	Committed int    `json:"committed"`
	// EndToEndNS sums begin-to-commit latency over the committed
	// transactions; AttributedNS is the part the segments account for.
	EndToEndNS   int64 `json:"end_to_end_ns"`
	AttributedNS int64 `json:"attributed_ns"`
	// OverlapNS is phase time in excess of wall-clock latency: segments
	// that ran concurrently (parallel 2PC votes) double-charge the window.
	// The excess is reported, not hidden, so coverage stays honest.
	OverlapNS int64     `json:"overlap_ns,omitempty"`
	Segments  []Segment `json:"segments"`
	Chains    []Chain   `json:"chains"`
}

// Segment is one (phase, site) slice of a protocol's commit latency:
// Count samples (per op for lock_wait, per txn for execute) summing to
// TotalNS.
type Segment struct {
	Phase   string       `json:"phase"`
	Site    model.SiteID `json:"site"`
	Count   uint64       `json:"count"`
	TotalNS int64        `json:"total_ns"`
}

// Chain is one critical-chain shape ("s0 -> s2 -> s5", the deepest
// root-to-leaf path of a committed transaction's span tree) and how many
// committed transactions propagated that way.
type Chain struct {
	Path  string `json:"path"`
	Count int    `json:"count"`
}

// Waterfall is one (protocol, edge)'s propagation delay at the
// receiver, split into SegmentNames. Count is the number of forwards
// whose receipt is in the trace.
type Waterfall struct {
	Proto    uint8          `json:"proto"`
	Protocol string         `json:"protocol,omitempty"`
	From     model.SiteID   `json:"from"`
	To       model.SiteID   `json:"to"`
	Count    uint64         `json:"count"`
	Segments []SegmentStats `json:"segments"`
}

// SegmentStats is one named waterfall segment's distribution.
type SegmentStats struct {
	Name string `json:"name"`
	metrics.PhaseStats
}

// UnappliedEdge counts the transactions whose forward along one
// (protocol, edge) is open: forwarded more often than the receiver
// consumed it. The watchdog's staleness alert reads the same fold live.
type UnappliedEdge struct {
	Proto    uint8        `json:"proto"`
	Protocol string       `json:"protocol,omitempty"`
	From     model.SiteID `json:"from"`
	To       model.SiteID `json:"to"`
	Count    int          `json:"count"`
}

// ProtoStats is one protocol's commit→apply delays (each
// SecondaryApplied against its transaction's commit) and PhaseLatency
// distributions by phase name.
type ProtoStats struct {
	Proto     uint8                         `json:"proto"`
	Protocol  string                        `json:"protocol,omitempty"`
	PropDelay metrics.PhaseStats            `json:"prop_delay"`
	Phases    map[string]metrics.PhaseStats `json:"phases,omitempty"`
}

// Name fills every Protocol display field from name.
func (x *Explanation) Name(name func(proto uint8) string) {
	for _, p := range x.Paths {
		p.Protocol = name(p.Proto)
	}
	for _, w := range x.Waterfalls {
		w.Protocol = name(w.Proto)
	}
	for _, p := range x.Protocols {
		p.Protocol = name(p.Proto)
	}
	for _, u := range x.Unapplied {
		u.Protocol = name(u.Proto)
	}
}

type txnKey struct {
	proto uint8
	tid   model.TxnID
}

type siteKey struct {
	txnKey
	site model.SiteID
}

type edge struct {
	proto    uint8
	from, to model.SiteID
}

// fold is Explain's index: one walk over the events fills it, and each
// view is derived from it alone, so the result does not depend on event
// order.
type fold struct {
	begin, commit             map[txnKey]int64  // earliest, at the origin
	receipt                   map[siteKey]int64 // earliest SecondaryEnqueued at a site
	open                      *Open
	recvPhases                map[siteKey][3]int64 // queue_wait, lock_wait, apply sums at a site
	phases, forwards, applies []Event
	spans                     map[uint8][]Event
	aborts                    map[string]uint64
	protos                    map[uint8]*protoSamples
}

type protoSamples struct {
	delays []time.Duration
	phases map[string][]time.Duration
}

// Explain folds a trace — a live recorder's snapshot, a replbench -trace
// JSONL, a flight dump, or several of them concatenated — into its
// Explanation. It is a pure function of the event multiset.
func Explain(events []Event) Explanation {
	f := fold{
		begin: make(map[txnKey]int64), commit: make(map[txnKey]int64),
		receipt: make(map[siteKey]int64), recvPhases: make(map[siteKey][3]int64),
		open: NewOpen(), spans: make(map[uint8][]Event), aborts: make(map[string]uint64),
		protos: make(map[uint8]*protoSamples),
	}
	for _, ev := range events {
		k := txnKey{ev.Proto, ev.TID}
		f.open.Observe(ev, ev.T)
		if ev.Span != 0 && !ev.TID.Zero() {
			f.spans[ev.Proto] = append(f.spans[ev.Proto], ev)
		}
		switch ev.Kind {
		case TxnBegin:
			if ev.Site == ev.TID.Site {
				earliest(f.begin, k, ev.T)
			}
		case TxnCommit:
			if ev.Site == ev.TID.Site {
				earliest(f.commit, k, ev.T)
			}
		case TxnAbort:
			reason := ev.Phase
			if reason == "" {
				reason = "unknown"
			}
			f.aborts[reason]++
		case SecondaryEnqueued:
			earliest(f.receipt, siteKey{k, ev.Site}, ev.T)
		case SecondaryForwarded:
			if ev.Peer != model.NoSite {
				f.forwards = append(f.forwards, ev)
			}
		case SecondaryApplied:
			if !ev.TID.Zero() {
				f.applies = append(f.applies, ev)
			}
		case PhaseLatency:
			f.phases = append(f.phases, ev)
			if ev.Phase != "" {
				p := f.proto(ev.Proto)
				p.phases[ev.Phase] = append(p.phases[ev.Phase], time.Duration(ev.Dur))
			}
			// The receiver-side waterfall segments, SegmentNames[2:].
			for i, name := range SegmentNames[2:] {
				if ev.Phase == name {
					sk := siteKey{k, ev.Site}
					sums := f.recvPhases[sk]
					sums[i] += ev.Dur
					f.recvPhases[sk] = sums
				}
			}
		}
	}
	return Explanation{Aborts: f.aborts, Paths: f.paths(), Waterfalls: f.waterfalls(), Protocols: f.protocols(),
		Unapplied: f.unapplied()}
}

func earliest[K comparable](m map[K]int64, k K, t int64) {
	if old, ok := m[k]; !ok || t < old {
		m[k] = t
	}
}

func (f *fold) proto(p uint8) *protoSamples {
	s := f.protos[p]
	if s == nil {
		s = &protoSamples{phases: make(map[string][]time.Duration)}
		f.protos[p] = s
	}
	return s
}

// paths builds the critical-path profiles.
func (f *fold) paths() []*PathProfile {
	type segKey struct {
		proto uint8
		phase string
		site  model.SiteID
	}
	segs := make(map[segKey]Segment)
	charge := func(k segKey, ns int64) {
		s := segs[k]
		segs[k] = Segment{Phase: k.phase, Site: k.site, Count: s.Count + 1, TotalNS: s.TotalNS + ns}
	}
	// PhaseLatency events are stamped at segment end, so "inside the
	// window" keeps pre-commit work, including what other sites did on the
	// transaction's behalf (PSL remote reads, 2PC votes), and drops
	// post-commit propagation.
	window := func(k txnKey) (begin, commit int64, ok bool) {
		begin, okb := f.begin[k]
		commit, okc := f.commit[k]
		return begin, commit, okb && okc
	}
	claimed := make(map[txnKey]int64)
	for _, ev := range f.phases {
		k := txnKey{ev.Proto, ev.TID}
		if b, c, ok := window(k); ok && ev.T >= b && ev.T <= c {
			charge(segKey{ev.Proto, ev.Phase, ev.Site}, ev.Dur)
			claimed[k] += ev.Dur
		}
	}
	byProto := make(map[uint8]*PathProfile)
	for k := range f.commit {
		b, c, ok := window(k)
		if !ok {
			continue
		}
		p := byProto[k.proto]
		if p == nil {
			p = &PathProfile{Proto: k.proto, Segments: []Segment{}}
			byProto[k.proto] = p
		}
		p.Committed++
		e2e := c - b
		p.EndToEndNS += e2e
		p.AttributedNS += e2e
		if resid := e2e - claimed[k]; resid >= 0 {
			charge(segKey{k.proto, PhaseExecute, k.tid.Site}, resid)
		} else {
			p.OverlapNS -= resid
		}
	}
	for k, s := range segs {
		byProto[k.proto].Segments = append(byProto[k.proto].Segments, s)
	}
	out := make([]*PathProfile, 0, len(byProto))
	for proto, p := range byProto {
		slices.SortFunc(p.Segments, func(a, b Segment) int {
			return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Phase, b.Phase))
		})
		chains := make(map[string]int)
		for tid, tr := range BuildSpanTrees(f.spans[proto]) {
			if _, _, ok := window(txnKey{proto, tid}); ok && tr.Root != nil {
				path, _ := deepest(tr.Root)
				chains[path]++
			}
		}
		p.Chains = make([]Chain, 0, len(chains))
		for path, n := range chains {
			p.Chains = append(p.Chains, Chain{Path: path, Count: n})
		}
		slices.SortFunc(p.Chains, func(a, b Chain) int { return cmp.Compare(a.Path, b.Path) })
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b *PathProfile) int { return cmp.Compare(a.Proto, b.Proto) })
	return out
}

// deepest returns the deepest root-to-leaf site path under n and its
// depth; children are ordered, and ties keep the first.
func deepest(n *SpanNode) (string, int) {
	tail, depth := "", 0
	for _, c := range n.Children {
		if path, d := deepest(c); d > depth {
			tail, depth = " -> "+path, d
		}
	}
	return fmt.Sprintf("s%d", n.Site) + tail, depth + 1
}

// waterfalls joins each forward to its receipt: enqueue runs from the
// commit (at the origin) or the local receipt (at a relay) to the
// forward, wire from the forward to the receipt, and the receiver's
// PhaseLatency sums make up the rest. A forward with no receipt —
// dropped, in flight, or truncated — does not join.
func (f *fold) waterfalls() []*Waterfall {
	samples := make(map[edge]*[5][]time.Duration)
	for _, ev := range f.forwards {
		k := txnKey{ev.Proto, ev.TID}
		recv := siteKey{k, ev.Peer}
		recvT, ok := f.receipt[recv]
		if !ok {
			continue
		}
		e := edge{ev.Proto, ev.Site, ev.Peer}
		s := samples[e]
		if s == nil {
			s = new([5][]time.Duration)
			samples[e] = s
		}
		start, ok := f.receipt[siteKey{k, ev.Site}]
		if ev.Site == ev.TID.Site {
			start, ok = f.commit[k]
		}
		if ok {
			s[0] = append(s[0], nonneg(ev.T-start))
		}
		s[1] = append(s[1], nonneg(recvT-ev.T))
		for i, ns := range f.recvPhases[recv] {
			s[2+i] = append(s[2+i], nonneg(ns))
		}
	}
	out := make([]*Waterfall, 0, len(samples))
	for e, s := range samples {
		w := &Waterfall{Proto: e.proto, From: e.from, To: e.to, Count: uint64(len(s[1]))}
		for i, name := range SegmentNames {
			w.Segments = append(w.Segments, SegmentStats{Name: name, PhaseStats: summarize(s[i])})
		}
		out = append(out, w)
	}
	slices.SortFunc(out, func(a, b *Waterfall) int {
		return cmp.Or(cmp.Compare(a.Proto, b.Proto), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// unapplied counts the open hops per (protocol, edge).
func (f *fold) unapplied() []*UnappliedEdge {
	open := make(map[edge]int)
	f.open.Each(func(h Hop, _ int64) { open[edge{h.Proto, h.From, h.To}]++ })
	out := make([]*UnappliedEdge, 0, len(open))
	for e, n := range open {
		out = append(out, &UnappliedEdge{Proto: e.proto, From: e.from, To: e.to, Count: n})
	}
	slices.SortFunc(out, func(a, b *UnappliedEdge) int {
		return cmp.Or(cmp.Compare(a.Proto, b.Proto), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// protocols summarizes the per-protocol samples, joining each apply to
// its transaction's commit first.
func (f *fold) protocols() []*ProtoStats {
	for _, ev := range f.applies {
		if c, ok := f.commit[txnKey{ev.Proto, ev.TID}]; ok && ev.T >= c {
			p := f.proto(ev.Proto)
			p.delays = append(p.delays, time.Duration(ev.T-c))
		}
	}
	out := make([]*ProtoStats, 0, len(f.protos))
	for proto, s := range f.protos {
		p := &ProtoStats{Proto: proto, PropDelay: summarize(s.delays), Phases: make(map[string]metrics.PhaseStats)}
		for name, ds := range s.phases {
			p.Phases[name] = summarize(ds)
		}
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b *ProtoStats) int { return cmp.Compare(a.Proto, b.Proto) })
	return out
}

// summarize is the one summary of a sample set.
func summarize(ds []time.Duration) metrics.PhaseStats {
	s := metrics.PhaseStats{Count: uint64(len(ds))}
	if len(ds) == 0 {
		return s
	}
	for _, d := range ds {
		s.Total += d
		s.Max = max(s.Max, d)
	}
	s.Mean = s.Total / time.Duration(len(ds))
	var q [3]time.Duration
	metrics.Percentiles(ds, []float64{0.50, 0.95, 0.99}, q[:])
	s.P50, s.P95, s.P99 = q[0], q[1], q[2]
	return s
}

func nonneg(ns int64) time.Duration { return time.Duration(max(ns, 0)) }
