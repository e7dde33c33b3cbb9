package watch

import (
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// maxTombstones caps each tombstone set of an Inflight; overflow clears
// the set (worst case: a transient phantom in-flight entry, never
// unbounded memory).
const maxTombstones = 1 << 16

// Edge is one copy-graph propagation edge.
type Edge struct {
	From, To model.SiteID
}

// Pending summarizes the in-flight subtransactions of one edge, or of
// every edge into one site: how many, and the oldest of them.
type Pending struct {
	N     int
	TID   model.TxnID  // the oldest entry
	From  model.SiteID // the edge the oldest entry travels
	Since time.Time    // when the oldest entry was forwarded; zero iff N == 0
}

// siteTID identifies one secondary subtransaction's arrival at a site.
type siteTID struct {
	Site model.SiteID
	TID  model.TxnID
}

// Inflight is the forwarded-but-unapplied bookkeeping behind every
// staleness view: per edge, the secondary subtransactions forwarded along
// it and not yet applied at its destination, stamped with the time the
// forward was observed. The watchdog folds its own process's events into
// one. A receiver's apply can be recorded before the sender records its
// forward, so an apply (or abort) observed first is remembered as a
// tombstone that cancels the forward when it arrives. The offline
// counterpart is trace.Explanation.Unapplied: the same rule as a set
// difference over a finished trace, which needs no tombstones.
//
// Not safe for concurrent use: the owner guards it with its own lock.
type Inflight struct {
	edges   map[Edge]map[model.TxnID]time.Time
	applied map[siteTID]struct{}
	aborted map[model.TxnID]struct{}
}

// NewInflight returns an empty fold.
func NewInflight() *Inflight {
	return &Inflight{
		edges:   make(map[Edge]map[model.TxnID]time.Time),
		applied: make(map[siteTID]struct{}),
		aborted: make(map[model.TxnID]struct{}),
	}
}

// Observe folds one trace event, observed at now, into the bookkeeping.
// Only SecondaryForwarded, SecondaryApplied, BackedgeCommit and TxnAbort
// events with a transaction matter; the rest are ignored.
func (f *Inflight) Observe(ev trace.Event, now time.Time) {
	if ev.TID.Zero() {
		return
	}
	switch ev.Kind {
	case trace.SecondaryForwarded:
		if _, aborted := f.aborted[ev.TID]; aborted {
			return
		}
		key := siteTID{Site: ev.Peer, TID: ev.TID}
		if _, done := f.applied[key]; done {
			delete(f.applied, key)
			return
		}
		e := Edge{From: ev.Site, To: ev.Peer}
		m := f.edges[e]
		if m == nil {
			m = make(map[model.TxnID]time.Time)
			f.edges[e] = m
		}
		m[ev.TID] = now
	case trace.SecondaryApplied, trace.BackedgeCommit:
		found := false
		for e, m := range f.edges {
			if e.To != ev.Site {
				continue
			}
			if _, ok := m[ev.TID]; ok {
				delete(m, ev.TID)
				found = true
			}
		}
		if !found {
			f.applied[siteTID{Site: ev.Site, TID: ev.TID}] = struct{}{}
			if len(f.applied) > maxTombstones {
				f.applied = make(map[siteTID]struct{})
			}
		}
	case trace.TxnAbort:
		// An aborted BackEdge transaction's eagerly-shipped
		// subtransactions will never apply; drop them everywhere.
		for _, m := range f.edges {
			delete(m, ev.TID)
		}
		f.aborted[ev.TID] = struct{}{}
		if len(f.aborted) > maxTombstones {
			f.aborted = make(map[model.TxnID]struct{})
		}
	}
}

// Edges returns every edge that has ever carried a forward. An edge that
// has drained reports N == 0, so a gauge fed from it falls back to zero.
func (f *Inflight) Edges() map[Edge]Pending {
	out := make(map[Edge]Pending, len(f.edges))
	for e, m := range f.edges {
		p := Pending{N: len(m), From: e.From}
		for tid, since := range m {
			if p.Since.IsZero() || since.Before(p.Since) {
				p.TID, p.Since = tid, since
			}
		}
		out[e] = p
	}
	return out
}

// Sites folds Edges by destination: per replica, how many forwarded
// subtransactions it has yet to apply, and the oldest of them across
// all its incoming edges.
func (f *Inflight) Sites() map[model.SiteID]Pending {
	out := make(map[model.SiteID]Pending)
	for e, p := range f.Edges() {
		s := out[e.To]
		s.N += p.N
		if p.N > 0 && (s.Since.IsZero() || p.Since.Before(s.Since)) {
			s.TID, s.From, s.Since = p.TID, p.From, p.Since
		}
		out[e.To] = s
	}
	return out
}
