package watch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// TestInflightReordering checks the in-flight fold against the orders
// in which a recorder's sink can observe one subtransaction's events
// (a receiver may record its apply before the sender records the
// forward): every interleaving of forward, apply and abort must leave
// nothing in flight, and a replica fed by two edges reports the oldest
// entry across both.
func TestInflightReordering(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tid := func(seq uint64) model.TxnID { return model.TxnID{Site: 0, Seq: seq} }
	fwd := func(from, to model.SiteID, seq uint64) trace.Event {
		return trace.Event{Kind: trace.SecondaryForwarded, Site: from, Peer: to, TID: tid(seq)}
	}
	app := func(at model.SiteID, seq uint64) trace.Event {
		return trace.Event{Kind: trace.SecondaryApplied, Site: at, Peer: model.NoSite, TID: tid(seq)}
	}
	abort := func(seq uint64) trace.Event {
		return trace.Event{Kind: trace.TxnAbort, Site: 0, Peer: model.NoSite, TID: tid(seq)}
	}

	cases := []struct {
		name   string
		events []trace.Event
		site   model.SiteID
		want   Pending // Sites()[site]
	}{
		{name: "forward only", events: []trace.Event{fwd(0, 1, 1)}, site: 1,
			want: Pending{N: 1, TID: tid(1), From: 0, Since: t0}},
		{name: "in order", events: []trace.Event{fwd(0, 1, 1), app(1, 1)}, site: 1},
		{name: "apply before forward", events: []trace.Event{app(1, 1), fwd(0, 1, 1)}, site: 1},
		{name: "abort after forward", events: []trace.Event{fwd(0, 1, 1), abort(1)}, site: 1},
		{name: "abort before forward", events: []trace.Event{abort(1), fwd(0, 1, 1)}},
		{name: "apply elsewhere leaves the edge in flight",
			events: []trace.Event{fwd(0, 1, 1), app(2, 1)}, site: 1,
			want: Pending{N: 1, TID: tid(1), From: 0, Since: t0}},
		{name: "two edges into one site: per-site oldest",
			events: []trace.Event{fwd(0, 2, 1), fwd(1, 2, 2), fwd(1, 2, 3)}, site: 2,
			want: Pending{N: 3, TID: tid(1), From: 0, Since: t0}},
		{name: "two edges into one site: oldest drains",
			events: []trace.Event{fwd(0, 2, 1), fwd(1, 2, 2), app(2, 1)}, site: 2,
			want: Pending{N: 1, TID: tid(2), From: 1, Since: t0.Add(time.Millisecond)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := NewInflight()
			for i, ev := range c.events {
				f.Observe(ev, t0.Add(time.Duration(i)*time.Millisecond))
			}
			if got := f.Sites()[c.site]; got != c.want {
				t.Fatalf("site %d: got %+v, want %+v", c.site, got, c.want)
			}
			var n int
			for _, p := range f.Edges() {
				n += p.N
			}
			if n != c.want.N {
				t.Fatalf("edges hold %d in flight, want %d (%+v)", n, c.want.N, f.Edges())
			}
		})
	}
}

// TestInflightAgreesWithExplain feeds one stream — lazy forwards and a
// relay, a BackEdge eager subtransaction committed by its 2PC decision,
// an aborted one, and forwards that never arrive — to the live fold in
// shuffled orders and to trace.Explain, whose order-free set difference
// is the reference: both must report the same unapplied count per edge.
func TestInflightAgreesWithExplain(t *testing.T) {
	const proto = 4
	ev := func(k trace.Kind, site, peer model.SiteID, origin model.SiteID, seq uint64) trace.Event {
		return trace.Event{Kind: k, Site: site, Peer: peer, TID: model.TxnID{Site: origin, Seq: seq}, Proto: proto}
	}
	fwd := func(from, to, origin model.SiteID, seq uint64) trace.Event {
		return ev(trace.SecondaryForwarded, from, to, origin, seq)
	}
	at := func(k trace.Kind, site, origin model.SiteID, seq uint64) trace.Event {
		return ev(k, site, model.NoSite, origin, seq)
	}
	events := []trace.Event{
		// Lazy, relayed s0 -> s1 -> s2, all applied.
		at(trace.TxnCommit, 0, 0, 1), fwd(0, 1, 0, 1), at(trace.SecondaryApplied, 1, 0, 1),
		fwd(1, 2, 0, 1), at(trace.SecondaryApplied, 2, 0, 1),
		// Lazy, applied at s1, its relay to s3 lost.
		at(trace.TxnCommit, 0, 0, 2), fwd(0, 1, 0, 2), at(trace.SecondaryApplied, 1, 0, 2), fwd(1, 3, 0, 2),
		// BackEdge eager s1 -> s0, committed by the decision at both ends.
		fwd(1, 0, 1, 1), at(trace.BackedgePrepare, 0, 1, 1), at(trace.BackedgeCommit, 0, 1, 1),
		at(trace.BackedgeCommit, 1, 1, 1), at(trace.TxnCommit, 1, 1, 1),
		// BackEdge eager from s2, aborted: never applied, never unapplied.
		fwd(2, 0, 2, 1), fwd(2, 1, 2, 1), at(trace.BackedgePrepare, 0, 2, 1), at(trace.TxnAbort, 2, 2, 1),
		// Lazy, one of two forwards lost.
		at(trace.TxnCommit, 0, 0, 3), fwd(0, 2, 0, 3), fwd(0, 1, 0, 3), at(trace.SecondaryApplied, 1, 0, 3),
		// Lazy from s3, applied only somewhere it was not sent.
		at(trace.TxnCommit, 3, 3, 1), fwd(3, 1, 3, 1), fwd(3, 2, 3, 1), at(trace.SecondaryApplied, 0, 3, 1),
		{Kind: trace.DummySent, Site: 0, Peer: 1, Proto: proto},
	}

	want := make(map[Edge]int)
	for _, u := range trace.Explain(events).Unapplied {
		want[Edge{From: u.From, To: u.To}] = u.Count
	}
	if fmt.Sprint(want) != fmt.Sprint(map[Edge]int{{0, 2}: 1, {1, 3}: 1, {3, 1}: 1, {3, 2}: 1}) {
		t.Fatalf("Explain's unapplied rows = %v", want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		f := NewInflight()
		for _, ev := range events {
			f.Observe(ev, time.Unix(0, 0))
		}
		got := make(map[Edge]int)
		for e, p := range f.Edges() {
			if p.N > 0 {
				got[e] = p.N
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shuffle %d: Inflight edges %v, Explain %v", i, got, want)
		}
	}
}
