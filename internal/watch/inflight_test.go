package watch

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// TestInflightReordering checks the in-flight fold against the orders
// in which a cross-process aggregator can observe one subtransaction's
// events: every interleaving of forward, apply and abort must leave
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
