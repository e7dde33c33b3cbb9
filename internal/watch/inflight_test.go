package watch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// inflight is what a tick reports of the open-forward fold: per site, its
// open forwards (repl_watch_version_lag) and the stale alert naming the
// oldest of them; per edge, its open forwards (repl_watch_edge_inflight).
type inflight struct {
	reg *obs.Registry
	w   *Watchdog
}

// newInflight returns a watchdog whose probe reports sites 0–3, so every
// hop between them is folded, with deadlines tests cross by sleeping.
func newInflight() inflight {
	w := New(testOptions())
	reg := obs.NewRegistry()
	w.SetObs(reg)
	w.SetProbe(func() []Status { return []Status{{Site: 0}, {Site: 1}, {Site: 2}, {Site: 3}} })
	return inflight{reg: reg, w: w}
}

// site returns the open forwards into site and, when there are any, the
// oldest one's transaction and sender as its stale alert names them.
func (f inflight) site(site model.SiteID) (n int64, tid model.TxnID, from model.SiteID) {
	n = f.reg.Snapshot()[fmt.Sprintf(`repl_watch_version_lag{site="%d"}`, site)]
	from = model.NoSite
	for _, a := range f.w.Active() {
		if a.Kind == StaleReplica && a.Site == site {
			tid, from = a.TID, a.Peer
		}
	}
	return n, tid, from
}

// edges returns the open forwards per edge "from->to", omitting drained
// edges.
func (f inflight) edges() map[string]int64 {
	got := make(map[string]int64)
	for series, v := range f.reg.Snapshot() {
		var from, to int
		if _, err := fmt.Sscanf(series, `repl_watch_edge_inflight{from="%d",to="%d"}`, &from, &to); err == nil && v > 0 {
			got[fmt.Sprintf("%d->%d", from, to)] = v
		}
	}
	return got
}

// TestInflightReordering checks the watchdog's open-forward view against
// the orders in which a recorder's sink can observe one subtransaction's
// events (a receiver may record its consumption before the sender records
// the forward). "Apply" in a case name is the receiver consuming the
// receipt, the one event that settles a forward; an abort settles
// nothing. A replica fed by two edges reports the oldest open forward
// across both.
func TestInflightReordering(t *testing.T) {
	tid := func(seq uint64) model.TxnID { return model.TxnID{Site: 0, Seq: seq} }
	fwd := func(from, to model.SiteID, seq uint64) trace.Event {
		return trace.Event{Kind: trace.SecondaryForwarded, Site: from, Peer: to, TID: tid(seq)}
	}
	app := func(at, from model.SiteID, seq uint64) trace.Event {
		return trace.Event{Kind: trace.SecondaryConsumed, Site: at, Peer: from, TID: tid(seq)}
	}
	abort := func(seq uint64) trace.Event {
		return trace.Event{Kind: trace.TxnAbort, Site: 0, Peer: model.NoSite, TID: tid(seq)}
	}

	cases := []struct {
		name   string
		events []trace.Event
		site   model.SiteID
		n      int64        // open forwards into site, and on all edges
		oldest model.TxnID  // the oldest of them, zero when none
		from   model.SiteID // its sender
	}{
		{name: "forward only", events: []trace.Event{fwd(0, 1, 1)}, site: 1,
			n: 1, oldest: tid(1), from: 0},
		{name: "in order", events: []trace.Event{fwd(0, 1, 1), app(1, 0, 1)}, site: 1},
		{name: "apply before forward", events: []trace.Event{app(1, 0, 1), fwd(0, 1, 1)}, site: 1},
		{name: "abort after forward", events: []trace.Event{fwd(0, 1, 1), abort(1), app(1, 0, 1)}, site: 1},
		{name: "abort before forward", events: []trace.Event{abort(1), fwd(0, 1, 1)}, site: 1,
			n: 1, oldest: tid(1), from: 0},
		{name: "apply elsewhere leaves the edge in flight",
			events: []trace.Event{fwd(0, 1, 1), app(2, 0, 1)}, site: 1,
			n: 1, oldest: tid(1), from: 0},
		{name: "two edges into one site: per-site oldest",
			events: []trace.Event{fwd(0, 2, 1), fwd(1, 2, 2), fwd(1, 2, 3)}, site: 2,
			n: 3, oldest: tid(1), from: 0},
		{name: "two edges into one site: oldest drains",
			events: []trace.Event{fwd(0, 2, 1), fwd(1, 2, 2), app(2, 0, 1)}, site: 2,
			n: 1, oldest: tid(2), from: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newInflight()
			for _, ev := range c.events {
				f.w.Ingest(ev)
				time.Sleep(time.Millisecond) // order the forwards' stamps
			}
			time.Sleep(10 * time.Millisecond)
			f.w.tick()
			if c.n == 0 {
				c.from = model.NoSite
			}
			n, oldest, from := f.site(c.site)
			if n != c.n || oldest != c.oldest || from != c.from {
				t.Fatalf("site %d: %d open, oldest %v from %d; want %d, %v from %d",
					c.site, n, oldest, from, c.n, c.oldest, c.from)
			}
			var total int64
			for _, v := range f.edges() {
				total += v
			}
			if total != c.n {
				t.Fatalf("edges hold %d in flight, want %d (%v)", total, c.n, f.edges())
			}
		})
	}
}

// TestInflightAgreesWithExplain feeds one stream — lazy forwards and a
// relay, a BackEdge eager subtransaction committed by its 2PC decision,
// an aborted one, and forwards that never arrive — to the watchdog's sink
// in shuffled orders and to trace.Explain: the watchdog's per-edge
// in-flight gauges must match Explain's unapplied rows.
func TestInflightAgreesWithExplain(t *testing.T) {
	const proto = 4
	ev := func(k trace.Kind, site, peer model.SiteID, origin model.SiteID, seq uint64) trace.Event {
		return trace.Event{Kind: k, Site: site, Peer: peer, TID: model.TxnID{Site: origin, Seq: seq}, Proto: proto}
	}
	fwd := func(from, to, origin model.SiteID, seq uint64) trace.Event {
		return ev(trace.SecondaryForwarded, from, to, origin, seq)
	}
	consume := func(at, from, origin model.SiteID, seq uint64) trace.Event {
		return ev(trace.SecondaryConsumed, at, from, origin, seq)
	}
	at := func(k trace.Kind, site, origin model.SiteID, seq uint64) trace.Event {
		return ev(k, site, model.NoSite, origin, seq)
	}
	events := []trace.Event{
		// Lazy, relayed s0 -> s1 -> s2, all applied.
		at(trace.TxnCommit, 0, 0, 1), fwd(0, 1, 0, 1), at(trace.SecondaryApplied, 1, 0, 1), consume(1, 0, 0, 1),
		fwd(1, 2, 0, 1), at(trace.SecondaryApplied, 2, 0, 1), consume(2, 1, 0, 1),
		// Lazy, applied at s1, its relay to s3 lost.
		at(trace.TxnCommit, 0, 0, 2), fwd(0, 1, 0, 2), at(trace.SecondaryApplied, 1, 0, 2), consume(1, 0, 0, 2),
		fwd(1, 3, 0, 2),
		// BackEdge eager s1 -> s0, consumed at execution, committed by the
		// decision at both ends.
		fwd(1, 0, 1, 1), consume(0, 1, 1, 1), at(trace.BackedgePrepare, 0, 1, 1),
		at(trace.BackedgeCommit, 0, 1, 1), at(trace.BackedgeCommit, 1, 1, 1), at(trace.TxnCommit, 1, 1, 1),
		// BackEdge eager from s2, aborted after both receipts were consumed.
		fwd(2, 0, 2, 1), fwd(2, 1, 2, 1), consume(0, 2, 2, 1), consume(1, 2, 2, 1),
		at(trace.BackedgePrepare, 0, 2, 1), at(trace.TxnAbort, 2, 2, 1),
		// Lazy, one of two forwards lost.
		at(trace.TxnCommit, 0, 0, 3), fwd(0, 2, 0, 3), fwd(0, 1, 0, 3), at(trace.SecondaryApplied, 1, 0, 3),
		consume(1, 0, 0, 3),
		// Lazy from s3, consumed only somewhere it was not sent.
		at(trace.TxnCommit, 3, 3, 1), fwd(3, 1, 3, 1), fwd(3, 2, 3, 1), at(trace.SecondaryApplied, 0, 3, 1),
		consume(0, 3, 3, 1),
		{Kind: trace.DummySent, Site: 0, Peer: 1, Proto: proto},
	}

	want := make(map[string]int64)
	for _, u := range trace.Explain(events).Unapplied {
		want[fmt.Sprintf("%d->%d", u.From, u.To)] = int64(u.Count)
	}
	if fmt.Sprint(want) != fmt.Sprint(map[string]int64{"0->2": 1, "1->3": 1, "3->1": 1, "3->2": 1}) {
		t.Fatalf("Explain's unapplied rows = %v", want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		f := newInflight()
		for _, ev := range events {
			f.w.Ingest(ev)
		}
		f.w.tick()
		if got := f.edges(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shuffle %d: watchdog edges %v, Explain %v", i, got, want)
		}
	}
}
