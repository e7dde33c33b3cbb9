package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// TestOpenForwards is the one table for the open-forward rule: each case
// is the event stream one propagation pattern leaves, fed in shuffled
// orders through the live path (a recorder's sink folding into an Open,
// as the watchdog does) and through Explain. Both must report exactly the
// case's open hops, and the live fold must hold no state beyond them.
func TestOpenForwards(t *testing.T) {
	const proto = 4
	tid := model.TxnID{Site: 0, Seq: 1}
	ev := func(k Kind, site, peer model.SiteID) Event {
		return Event{Kind: k, Site: site, Peer: peer, TID: tid, Proto: proto}
	}
	fwd := func(from, to model.SiteID) Event { return ev(SecondaryForwarded, from, to) }
	recv := func(at, from model.SiteID) Event { return ev(SecondaryEnqueued, at, from) }
	consume := func(at, from model.SiteID) Event { return ev(SecondaryConsumed, at, from) }
	local := func(k Kind, at model.SiteID) Event { return ev(k, at, model.NoSite) }

	cases := []struct {
		name   string
		events []Event
		open   []string // "from->to" per open hop
	}{
		{name: "lazy relay chain", events: []Event{
			local(TxnCommit, 0), fwd(0, 1),
			recv(1, 0), local(SecondaryApplied, 1), consume(1, 0), fwd(1, 2),
			recv(2, 1), local(SecondaryApplied, 2), consume(2, 1),
		}},
		{name: "BackEdge pure-relay hop", events: []Event{
			fwd(1, 2), recv(2, 1), fwd(2, 3), consume(2, 1),
			recv(3, 2), consume(3, 2),
		}},
		{name: "special's homecoming", events: []Event{
			fwd(1, 0), recv(0, 1), consume(0, 1),
			local(BackedgePrepare, 0), local(BackedgeCommit, 0), local(TxnCommit, 0),
		}},
		{name: "BackEdge participant", events: []Event{
			fwd(0, 1), local(BackedgePrepare, 1), fwd(1, 0), consume(1, 0),
			recv(0, 1), consume(0, 1),
			local(BackedgeCommit, 1), local(SecondaryApplied, 1), local(TxnCommit, 0),
		}},
		{name: "aborted eager transaction", events: []Event{
			fwd(0, 1), fwd(1, 0), consume(1, 0),
			recv(0, 1), consume(0, 1), local(TxnAbort, 0),
		}},
		{name: "deduplicated re-forward after a crash", events: []Event{
			local(TxnCommit, 0), fwd(0, 1), recv(1, 0), local(SecondaryApplied, 1), consume(1, 0),
			local(SiteCrash, 0), local(SiteRestart, 0), local(WALRecover, 0),
			fwd(0, 1), recv(1, 0), consume(1, 0),
		}},
		{name: "duplicated delivery", events: []Event{
			local(TxnCommit, 0), fwd(0, 1), ev(FaultDuplicate, 0, 1),
			recv(1, 0), local(SecondaryApplied, 1), consume(1, 0),
		}},
		{name: "lost forward", events: []Event{
			local(TxnCommit, 0), fwd(0, 1), ev(FaultDrop, 0, 1), fwd(0, 2),
			recv(2, 0), local(SecondaryApplied, 2), consume(2, 0),
		}, open: []string{"0->1"}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := fmt.Sprint(c.open)
			events := slices.Clone(c.events)
			for i := 0; i < 20; i++ {
				rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
				live, rec := NewOpen(), NewRecorder()
				rec.AddSink(func(ev Event) { live.Observe(ev, ev.T) })
				for _, ev := range events {
					rec.Add(ev)
				}
				var got []string
				live.Each(func(h Hop, _ int64) { got = append(got, fmt.Sprintf("%d->%d", h.From, h.To)) })
				slices.Sort(got)
				if fmt.Sprint(got) != want || len(live.hops) != len(c.open) {
					t.Fatalf("order %d: live open %v (%d held), want %v", i, got, len(live.hops), want)
				}
				got = nil
				for _, u := range Explain(events).Unapplied {
					for range u.Count {
						got = append(got, fmt.Sprintf("%d->%d", u.From, u.To))
					}
				}
				if fmt.Sprint(got) != want {
					t.Fatalf("order %d: Explain unapplied %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestOpenSince checks an open hop reports its earliest forward's stamp,
// and that a hop reopened after balancing restarts from its new forward.
func TestOpenSince(t *testing.T) {
	tid := model.TxnID{Site: 0, Seq: 1}
	fwd := Event{Kind: SecondaryForwarded, Site: 0, Peer: 1, TID: tid}
	consume := Event{Kind: SecondaryConsumed, Site: 1, Peer: 0, TID: tid}
	o := NewOpen()
	since := func() (s []int64) {
		o.Each(func(_ Hop, t int64) { s = append(s, t) })
		return s
	}
	o.Observe(fwd, 20)
	o.Observe(fwd, 10)
	o.Observe(consume, 30)
	if got := since(); !slices.Equal(got, []int64{10}) {
		t.Fatalf("re-forwarded hop: since %v, want [10]", got)
	}
	o.Observe(consume, 40)
	o.Observe(fwd, 50)
	if got := since(); !slices.Equal(got, []int64{50}) {
		t.Fatalf("reopened hop: since %v, want [50]", got)
	}
}
