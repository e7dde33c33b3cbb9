package trace

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

const us = int64(time.Microsecond)

// committedTxn returns one committed transaction's events: begin at t0 and
// commit at t0+e2e at the origin, with the given samples in between.
func committedTxn(tid model.TxnID, proto uint8, t0, e2e int64, samples ...Event) []Event {
	evs := []Event{{T: t0, Kind: TxnBegin, Site: tid.Site, Peer: model.NoSite, TID: tid, Proto: proto}}
	evs = append(evs, samples...)
	return append(evs, Event{T: t0 + e2e, Kind: TxnCommit, Site: tid.Site, Peer: model.NoSite, TID: tid, Proto: proto})
}

func phaseEv(tid model.TxnID, proto uint8, at int64, phase string, site model.SiteID, dur int64) Event {
	return Event{T: at, Kind: PhaseLatency, Site: site, Peer: model.NoSite, TID: tid, Proto: proto, Phase: phase, Dur: dur}
}

// relayedTxn is one committed transaction of proto propagated s0 -> s1
// -> s2, with a forward s2 -> s3 that never arrived. Times are in µs:
// commit at 0, forward at 100, receipt at s1 at 150 with qw/30/10 µs of
// queue_wait/lock_wait/apply there, relay forward at 400, receipt at s2
// at 500.
func relayedTxn(proto uint8, seq uint64, qw int64) []Event {
	id := model.TxnID{Site: 0, Seq: seq}
	ev := func(t int64, k Kind, site, peer model.SiteID) Event {
		return Event{T: t * us, Kind: k, Site: site, Peer: peer, TID: id, Proto: proto}
	}
	return []Event{
		ev(0, TxnCommit, 0, model.NoSite),
		ev(100, SecondaryForwarded, 0, 1),
		ev(150, SecondaryEnqueued, 1, 0),
		phaseEv(id, proto, 0, "queue_wait", 1, qw*us),
		phaseEv(id, proto, 0, "lock_wait", 1, 20*us),
		phaseEv(id, proto, 0, "apply", 1, 10*us),
		ev(210, SecondaryApplied, 1, 0),
		ev(400, SecondaryForwarded, 1, 2),
		ev(500, SecondaryEnqueued, 2, 1),
		ev(520, SecondaryApplied, 2, 1),
		ev(600, SecondaryForwarded, 2, 3),
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func protoStats(x Explanation, proto uint8) *ProtoStats {
	for _, p := range x.Protocols {
		if p.Proto == proto {
			return p
		}
	}
	return nil
}

func waterfall(x Explanation, proto uint8, from, to model.SiteID) *Waterfall {
	for _, w := range x.Waterfalls {
		if w.Proto == proto && w.From == from && w.To == to {
			return w
		}
	}
	return nil
}

func TestExplain(t *testing.T) {
	a, b := model.TxnID{Site: 0, Seq: 1}, model.TxnID{Site: 0, Seq: 2}
	var attribution []Event
	// Txn a: 100ns window, 40ns lock_wait at the origin, 60ns residual.
	attribution = append(attribution, committedTxn(a, 1, 0, 100, phaseEv(a, 1, 50, "lock_wait", 0, 40))...)
	// Txn b: 100ns window, two phases claiming 130ns — 30ns overlap.
	attribution = append(attribution, committedTxn(b, 1, 1000, 100,
		phaseEv(b, 1, 1050, "lock_wait", 0, 80),
		phaseEv(b, 1, 1090, "2pc_vote", 1, 50))...)
	// An aborted txn and an out-of-window phase sample: both ignored.
	aborted := model.TxnID{Site: 0, Seq: 3}
	attribution = append(attribution,
		Event{T: 2000, Kind: TxnBegin, Site: 0, TID: aborted, Proto: 1},
		Event{T: 2010, Kind: TxnAbort, Site: 0, TID: aborted, Proto: 1, Phase: "lock_timeout"},
		phaseEv(a, 1, 5000, "apply", 2, 999))

	// Two protocols, delays, phases, certificates, a relay and an abort.
	var multi []Event
	multi = append(multi, attribution...)
	multi = append(multi, relayedTxn(2, 7, 30)...)
	multi = append(multi, committedTxn(model.TxnID{Site: 1, Seq: 1}, 3, 50, 200,
		phaseEv(model.TxnID{Site: 1, Seq: 1}, 3, 80, "transport", 2, 90))...)
	multi = append(multi,
		Event{T: 60, Kind: ReadCertificate, Site: 1, Proto: 2, Phase: "fresh"},
		Event{T: 70, Kind: ReadCertificate, Site: 2, Proto: 2, Phase: "stale", Dur: 40},
		Event{T: 75, Kind: DummySent, Site: 0, Peer: 1, Proto: 2},
		Event{T: 80, Kind: TxnAbort, Site: 1, TID: model.TxnID{Site: 1, Seq: 9}, Proto: 3})

	// Unapplied: each relayed transaction's s2 -> s3 forward never
	// arrived; decided arrived by 2PC decision, rolledBack aborted, and
	// stray was forwarded twice and applied only at a site it was not
	// forwarded to.
	decided, rolledBack, stray := model.TxnID{Site: 1, Seq: 5}, model.TxnID{Site: 1, Seq: 6}, model.TxnID{Site: 1, Seq: 7}
	unapplied := append(relayedTxn(1, 1, 5), relayedTxn(2, 1, 5)...)
	unapplied = append(unapplied,
		Event{Kind: SecondaryForwarded, Site: 1, Peer: 0, TID: decided, Proto: 1},
		Event{Kind: BackedgeCommit, Site: 0, Peer: model.NoSite, TID: decided, Proto: 1},
		Event{Kind: SecondaryForwarded, Site: 1, Peer: 2, TID: rolledBack, Proto: 1},
		Event{Kind: TxnAbort, Site: 1, Peer: model.NoSite, TID: rolledBack, Proto: 1},
		Event{Kind: SecondaryForwarded, Site: 1, Peer: 2, TID: stray, Proto: 1},
		Event{Kind: SecondaryForwarded, Site: 1, Peer: 2, TID: stray, Proto: 1},
		Event{Kind: SecondaryApplied, Site: 3, Peer: 2, TID: stray, Proto: 1})

	cases := []struct {
		name   string
		events []Event
		check  func(t *testing.T, x Explanation, events []Event)
	}{
		{"CriticalPathAttribution", attribution, func(t *testing.T, x Explanation, _ []Event) {
			if len(x.Paths) != 1 {
				t.Fatalf("got %d profiles, want 1", len(x.Paths))
			}
			p := x.Paths[0]
			if p.Proto != 1 || p.Committed != 2 {
				t.Fatalf("profile header wrong: %+v", p)
			}
			if p.EndToEndNS != 200 || p.AttributedNS != 200 || p.OverlapNS != 30 {
				t.Errorf("e2e=%d attributed=%d overlap=%d, want 200/200/30", p.EndToEndNS, p.AttributedNS, p.OverlapNS)
			}
			want := []Segment{
				{Phase: PhaseExecute, Site: 0, Count: 1, TotalNS: 60},
				{Phase: "lock_wait", Site: 0, Count: 2, TotalNS: 120},
				{Phase: "2pc_vote", Site: 1, Count: 1, TotalNS: 50},
			}
			if !reflect.DeepEqual(p.Segments, want) {
				t.Errorf("segments:\ngot  %+v\nwant %+v", p.Segments, want)
			}
		}},
		{"AbortBreakdown", []Event{
			{Kind: TxnAbort, Site: 0, TID: a, Phase: "lock_timeout"},
			{Kind: TxnAbort, Site: 0, TID: a, Phase: "lock_timeout"},
			{Kind: TxnAbort, Site: 1, TID: a, Phase: "wound"},
			{Kind: TxnAbort, Site: 1, TID: a}, // no tag
			{Kind: TxnCommit, Site: 0, TID: a},
		}, func(t *testing.T, x Explanation, _ []Event) {
			want := map[string]uint64{"lock_timeout": 2, "wound": 1, "unknown": 1}
			if !reflect.DeepEqual(x.Aborts, want) {
				t.Errorf("aborts = %v, want %v", x.Aborts, want)
			}
		}},
		{"WaterfallJoinsSegments", relayedTxn(1, 1, 30), func(t *testing.T, x Explanation, _ []Event) {
			if len(x.Waterfalls) != 2 {
				t.Fatalf("%d waterfalls, want 2 (unreceived forward dropped): %+v", len(x.Waterfalls), x.Waterfalls)
			}
			first, relay := x.Waterfalls[0], x.Waterfalls[1]
			if first.From != 0 || first.To != 1 || first.Count != 1 || relay.From != 1 || relay.To != 2 {
				t.Fatalf("edges = s%d->s%d x%d, s%d->s%d; want s0->s1 x1, s1->s2",
					first.From, first.To, first.Count, relay.From, relay.To)
			}
			for w, want := range map[*Waterfall][5]int64{
				first: {100, 50, 30, 20, 10},
				relay: {250, 100, 0, 0, 0}, // relay enqueue: receipt → forward
			} {
				for i, seg := range w.Segments {
					if seg.Name != SegmentNames[i] || seg.Max != time.Duration(want[i]*us) {
						t.Errorf("s%d->s%d %s = %v, want %dµs", w.From, w.To, seg.Name, seg.Max, want[i])
					}
				}
			}
		}},
		{"PropDelays", []Event{
			{T: 100, Kind: TxnCommit, Site: 0, TID: a, Proto: 1},
			{T: 300, Kind: SecondaryApplied, Site: 2, TID: a, Proto: 1},
			{T: 700, Kind: SecondaryApplied, Site: 3, TID: a, Proto: 1},
			{T: 50, Kind: TxnCommit, Site: 1, TID: model.TxnID{Site: 1, Seq: 1}, Proto: 2},
			{T: 150, Kind: SecondaryApplied, Site: 0, TID: model.TxnID{Site: 1, Seq: 1}, Proto: 2},
			// Same TID under a different protocol must not match proto 1's commit.
			{T: 500, Kind: SecondaryApplied, Site: 4, TID: a, Proto: 9},
		}, func(t *testing.T, x Explanation, _ []Event) {
			if d := protoStats(x, 1).PropDelay; d.Count != 2 || d.P50 != 200 || d.Max != 600 || d.Mean != 400 {
				t.Errorf("proto 1 delays = %+v, want 2 samples 200/600", d)
			}
			if d := protoStats(x, 2).PropDelay; d.Count != 1 || d.Max != 100 {
				t.Errorf("proto 2 delays = %+v, want one 100ns sample", d)
			}
			if p := protoStats(x, 9); p != nil {
				t.Errorf("cross-protocol contamination: %+v", p)
			}
		}},
		{"PhasesAndCertificates", multi, func(t *testing.T, x Explanation, _ []Event) {
			p := protoStats(x, 1)
			if lw := p.Phases["lock_wait"]; lw.Count != 2 || lw.Total != 120 || lw.P50 != 40 || lw.P95 != 80 {
				t.Errorf("proto 1 lock_wait = %+v, want 2 samples 40/80", lw)
			}
			if _, ok := p.Phases["transport"]; ok {
				t.Error("proto 3's transport phase counted under proto 1")
			}
			c := protoStats(x, 2)
			if c.ReadsFresh != 1 || c.ReadsStale != 1 || c.StaleBehind.Max != 40 {
				t.Errorf("proto 2 certificates = %d fresh / %d stale, behind %+v", c.ReadsFresh, c.ReadsStale, c.StaleBehind)
			}
			if x.Aborts["unknown"] != 1 || x.Aborts["lock_timeout"] != 1 {
				t.Errorf("aborts = %v", x.Aborts)
			}
		}},
		{"UnappliedSetDifference", unapplied, func(t *testing.T, x Explanation, _ []Event) {
			x.Name(func(p uint8) string { return string('a' + p) })
			want := []*UnappliedEdge{
				{Proto: 1, Protocol: "b", From: 1, To: 2, Count: 1},
				{Proto: 1, Protocol: "b", From: 2, To: 3, Count: 1},
				{Proto: 2, Protocol: "c", From: 2, To: 3, Count: 1},
			}
			if got := mustJSON(t, x.Unapplied); got != mustJSON(t, want) {
				t.Errorf("unapplied = %s, want %s", got, mustJSON(t, want))
			}
			if x := Explain(relayedTxn(1, 1, 5)[:10]); len(x.Unapplied) != 0 {
				t.Errorf("every forward arrived, yet unapplied = %s", mustJSON(t, x.Unapplied))
			}
		}},
		// Order independence: the fold is a function of the event multiset,
		// so shuffled and reversed interleavings give byte-identical JSON.
		{"ShuffledMultiProtocol", multi, func(t *testing.T, x Explanation, events []Event) {
			want := mustJSON(t, x)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20; i++ {
				shuffled := append([]Event(nil), events...)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				if i == 0 {
					for l, r := 0, len(shuffled)-1; l < r; l, r = l+1, r-1 {
						shuffled[l], shuffled[r] = shuffled[r], shuffled[l]
					}
				}
				if got := mustJSON(t, Explain(shuffled)); got != want {
					t.Fatalf("shuffle %d changed the explanation:\n%s\n---\n%s", i, got, want)
				}
			}
		}},
		// Two protocols' traces sharing TIDs, concatenated: each protocol's
		// views equal its standalone ones (joins key by protocol and TID).
		{"ConcatenatedProtocols", append(relayedTxn(1, 1, 5), relayedTxn(2, 1, 5)...), func(t *testing.T, x Explanation, _ []Event) {
			for _, proto := range []uint8{1, 2} {
				alone := Explain(relayedTxn(proto, 1, 5))
				for _, e := range [][2]model.SiteID{{0, 1}, {1, 2}} {
					got, want := waterfall(x, proto, e[0], e[1]), waterfall(alone, proto, e[0], e[1])
					if mustJSON(t, got) != mustJSON(t, want) {
						t.Errorf("proto %d s%d->s%d waterfall:\nconcatenated %s\nstandalone   %s",
							proto, e[0], e[1], mustJSON(t, got), mustJSON(t, want))
					}
				}
				if got, want := protoStats(x, proto), protoStats(alone, proto); mustJSON(t, got) != mustJSON(t, want) {
					t.Errorf("proto %d stats:\nconcatenated %s\nstandalone   %s", proto, mustJSON(t, got), mustJSON(t, want))
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.check(t, Explain(c.events), c.events) })
	}
}
