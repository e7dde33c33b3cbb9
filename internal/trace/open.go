package trace

import "repro/internal/model"

// Hop is one forward's identity: protocol Proto's transaction TID shipped
// along the edge From→To.
type Hop struct {
	Proto    uint8
	From, To model.SiteID
	TID      model.TxnID
}

// Open is the one rule for "forwarded, not yet consumed": per hop, +1 for
// each SecondaryForwarded and −1 for each SecondaryConsumed, which the
// receiver records exactly where it releases that receipt's pending
// obligation. A hop whose balance is positive is open. Relays, the
// BackEdge special's homecoming, deduplicated re-forwards and aborted
// eager transactions all settle under this rule, because each of them
// consumes its receipt. Balances add, so the fold does not depend on
// event order: trace.Explain folds a finished trace into one, and the
// watchdog folds its live stream into another.
//
// Not safe for concurrent use: the owner guards it with its own lock.
type Open struct {
	hops map[Hop]balance
}

// balance is one hop's forwards minus consumptions, and the earliest
// stamp among its forwards while it is open.
type balance struct {
	n     int
	since int64
}

// NewOpen returns an empty fold.
func NewOpen() *Open { return &Open{hops: make(map[Hop]balance)} }

// Observe folds one event stamped at t (any clock the owner reads ages
// against). Only forwards and consumptions of a transaction matter; a hop
// that balances to zero leaves no state.
func (o *Open) Observe(ev Event, t int64) {
	var h Hop
	var d int
	switch ev.Kind {
	case SecondaryForwarded:
		h, d = Hop{Proto: ev.Proto, From: ev.Site, To: ev.Peer, TID: ev.TID}, 1
	case SecondaryConsumed:
		h, d = Hop{Proto: ev.Proto, From: ev.Peer, To: ev.Site, TID: ev.TID}, -1
	default:
		return
	}
	if ev.TID.Zero() || ev.Peer == model.NoSite {
		return
	}
	b, ok := o.hops[h]
	if !ok || (d > 0 && t < b.since) {
		b.since = t
	}
	if b.n += d; b.n == 0 {
		delete(o.hops, h)
		return
	}
	o.hops[h] = b
}

// Each calls fn for every open hop with the stamp of its earliest
// forward.
func (o *Open) Each(fn func(h Hop, since int64)) {
	for h, b := range o.hops {
		if b.n > 0 {
			fn(h, b.since)
		}
	}
}
