package wal

import (
	"math/bits"

	"repro/internal/model"
)

// TxnSet is an exact set of transaction identifiers stored as one 64-bit
// word per (origin site, Seq/64). A site mints its identifiers from a
// counter, so the ones another site applies are dense runs of Seq, and a
// word holds up to 64 of them: the set costs a few bytes per member where
// a map[model.TxnID]bool costs about 70.
type TxnSet map[TxnBlock]uint64

// TxnBlock names one word of a TxnSet: the identifiers of Site whose Seq
// divided by 64 is Block.
type TxnBlock struct {
	Site  model.SiteID
	Block uint64
}

// Add puts tid in the set.
func (s TxnSet) Add(tid model.TxnID) {
	s[TxnBlock{Site: tid.Site, Block: tid.Seq >> 6}] |= 1 << (tid.Seq & 63)
}

// Has reports whether tid is in the set.
func (s TxnSet) Has(tid model.TxnID) bool {
	return s[TxnBlock{Site: tid.Site, Block: tid.Seq >> 6}]&(1<<(tid.Seq&63)) != 0
}

// Map returns the members as a map, the form Recovered().Applied keeps.
func (s TxnSet) Map() map[model.TxnID]bool {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	out := make(map[model.TxnID]bool, n)
	for b, w := range s {
		for ; w != 0; w &= w - 1 {
			out[model.TxnID{Site: b.Site, Seq: b.Block<<6 | uint64(bits.TrailingZeros64(w))}] = true
		}
	}
	return out
}
