package wal

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/ts"
)

// FuzzWALDecode holds ReadRecords to its contract on arbitrary bytes: it
// never panics; every record it returns came from one checksum-valid
// frame and survives a re-encode/decode round trip unchanged; it returns
// an error only when it stopped at a checksum-valid frame whose body does
// not decode; and truncating a log yields a prefix of the original record
// sequence, never garbage records.
func FuzzWALDecode(f *testing.F) {
	// Seed with a realistic log so mutations explore framed space, not
	// just noise.
	var valid []byte
	recs := []Record{
		{Kind: KindBoot, Incarnation: 3},
		{Kind: KindReceipt, TID: model.TxnID{Site: 1, Seq: 9}, From: 2, MsgKind: 1,
			Writes: []model.WriteOp{{Item: 4, Value: -7}}, TS: ts.New(1)},
		{Kind: KindApply, TID: model.TxnID{Site: 1, Seq: 9}, Role: RoleSecondary,
			Consumes: true, Forwards: true,
			Writes: []model.WriteOp{{Item: 4, Value: -7}, {Item: 5, Value: 12}}},
		{Kind: KindDecision, TID: model.TxnID{Site: 0, Seq: 2}, Commit: true},
		{Kind: KindForwarded, TID: model.TxnID{Site: 2, Seq: 1}},
		{Kind: KindPrepared, TID: model.TxnID{Site: 3, Seq: 300}, Origin: model.NoSite,
			Span: model.SpanContext{TID: model.TxnID{Site: 3, Seq: 300}, Parent: 1 << 50, Hop: 2},
			TS:   ts.Timestamp{Epoch: 5, Tuples: []ts.Tuple{{Site: 0, LTS: 4}, {Site: 3, LTS: 1 << 20}}}},
		{Kind: KindEagerStart, TID: model.TxnID{Site: 4, Seq: 17}, Origin: 4,
			Writes: []model.WriteOp{{Item: 9, Value: 1 << 40}, {Item: 4, Value: -1}}},
		{Kind: KindEpoch, TS: ts.Timestamp{Epoch: 6}, LTSI: 70},
	}
	for i := range recs {
		valid = encodeFrame(valid, &recs[i])
	}
	f.Add(valid)
	for cut := 1; cut < len(valid); cut++ {
		f.Add(valid[:cut]) // torn tails at every offset
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // implausible length
	// A checksum-valid frame after the valid prefix that is not a record.
	f.Add(appendRawFrame(append([]byte(nil), valid...), []byte{0xff}))

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := ReadRecords(data) // must not panic
		off := 0
		for i := range out {
			body, ok := takeRawFrame(data[off:])
			if !ok {
				t.Fatalf("record %d has no checksum-valid frame at byte %d", i, off)
			}
			off += frameHeader + len(body)
			again, aerr := ReadRecords(encodeFrame(nil, &out[i]))
			if aerr != nil || len(again) != 1 || !reflect.DeepEqual(again[0], out[i]) {
				t.Fatalf("record %d does not round-trip: %+v -> %+v (%v)", i, out[i], again, aerr)
			}
		}
		// Decoding stopped at byte off: on an error there must be a
		// checksum-valid frame there that does not decode; otherwise the
		// frame there is torn, corrupt or absent.
		body, framed := takeRawFrame(data[off:])
		if err != nil {
			var rec Record
			if !framed || decodeRecord(body, &rec) == nil {
				t.Fatalf("error %q at byte %d, where no checksum-valid undecodable frame is", err, off)
			}
		} else if framed {
			t.Fatalf("stopped silently at byte %d before a checksum-valid frame", off)
		}
		// Truncation yields a prefix: parsing a shortened input can never
		// produce more records than the full input did.
		if len(data) > 0 {
			shorter, _ := ReadRecords(data[:len(data)-1])
			if len(shorter) > len(out) {
				t.Fatalf("truncated input decoded %d records, full input %d", len(shorter), len(out))
			}
		}
		// Folding whatever decoded must not panic either: recovery runs
		// this exact loop on real crash artifacts.
		st := newState([]model.ItemID{4})
		for i := range out {
			st.apply(&out[i])
		}
	})
}
