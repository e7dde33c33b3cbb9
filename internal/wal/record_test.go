package wal

import (
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/ts"
)

// populated sets every Record field, at the edges the varint rules must
// survive: negative sites and values, MaxUint64 counters, a multi-tuple
// timestamp with a nonzero epoch, every flag.
func populated(k Kind) Record {
	return Record{
		Kind: k, TID: model.TxnID{Site: 3, Seq: math.MaxUint64},
		From: model.NoSite, MsgKind: 2, Origin: -5,
		Writes: []model.WriteOp{
			{Item: 0, Value: math.MinInt64}, {Item: 7, Value: math.MaxInt64}, {Item: -1, Value: -3},
		},
		Span: model.SpanContext{TID: model.TxnID{Site: 3, Seq: 1}, Parent: math.MaxUint64, Hop: 255},
		TS:   ts.Timestamp{Epoch: 4, Tuples: []ts.Tuple{{Site: 0, LTS: 9}, {Site: 2, LTS: 1 << 40}}},
		LTSI: 12, Role: RoleResolve, Consumes: true, Forwards: true, Commit: true,
		Item: 42, Incarnation: math.MaxUint64,
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	var in []Record
	for k := KindBoot; k <= KindEpoch; k++ {
		in = append(in, populated(k))
	}
	if len(in) != len(kindNames) {
		t.Fatalf("round trip covers %d kinds, kindNames has %d", len(in), len(kindNames))
	}
	nilWrites, emptyWrites := populated(KindApply), populated(KindApply)
	nilWrites.Writes, emptyWrites.Writes = nil, []model.WriteOp{}
	in = append(in, nilWrites, emptyWrites, Record{Kind: KindBoot})

	var log []byte
	for i := range in {
		log = encodeFrame(log, &in[i])
	}
	out, err := ReadRecords(log)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	emptyWrites.Writes = nil // an empty slice decodes as nil, as gob did
	in[len(in)-2] = emptyWrites
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

// TestRecordDecodeRejects pins what decodeRecord refuses; each body is
// the zero apply record's body with one defect.
func TestRecordDecodeRejects(t *testing.T) {
	good := []byte{byte(KindApply),
		0, 0, 0, 0, 0, // TID.Site TID.Seq From MsgKind Origin
		0,          // len(Writes)
		0, 0, 0, 0, // Span.TID.Site Span.TID.Seq Span.Parent Span.Hop
		0, 0, // TS.Epoch len(TS.Tuples)
		0, 0, 0, // LTSI Role flags
		0, 0, // Item Incarnation
	}
	const writesAt, flagsAt = 6, 15
	if got := appendRecord(nil, &Record{Kind: KindApply}); !reflect.DeepEqual(got, good) {
		t.Fatalf("zero apply body = %x, want %x", got, good)
	}
	with := func(at int, b ...byte) []byte {
		return append(append(append([]byte(nil), good[:at]...), b...), good[at+1:]...)
	}
	for name, body := range map[string][]byte{
		"empty":         {},
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"zero kind":     with(0, 0),
		"unknown kind":  with(0, byte(KindEpoch+1)),
		"flag bits":     with(flagsAt, 0x08),
		"slice count":   with(writesAt, 12), // 12 writes, 11 bytes left
		"varint":        with(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		var got Record
		if err := decodeRecord(body, &got); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, got)
		}
	}
	var got Record
	if err := decodeRecord(good, &got); err != nil || !reflect.DeepEqual(got, Record{Kind: KindApply}) {
		t.Fatalf("undamaged body: %+v, %v", got, err)
	}
}

// TestApplyFrameGolden pins the exact frame of the benchmark's 3-write
// origin apply record (benchmark/probes.go walRecord(1)), so any change
// to the body layout shows up as a reviewed diff of testdata/apply3.hex.
func TestApplyFrameGolden(t *testing.T) {
	rec := Record{
		Kind: KindApply, TID: model.TxnID{Site: 0, Seq: 1}, Role: RoleOrigin,
		Writes: []model.WriteOp{{Item: 1, Value: 1}, {Item: 2, Value: 1}, {Item: 3, Value: 1}},
	}
	want, err := os.ReadFile("testdata/apply3.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(encodeFrame(nil, &rec)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("apply frame changed:\n got %s\nwant %s", got, strings.TrimSpace(string(want)))
	}
}
