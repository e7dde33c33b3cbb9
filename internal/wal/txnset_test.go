package wal

import (
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestDedupSetMatchesMap: the compact dedup set answers exactly as the
// map it replaced, on dense runs, on identifiers past an incarnation
// offset (Seq >= 1<<48), and on sparse Seqs up to the top of uint64.
func TestDedupSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(300)) // a dense run
		case 1:
			return 3<<48 + uint64(rng.Intn(300)) // a later incarnation
		case 2:
			return rng.Uint64() // sparse and huge
		default:
			return ^uint64(0) - uint64(rng.Intn(130)) // the top words
		}
	}
	set, want := make(TxnSet), make(map[model.TxnID]bool)
	for i := 0; i < 20000; i++ {
		tid := model.TxnID{Site: model.SiteID(rng.Intn(5)), Seq: seq()}
		if i%2 == 0 {
			set.Add(tid)
			want[tid] = true
		}
		if got := set.Has(tid); got != want[tid] {
			t.Fatalf("Has(%v) = %v, the map says %v", tid, got, want[tid])
		}
	}
	for tid := range want {
		if !set.Has(tid) {
			t.Fatalf("member %v lost", tid)
		}
	}
	if got := set.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Map has %d members, want %d", len(got), len(want))
	}
}

// TestDedupSurvivesSnapshot: the dedup set round-trips through a
// snapshot file and the log replayed after it, and the recovered image
// still materialises Applied.
func TestDedupSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	items := []model.ItemID{1}
	in := []model.TxnID{{Site: 0, Seq: 1}, {Site: 0, Seq: 64}, {Site: 2, Seq: 1<<48 + 3}}
	late := model.TxnID{Site: 1, Seq: 9}
	l := openT(t, dir, Options{Items: items, SnapshotBytes: -1})
	for _, tid := range in {
		appendSync(t, l, Record{Kind: KindApply, TID: tid, Role: RoleSecondary, Writes: []model.WriteOp{{Item: 1, Value: 1}}})
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, Record{Kind: KindApply, TID: late, Role: RoleSecondary})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{Items: items})
	defer l2.Close()
	want := map[model.TxnID]bool{late: true}
	for _, tid := range in {
		want[tid] = true
	}
	for tid := range want {
		if !l2.WasApplied(tid) {
			t.Errorf("WasApplied(%v) = false after reopen", tid)
		}
	}
	if l2.WasApplied(model.TxnID{Site: 0, Seq: 2}) {
		t.Error("WasApplied of a TID never applied")
	}
	if got := l2.Recovered().Applied; !reflect.DeepEqual(got, want) {
		t.Errorf("Recovered().Applied = %v, want %v", got, want)
	}
}

// TestDedupLegacySnapshot: testdata/legacy_applied_snap.hex is a snapshot
// written when the dedup set was a map[TxnID]bool (applies of s0:1, s0:2,
// s2:70 and s3:2^48+5 to item 1). It must still decode, deduplicate, and
// be rewritten in the compact form by the next snapshot.
func TestDedupLegacySnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_applied_snap.hex")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	applied := []model.TxnID{{Site: 0, Seq: 1}, {Site: 0, Seq: 2}, {Site: 2, Seq: 70}, {Site: 3, Seq: 1<<48 + 5}}
	check := func(l *SiteLog) {
		t.Helper()
		for _, tid := range applied {
			if !l.WasApplied(tid) {
				t.Errorf("WasApplied(%v) = false", tid)
			}
		}
		for _, tid := range []model.TxnID{{Site: 0, Seq: 3}, {Site: 3, Seq: 5}, {Site: 2, Seq: 6}} {
			if l.WasApplied(tid) {
				t.Errorf("WasApplied(%v) = true", tid)
			}
		}
		if got := l.Recovered().Items[1]; got.Num != 4 {
			t.Errorf("item 1 = %+v, want version 4", got)
		}
	}
	l := openT(t, dir, Options{Items: []model.ItemID{1}})
	check(l)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openT(t, dir, Options{Items: []model.ItemID{1}})
	defer l.Close()
	check(l)
}
