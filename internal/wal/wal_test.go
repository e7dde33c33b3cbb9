package wal

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ts"
)

func openT(t *testing.T, dir string, opts Options) *SiteLog {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendSync(t *testing.T, l *SiteLog, rec Record) {
	t.Helper()
	if err := l.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	items := []model.ItemID{1, 2, 9}
	l := openT(t, dir, Options{Items: items})
	if got := l.Incarnation(); got != 1 {
		t.Fatalf("first incarnation = %d, want 1", got)
	}
	tid := model.TxnID{Site: 0, Seq: 7}
	appendSync(t, l, Record{Kind: KindReceipt, TID: tid, From: 2, MsgKind: 1,
		Writes: []model.WriteOp{{Item: 1, Value: 10}}, TS: ts.New(2)})
	appendSync(t, l, Record{
		Kind: KindApply, TID: tid, Role: RoleSecondary, Consumes: true, Forwards: true,
		Writes: []model.WriteOp{{Item: 1, Value: 10}, {Item: 5, Value: 3}}, // 5 not placed here
	})
	tid2 := model.TxnID{Site: 1, Seq: 1}
	appendSync(t, l, Record{Kind: KindReceipt, TID: tid2, From: 3, MsgKind: 1})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir, Options{Items: items})
	defer l2.Close()
	st := l2.Recovered()
	if l2.Incarnation() != 2 {
		t.Fatalf("second incarnation = %d, want 2", l2.Incarnation())
	}
	if got := st.Items[1]; got != (ItemState{Value: 10, Num: 1, Writer: tid}) {
		t.Fatalf("item 1 state = %+v", got)
	}
	if _, ok := st.Items[5]; ok {
		t.Fatalf("item 5 leaked into a site that does not place it")
	}
	if !st.Applied[tid] {
		t.Fatalf("tid not in applied set")
	}
	// The apply consumed the first receipt; the second is still pending.
	if len(st.Receipts) != 1 || st.Receipts[0].TID != tid2 {
		t.Fatalf("receipts = %+v, want only %v", st.Receipts, tid2)
	}
	if len(st.Forwards) != 1 || st.Forwards[0].TID != tid {
		t.Fatalf("forwards = %+v", st.Forwards)
	}
	if !l2.WasApplied(tid) || l2.WasApplied(tid2) {
		t.Fatalf("WasApplied wrong: %v %v", l2.WasApplied(tid), l2.WasApplied(tid2))
	}
}

func TestFenceDiscardsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	tid := model.TxnID{Site: 0, Seq: 1}
	appendSync(t, l, Record{Kind: KindReceipt, TID: tid, From: 1, MsgKind: 1})
	// Buffered but never synced: must be lost at the fence.
	if err := l.Append(Record{Kind: KindConsumed, TID: tid}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.Fence()
	if err := l.Append(Record{Kind: KindConsumed, TID: tid}); err != ErrFenced {
		t.Fatalf("Append after fence = %v, want ErrFenced", err)
	}
	if err := l.Sync(); err != ErrFenced {
		t.Fatalf("Sync after fence = %v, want ErrFenced", err)
	}

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	st := l2.Recovered()
	if len(st.Receipts) != 1 {
		t.Fatalf("receipt count = %d, want 1 (unsynced consumption must be lost)", len(st.Receipts))
	}
}

// flushGate holds a log's flushes in their fsync: each flush reports on
// entered, and none completes until release is closed.
type flushGate struct {
	entered chan struct{}
	release chan struct{}
}

// gateFlushes installs a flushGate on l. Call it before l is shared.
func gateFlushes(l *SiteLog) *flushGate {
	g := &flushGate{entered: make(chan struct{}, 16), release: make(chan struct{})}
	l.syncFile = func(f *os.File) error {
		g.entered <- struct{}{}
		<-g.release
		return f.Sync()
	}
	return g
}

// syncAsync runs l.Sync on its own goroutine and delivers its result.
func syncAsync(l *SiteLog) <-chan error {
	done := make(chan error, 1)
	go func() { done <- l.Sync() }()
	return done
}

func counterSum(reg *obs.Registry, family string) int64 {
	var n int64
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, family) {
			n += v
		}
	}
	return n
}

func receipt(seq uint64) Record {
	return Record{Kind: KindReceipt, TID: model.TxnID{Site: 0, Seq: seq}, MsgKind: 1}
}

// TestGroupCommitBatchesFsyncs: the leader writes and fsyncs with the
// mutex released, so appends go on during its flush, and every Sync
// arriving meanwhile shares the one next fsync. The count is exact
// whatever the timing: all eight records are buffered before the first
// flush ends, and the next leader takes them all.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	reg := obs.NewRegistry()
	l := openT(t, t.TempDir(), Options{Obs: reg})
	defer l.Close()
	g := gateFlushes(l)
	fsyncs0 := counterSum(reg, "repl_wal_fsyncs_total")

	if err := l.Append(receipt(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	leader := syncAsync(l)
	<-g.entered
	const followers = 8
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		if err := l.Append(receipt(uint64(i + 2))); err != nil {
			t.Fatalf("Append during the flush: %v", err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Sync()
		}(i)
	}
	select {
	case err := <-leader:
		t.Fatalf("leader Sync returned %v before its fsync did", err)
	default:
	}
	close(g.release)
	if err := <-leader; err != nil {
		t.Fatalf("leader Sync: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("follower %d Sync: %v", i, err)
		}
	}
	if got := counterSum(reg, "repl_wal_fsyncs_total") - fsyncs0; got != 2 {
		t.Fatalf("fsyncs = %d, want 2: the leader's, then one shared by all %d followers", got, followers)
	}
	for seq := uint64(1); seq <= followers+1; seq++ {
		if !hasReceipt(l, seq) {
			t.Fatalf("receipt %d synced but not folded into the durable state", seq)
		}
	}
}

func hasReceipt(l *SiteLog, seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.state.Receipts {
		if r.TID.Seq == seq {
			return true
		}
	}
	return false
}

// TestGroupCommitConcurrentWritersRecover drives leaders and followers
// from several goroutines at once, across snapshot rotations, and checks
// that every record whose Sync returned nil is recovered, in order.
func TestGroupCommitConcurrentWritersRecover(t *testing.T) {
	dir := t.TempDir()
	items := []model.ItemID{0, 1, 2, 3}
	l := openT(t, dir, Options{Items: items, SnapshotBytes: 1 << 10})
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				rec := Record{Kind: KindApply, TID: model.TxnID{Site: model.SiteID(w), Seq: uint64(i)},
					Role: RoleOrigin, Writes: []model.WriteOp{{Item: model.ItemID(w), Value: int64(i)}}}
				if err := l.Append(rec); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{Items: items})
	defer l2.Close()
	st := l2.Recovered()
	for w := 0; w < writers; w++ {
		// Each writer's records are appended in order, so its item's last
		// version is its last record.
		if got := st.Items[model.ItemID(w)]; got.Value != per || got.Num != per {
			t.Errorf("item %d = %+v, want value and version %d", w, got, per)
		}
	}
	if got := len(st.Applied); got != writers*per {
		t.Errorf("recovered %d applies, want %d", got, writers*per)
	}
}

// TestFenceDuringFlush: a fence waits for the flush in flight, whose
// records are durable and whose Syncs return nil; a record appended during
// that flush belongs to no flush, so its Sync fails with ErrFenced and it
// is absent after reopen.
func TestFenceDuringFlush(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	g := gateFlushes(l)
	if err := l.Append(receipt(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	leader := syncAsync(l)
	<-g.entered
	if err := l.Append(receipt(2)); err != nil {
		t.Fatalf("Append during the flush: %v", err)
	}
	follower := syncAsync(l)
	fenced := make(chan struct{})
	go func() {
		l.Fence()
		close(fenced)
	}()
	// Release the flush only once the fence is up, so no later leader can
	// take record 2.
	waitFenced(t, l)
	select {
	case <-fenced:
		t.Fatal("Fence returned with a flush in flight")
	default:
	}
	if err := l.Append(receipt(3)); !errors.Is(err, ErrFenced) {
		t.Fatalf("Append after the fence = %v, want ErrFenced", err)
	}
	close(g.release)
	<-fenced
	if err := <-leader; err != nil {
		t.Fatalf("Sync of the in-flight batch = %v, want nil", err)
	}
	if err := <-follower; !errors.Is(err, ErrFenced) {
		t.Fatalf("Sync of a record appended during the flush = %v, want ErrFenced", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close of a fenced log: %v", err)
	}

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	got := l2.Recovered().Receipts
	if len(got) != 1 || got[0].TID.Seq != 1 {
		t.Fatalf("recovered receipts = %+v, want only seq 1", got)
	}
}

// waitFenced polls until l is fenced.
func waitFenced(t *testing.T, l *SiteLog) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		fenced := l.fenced
		l.mu.Unlock()
		if fenced {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("log never fenced")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	items := []model.ItemID{0, 1, 2, 3}
	l := openT(t, dir, Options{Items: items, SnapshotBytes: 2 << 10})
	var lastTID model.TxnID
	for i := 1; i <= 200; i++ {
		lastTID = model.TxnID{Site: 0, Seq: uint64(i)}
		appendSync(t, l, Record{Kind: KindApply, TID: lastTID, Role: RoleOrigin,
			Writes: []model.WriteOp{{Item: model.ItemID(i % 4), Value: int64(i)}}})
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatalf("no snapshot written after %d applies", 200)
	}
	if len(segs) > 2 {
		t.Fatalf("truncation left %d segments: %v", len(segs), segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{Items: items})
	defer l2.Close()
	st := l2.Recovered()
	if got := st.Items[0].Value; got != 200 {
		t.Fatalf("item 0 = %d, want 200", got)
	}
	if got := st.Items[0].Num; got != 50 {
		t.Fatalf("item 0 version = %d, want 50", got)
	}
	if !st.Applied[lastTID] {
		t.Fatalf("last apply missing from recovered state")
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 1; i <= 5; i++ {
		appendSync(t, l, Record{Kind: KindReceipt, TID: model.TxnID{Site: 0, Seq: uint64(i)}, MsgKind: 1})
	}
	l.Close()
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000001.log")
	if len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("segments = %v", segs)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: drop the last 3 bytes.
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(data[:len(data)-3])
	if err != nil {
		t.Fatalf("torn replay: %v", err)
	}
	if len(recs) != 5 { // boot + 4 whole receipts
		t.Fatalf("torn replay got %d records, want 5", len(recs))
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if got := len(l2.Recovered().Receipts); got != 4 {
		t.Fatalf("recovered %d receipts from torn log, want 4", got)
	}
}

func TestDecisionFirstWriteWins(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	defer l.Close()
	tid := model.TxnID{Site: 2, Seq: 4}
	appendSync(t, l, Record{Kind: KindDecision, TID: tid, Commit: true})
	appendSync(t, l, Record{Kind: KindDecision, TID: tid, Commit: false})
	commit, known := l.Decision(tid)
	if !known || !commit {
		t.Fatalf("decision = (%v, %v), want first-write-wins commit", commit, known)
	}
}

// TestLegacyLockRecordsOpen: testdata/legacy_rlock.hex is a segment
// written before PSL's grants became leases — boot, an apply of item 1,
// then a remote reader's rlock and runlock and a second reader's rlock
// with no release. It must still open, and the retired records must fold
// to nothing: the state equals the fold of the boot and the apply alone.
func TestLegacyLockRecordsOpen(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_rlock.hex")
	if err != nil {
		t.Fatal(err)
	}
	seg, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(seg)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
	}
	if want := []Kind{KindBoot, KindApply, kindRLock, kindRUnlock, kindRLock}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("fixture kinds = %v, want %v", kinds, want)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	items := []model.ItemID{1}
	l := openT(t, dir, Options{Items: items})
	defer l.Close()
	want := newState(items)
	for i := range recs[:2] {
		want.apply(&recs[i])
	}
	// Recovered() is a clone, which also materialises Applied.
	if got := l.Recovered(); !reflect.DeepEqual(got, want.clone()) {
		t.Fatalf("recovered %+v, want the boot and apply alone: %+v", got, want)
	}
	if l.Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", l.Incarnation())
	}
}

// TestSnapshotDurableBeforeTruncate records, through the syncFile seam,
// every fsync a snapshot makes and what the directory held at that moment.
// The snapshot must be fsynced under its temporary name while the log is
// whole, and the directory fsynced once the snapshot and the next segment
// are in place, both before the covered segment is removed: otherwise a
// power loss after the truncation can leave neither snapshot nor log.
func TestSnapshotDurableBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SnapshotBytes: -1})
	defer l.Close()
	appendSync(t, l, receipt(1))
	var steps []string
	l.syncFile = func(f *os.File) error {
		name := filepath.Base(f.Name())
		if f.Name() == dir {
			name = "dir"
		}
		segs, snaps, err := scanDir(dir)
		if err != nil {
			t.Error(err)
		}
		steps = append(steps, fmt.Sprintf("sync %s segs=%v snaps=%v", name, segs, snaps))
		return f.Sync()
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	steps = append(steps, fmt.Sprintf("done segs=%v snaps=%v", segs, snaps))
	want := []string{
		"sync snap-00000001.snap.tmp segs=[1] snaps=[]",
		"sync dir segs=[1 2] snaps=[1]",
		"done segs=[2] snaps=[1]",
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("snapshot steps:\n got %q\nwant %q", steps, want)
	}
	if !hasReceipt(l, 1) {
		t.Fatal("receipt lost from the durable state")
	}
}

// TestOpenRefusesUndecodableLog: a checksum-valid frame that does not
// decode is a log in another format (here the gob records this package
// wrote before its own codec), never a torn tail. Recovering it as empty
// would silently drop acknowledged commits, so Open must fail naming the
// segment and offset.
func TestOpenRefusesUndecodableLog(t *testing.T) {
	dir := t.TempDir()
	var body bytes.Buffer
	rec := Record{Kind: KindApply, TID: model.TxnID{Site: 0, Seq: 1}, Role: RoleOrigin,
		Writes: []model.WriteOp{{Item: 1, Value: 5}}}
	if err := gob.NewEncoder(&body).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000001.log")
	if err := os.WriteFile(seg, appendRawFrame(nil, body.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Items: []model.ItemID{1}})
	if err == nil {
		l.Close()
		t.Fatalf("Open recovered a gob-format log (item 1 = %+v) instead of failing", l.Recovered().Items[1])
	}
	if msg := err.Error(); !strings.Contains(msg, seg) || !strings.Contains(msg, "byte 0") {
		t.Fatalf("Open error %q does not name segment %s and byte offset 0", msg, seg)
	}
}

// TestAppendAllocs guards the zero-allocation append path: once the
// append buffer and staged slice have grown, encoding a record into the
// log allocates nothing.
func TestAppendAllocs(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Items: []model.ItemID{1, 2, 3}})
	defer l.Close()
	rec := Record{Kind: KindApply, TID: model.TxnID{Site: 0, Seq: 1}, Role: RoleOrigin,
		Writes: []model.WriteOp{{Item: 1, Value: 1}, {Item: 2, Value: 1}, {Item: 3, Value: 1}}}
	for batch := 0; batch < 3; batch++ {
		allocs := testing.AllocsPerRun(100, func() {
			if err := l.Append(rec); err != nil {
				t.Fatalf("Append: %v", err)
			}
		})
		if batch > 0 && allocs != 0 {
			t.Fatalf("batch %d: %.1f allocs per Append, want 0", batch, allocs)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
}
