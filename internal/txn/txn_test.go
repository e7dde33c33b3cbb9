package txn

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fresh"
	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/storage"
	"unsafe"
)

func newTestManager(t *testing.T, rec *history.Recorder) *Manager {
	t.Helper()
	st := storage.NewStore()
	for i := 0; i < 5; i++ {
		if err := st.Create(model.ItemID(i), int64(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	return NewManager(0, st, lock.NewManager(false), 50*time.Millisecond, rec)
}

func txid(n uint64) model.TxnID { return model.TxnID{Site: 0, Seq: n} }

func TestReadWriteCommit(t *testing.T) {
	rec := history.NewRecorder()
	m := newTestManager(t, rec)
	tx := m.Begin(txid(1))
	v, err := tx.Read(1)
	if err != nil || v != 10 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if err := tx.Write(2, 99); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ver, _ := m.Store.Read(2)
	if ver.Value != 99 || ver.Writer != txid(1) {
		t.Errorf("committed version = %+v", ver)
	}
	if m.Locks.HeldCount(txid(1)) != 0 {
		t.Error("locks not released at commit")
	}
	if rec.NumReads() != 1 {
		t.Error("read observation not flushed")
	}
}

func TestReadsOwnWrites(t *testing.T) {
	m := newTestManager(t, nil)
	tx := m.Begin(txid(1))
	_ = tx.Write(1, 77)
	v, err := tx.Read(1)
	if err != nil || v != 77 {
		t.Errorf("own write invisible: %d, %v", v, err)
	}
	// The store must still hold the old value until commit.
	ver, _ := m.Store.Read(1)
	if ver.Value != 10 {
		t.Errorf("write leaked before commit: %+v", ver)
	}
	tx.Abort()
}

func TestAbortDiscardsWritesAndObservations(t *testing.T) {
	rec := history.NewRecorder()
	m := newTestManager(t, rec)
	tx := m.Begin(txid(1))
	_, _ = tx.Read(3)
	_ = tx.Write(1, 55)
	tx.Abort()
	ver, _ := m.Store.Read(1)
	if ver.Value != 10 || ver.Num != 0 {
		t.Errorf("abort leaked a write: %+v", ver)
	}
	if m.Locks.HeldCount(txid(1)) != 0 {
		t.Error("locks not released at abort")
	}
	if rec.NumReads() != 0 {
		t.Error("aborted transaction flushed read observations")
	}
}

func TestLockConflictAbortsTransaction(t *testing.T) {
	m := newTestManager(t, nil)
	m.Timeout = 10 * time.Millisecond
	holder := m.Begin(txid(1))
	if err := holder.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(txid(2))
	_, err := tx.Read(1)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if !tx.Finished() {
		t.Error("transaction not marked finished after forced abort")
	}
	if m.Locks.HeldCount(txid(2)) != 0 {
		t.Error("aborted txn left locks behind")
	}
	holder.Abort()
}

func TestStrictTwoPhaseLocking(t *testing.T) {
	m := newTestManager(t, nil)
	tx := m.Begin(txid(1))
	_, _ = tx.Read(1)
	_ = tx.Write(2, 1)
	// Locks are held (not released between operations).
	if _, held := m.Locks.Holds(txid(1), 1); !held {
		t.Error("read lock released early")
	}
	if _, held := m.Locks.Holds(txid(1), 2); !held {
		t.Error("write lock released early")
	}
	_ = tx.Commit()
	if m.Locks.HeldCount(txid(1)) != 0 {
		t.Error("locks survived commit")
	}
}

func TestWriteThenReadKeepsExclusive(t *testing.T) {
	m := newTestManager(t, nil)
	tx := m.Begin(txid(1))
	_ = tx.Write(1, 5)
	_, _ = tx.Read(1)
	if mode, _ := m.Locks.Holds(txid(1), 1); mode != lock.Exclusive {
		t.Error("read after write downgraded the lock")
	}
	tx.Abort()
}

func TestUseAfterFinishRejected(t *testing.T) {
	m := newTestManager(t, nil)
	tx := m.Begin(txid(1))
	_ = tx.Commit()
	if _, err := tx.Read(1); err == nil {
		t.Error("read after commit succeeded")
	}
	if err := tx.Write(1, 1); err == nil {
		t.Error("write after commit succeeded")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit succeeded")
	}
}

func TestAbortIdempotent(t *testing.T) {
	m := newTestManager(t, nil)
	tx := m.Begin(txid(1))
	tx.Abort()
	tx.Abort() // must not panic or error
	if !tx.Finished() {
		t.Error("not finished")
	}
}

func TestWritesReturnsWriteOrder(t *testing.T) {
	m := newTestManager(t, nil)
	tx := m.Begin(txid(1))
	_ = tx.Write(3, 30)
	_ = tx.Write(1, 11)
	_ = tx.Write(3, 33) // overwrite: order keeps first position
	ws := tx.Writes()
	if len(ws) != 2 || ws[0] != (model.WriteOp{Item: 3, Value: 33}) || ws[1] != (model.WriteOp{Item: 1, Value: 11}) {
		t.Errorf("Writes = %v", ws)
	}
	if tx.NumWrites() != 2 {
		t.Errorf("NumWrites = %d", tx.NumWrites())
	}
	tx.Abort()
}

func TestCommitObservationsMatchVersions(t *testing.T) {
	rec := history.NewRecorder()
	m := newTestManager(t, rec)
	t1 := m.Begin(txid(1))
	_ = t1.Write(1, 100)
	_ = t1.Commit()
	t2 := m.Begin(txid(2))
	v, _ := t2.Read(1)
	if v != 100 {
		t.Fatalf("read = %d", v)
	}
	_ = t2.Commit()
	// wr edge t1 -> t2 and nothing else: acyclic.
	g := rec.BuildGraph()
	if g.Edges() != 1 {
		t.Errorf("edges = %d, want 1", g.Edges())
	}
	if err := rec.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

func TestObserveRemoteRead(t *testing.T) {
	rec := history.NewRecorder()
	m := newTestManager(t, rec)
	tx := m.Begin(txid(1))
	tx.ObserveRemoteRead(3, 7, 2)
	if rec.NumReads() != 0 {
		t.Error("remote observation flushed before commit")
	}
	_ = tx.Commit()
	if rec.NumReads() != 1 {
		t.Error("remote observation lost at commit")
	}
}

// TestTryWriteRefusalReleasesEverything: a no-wait write the lock manager
// cannot grant aborts the transaction at once — no lock held, no write
// buffered — with the ErrBusy sentinel, which is no lock timeout, and
// without waiting or wounding the vulnerable holder in its way.
func TestTryWriteRefusalReleasesEverything(t *testing.T) {
	m := newTestManager(t, nil)
	holder := m.Begin(txid(1))
	if _, err := holder.Read(1); err != nil {
		t.Fatal(err)
	}
	wounded := false
	m.Locks.SetVulnerable(holder.ID, func() { wounded = true })
	tx := m.BeginSecondary(txid(2))
	if err := tx.TryWrite(0, 5); err != nil {
		t.Fatalf("free item refused: %v", err)
	}
	err := tx.TryWrite(1, 6)
	if err != ErrBusy || errors.Is(err, lock.ErrTimeout) || errors.Is(err, ErrAborted) {
		t.Fatalf("refusal = %v, want ErrBusy itself", err)
	}
	if n := m.Locks.HeldCount(tx.ID); n != 0 {
		t.Errorf("refused transaction holds %d locks", n)
	}
	if ws := tx.Writes(); len(ws) != 0 {
		t.Errorf("refused transaction keeps writes %v", ws)
	}
	if !tx.Finished() {
		t.Error("refused transaction not finished")
	}
	if s := m.Locks.Stats(); wounded || s.Wounds != 0 || s.Waited != 0 || s.Timeouts != 0 {
		t.Errorf("a no-wait request waited or wounded: wounded=%v stats=%+v", wounded, s)
	}
	holder.Abort()
}

// TestRestartedTxnIsFresh: a restarted transaction — after a refusal or a
// commit — reads the store, not its old buffer, writes and commits like a
// new one under the same id, and keeps its priority: its blocking write
// wounds a vulnerable holder, as a secondary's must.
func TestRestartedTxnIsFresh(t *testing.T) {
	m := newTestManager(t, nil)
	holder := m.Begin(txid(1))
	if _, err := holder.Read(2); err != nil {
		t.Fatal(err)
	}
	tx := m.BeginSecondary(txid(2))
	if err := tx.TryWrite(1, 77); err != nil {
		t.Fatal(err)
	}
	if err := tx.TryWrite(2, 78); err != ErrBusy {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	m.Locks.SetVulnerable(holder.ID, holder.Abort)
	tx.Restart()
	if tx.Finished() || tx.ID != txid(2) || tx.NumWrites() != 0 {
		t.Fatalf("restart left finished=%v id=%v writes=%d", tx.Finished(), tx.ID, tx.NumWrites())
	}
	if v, err := tx.Read(1); err != nil || v != 10 {
		t.Fatalf("restarted read of 1 = %d, %v; want the store's 10", v, err)
	}
	if err := tx.Write(2, 21); err != nil {
		t.Fatalf("blocking write through a vulnerable holder: %v", err)
	}
	if s := m.Locks.Stats(); s.Wounds != 1 {
		t.Errorf("wounds = %d, want 1", s.Wounds)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx.Restart()
	if err := tx.Write(3, 31); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for item, want := range map[model.ItemID]int64{1: 10, 2: 21, 3: 31} {
		if ver, _ := m.Store.Read(item); ver.Value != want {
			t.Errorf("item %d = %d, want %d", item, ver.Value, want)
		}
	}
	if n := m.Locks.HeldCount(tx.ID); n != 0 {
		t.Errorf("%d locks survive the last commit", n)
	}
}

// TestReadOnlyCommitInstallsNoBatch: a commit with no buffered writes
// leaves the store's install point where it was, so a later pin shares
// the earlier one's.
func TestReadOnlyCommitInstallsNoBatch(t *testing.T) {
	m := newTestManager(t, nil)
	before := m.Store.Pin()
	m.Store.Unpin(before)
	tx := m.Begin(txid(1))
	if _, err := tx.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := m.Store.Pin()
	m.Store.Unpin(after)
	if after != before {
		t.Fatalf("install point %d after a read-only commit, want %d", after, before)
	}
}

// TestSnapshotReadAtTakesNoLock: a snapshot read is granted while a
// writer holds the item exclusively, returns the value as of its pin —
// not the writer's, which commits after the pin, so the read is certified
// exactly one version behind — and is recorded like a locking read.
func TestSnapshotReadAtTakesNoLock(t *testing.T) {
	rec := history.NewRecorder()
	m := newTestManager(t, rec)
	m.Fresh = fresh.New(1)
	w := m.Begin(txid(1))
	if err := w.Write(2, 99); err != nil {
		t.Fatal(err)
	}
	pin := m.Store.Pin()
	defer m.Store.Unpin(pin)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	hold := m.Begin(txid(2))
	if err := hold.Write(2, 7); err != nil {
		t.Fatal(err)
	}
	defer hold.Abort()
	r := m.Begin(txid(3))
	v, err := r.ReadAt(2, pin)
	if err != nil {
		t.Fatal(err)
	}
	if sum := m.Fresh.Summarize(); v != 20 || sum.ReadsStale != 1 || sum.ReadVersionLag.Max != 1 {
		t.Fatalf("ReadAt = %d (%d stale, %d versions behind), want the pinned 20 (1 stale, 1 behind)",
			v, sum.ReadsStale, sum.ReadVersionLag.Max)
	}
	if got := m.Locks.Stats().Acquired; got != 2 {
		t.Fatalf("%d lock grants, want the two writers' only", got)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if rec.NumReads() != 1 {
		t.Fatalf("recorded %d reads, want 1", rec.NumReads())
	}
}

// TestLocklessCommitSkipsLockManager: a transaction that asked the lock
// manager for no lock — a snapshot reader — commits and aborts without
// reaching it. The manager has no lock manager at all, so a ReleaseAll
// would panic.
func TestLocklessCommitSkipsLockManager(t *testing.T) {
	rec := history.NewRecorder()
	m := newTestManager(t, rec)
	m.Locks = nil
	pin := m.Store.Pin()
	defer m.Store.Unpin(pin)
	r := m.Begin(txid(1))
	if v, err := r.ReadAt(3, pin); err != nil || v != 30 {
		t.Fatalf("ReadAt = %d, %v", v, err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if rec.NumReads() != 1 {
		t.Fatalf("recorded %d reads, want 1", rec.NumReads())
	}
	a := m.Begin(txid(2))
	if _, err := a.ReadAt(4, pin); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	if _, err := m.Begin(txid(3)).ReadAt(99, pin); err == nil {
		t.Fatal("ReadAt of a missing item succeeded")
	}
}

// TestCommitNotesInstalls: a Begin transaction's commit counts one
// primary commit per written item in the tracker, and a BeginSecondary
// one counts one propagated apply per item at the site, leaving the
// primary count alone.
func TestCommitNotesInstalls(t *testing.T) {
	m := newTestManager(t, nil)
	m.Fresh = fresh.New(1)
	tx := m.Begin(txid(1))
	if err := tx.Write(1, 11); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := m.Fresh.CertifyRead(0, 1, 0); c.Versions != 1 {
		t.Errorf("version 0 after a primary commit: %d behind, want 1", c.Versions)
	}
	if sum := m.Fresh.Summarize(); sum.Applies != 0 {
		t.Errorf("a primary commit noted %d applies", sum.Applies)
	}

	sec := m.BeginSecondary(txid(2))
	if err := sec.Write(2, 22); err != nil {
		t.Fatal(err)
	}
	if err := sec.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := m.Fresh.CertifyRead(0, 2, 0); c.Stale() {
		t.Errorf("a secondary apply counted as a primary commit: %d behind", c.Versions)
	}
	if sum := m.Fresh.Summarize(); sum.Applies != 1 {
		t.Errorf("secondary commit noted %d applies, want 1", sum.Applies)
	}
}

// TestReadsAreCertified: a read of the transaction's own write is
// certified fresh even when the store's copy is behind the tracker, a
// store read is certified by the version it observed, and a read that
// fails certifies nothing. A transaction adds its fresh certificates to
// the tracker when it ends, so each count is checked after the abort.
func TestReadsAreCertified(t *testing.T) {
	m := newTestManager(t, nil)
	m.Fresh = fresh.New(1)
	m.Fresh.NoteCommit(1) // the tracker knows a version the store lacks

	tx := m.Begin(txid(1))
	if err := tx.Write(1, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(1); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if sum := m.Fresh.Summarize(); sum.ReadsFresh != 1 || sum.ReadsStale != 0 {
		t.Fatalf("own-write read certified %d fresh, %d stale; want 1, 0", sum.ReadsFresh, sum.ReadsStale)
	}

	r := m.Begin(txid(2))
	if _, err := r.Read(1); err != nil {
		t.Fatal(err)
	}
	r.Abort()
	if sum := m.Fresh.Summarize(); sum.ReadsStale != 1 || sum.ReadVersionLag.Max != 1 {
		t.Fatalf("store read certified %d stale, %d versions behind; want 1, 1", sum.ReadsStale, sum.ReadVersionLag.Max)
	}

	holder := m.Begin(txid(3))
	if err := holder.Write(2, 5); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()
	m.Timeout = time.Millisecond
	before := m.Fresh.Summarize().Reads()
	if _, err := m.Begin(txid(4)).Read(2); !errors.Is(err, ErrAborted) {
		t.Fatalf("read of a held item = %v, want an abort", err)
	}
	pin := m.Store.Pin()
	defer m.Store.Unpin(pin)
	if _, err := m.Begin(txid(5)).ReadAt(99, pin); err == nil {
		t.Fatal("snapshot read of a missing item succeeded")
	}
	if after := m.Fresh.Summarize().Reads(); after != before {
		t.Errorf("failed reads issued %d certificates", after-before)
	}
}

// TestTxnSizeUnchanged: a Txn is allocated per primary transaction, so a
// field added to it costs every transaction; a snapshot reader's pin lives
// in its caller's frame instead.
func TestTxnSizeUnchanged(t *testing.T) {
	if n := unsafe.Sizeof(Txn{}); n > 248 {
		t.Fatalf("Txn is %d bytes, was 248", n)
	}
}
