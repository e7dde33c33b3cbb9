package txn

import (
	"testing"

	"repro/internal/israce"
	"repro/internal/lock"
	"repro/internal/model"
)

// TestReadWriteCommitAllocatesOnlyTheTxn: a 7-read/3-write transaction
// from begin to commit, with no recorder, allocates the Txn and nothing
// else — no write map, no observation buffer, no lock holder set.
func TestReadWriteCommitAllocatesOnlyTheTxn(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m := newTestManager(t, nil)
	seq := uint64(0)
	run := func() {
		seq++
		tx := m.Begin(model.TxnID{Site: 0, Seq: seq})
		for k := 0; k < 7; k++ {
			if _, err := tx.Read(model.ItemID((seq + uint64(k)) % 5)); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 3; k++ {
			if err := tx.Write(model.ItemID(k), int64(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: fills the lock manager's pools
	if n := testing.AllocsPerRun(1000, run); n > 1 {
		t.Fatalf("a 10-op transaction allocates %v times, want at most 1 (the Txn)", n)
	}
}

// TestRefusedResubmissionAllocatesNothing: a secondary refused by a held
// lock, restarted, and committed on its second attempt, then recycled,
// allocates nothing once the pools are warm — not the refusal's error, not
// a second Txn.
func TestRefusedResubmissionAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m := newTestManager(t, nil)
	holder := model.TxnID{Site: 1, Seq: 1}
	seq := uint64(0)
	run := func() {
		if err := m.Locks.Acquire(holder, 1, lock.Shared, 0); err != nil {
			t.Fatal(err)
		}
		seq++
		tx := m.BeginSecondary(model.TxnID{Site: 0, Seq: seq})
		if err := tx.TryWrite(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.TryWrite(1, 1); err != ErrBusy {
			t.Fatalf("want ErrBusy, got %v", err)
		}
		m.Locks.ReleaseAll(holder)
		tx.Restart()
		for item := model.ItemID(0); item < 2; item++ {
			if err := tx.TryWrite(item, 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		m.Recycle(tx)
	}
	run() // warm-up: fills the lock manager's and the Txn pools
	if n := testing.AllocsPerRun(1000, run); n != 0 {
		t.Fatalf("a refused and resubmitted secondary allocates %v times, want 0", n)
	}
}
