package txn

import (
	"testing"

	"repro/internal/israce"
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
