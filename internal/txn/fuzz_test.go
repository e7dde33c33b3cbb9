package txn

import (
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/storage"
)

// FuzzTxnWriteBuffer drives a transaction and a map model with the same
// operations — each input byte reads (0x00–0x3f) or writes (0x80–0xff)
// one of 16 items, more than the buffer holds inline, or restarts the
// transaction (0x40–0x7f), which empties the model — and asserts
// read-your-writes with the last value winning, Writes in first-write
// order, and a commit that installs exactly the model's final values.
func FuzzTxnWriteBuffer(f *testing.F) {
	f.Add([]byte{0x80, 0x81, 0x00, 0x80, 0x01})
	f.Add([]byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x0b, 0x8a, 0x0a})
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x81, 0x40, 0x01, 0x82, 0x41, 0x83, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const items = 16
		st := storage.NewStore()
		for i := 0; i < items; i++ {
			if err := st.Create(model.ItemID(i), int64(-1-i)); err != nil {
				t.Fatal(err)
			}
		}
		m := NewManager(0, st, lock.NewManager(false), time.Second, nil)
		tx := m.Begin(model.TxnID{Site: 0, Seq: 1})
		written := make(map[model.ItemID]int64)
		var order []model.ItemID
		for i, op := range ops {
			item := model.ItemID(op % items)
			if op&0xc0 == 0x40 {
				tx.Restart()
				clear(written)
				order = order[:0]
				continue
			}
			if op&0x80 == 0 {
				v, err := tx.Read(item)
				if err != nil {
					t.Fatalf("op %d: Read(%d): %v", i, item, err)
				}
				want, ok := written[item]
				if !ok {
					want = int64(-1 - int(item))
				}
				if v != want {
					t.Fatalf("op %d: Read(%d) = %d, want %d", i, item, v, want)
				}
				continue
			}
			if err := tx.Write(item, int64(i)); err != nil {
				t.Fatalf("op %d: Write(%d): %v", i, item, err)
			}
			if _, ok := written[item]; !ok {
				order = append(order, item)
			}
			written[item] = int64(i)
		}
		ws := tx.Writes()
		if len(ws) != len(order) || tx.NumWrites() != len(order) {
			t.Fatalf("Writes has %d entries, NumWrites %d; want %d", len(ws), tx.NumWrites(), len(order))
		}
		for i, item := range order {
			if want := (model.WriteOp{Item: item, Value: written[item]}); ws[i] != want {
				t.Fatalf("Writes[%d] = %+v, want %+v", i, ws[i], want)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < items; i++ {
			item := model.ItemID(i)
			ver, err := st.Read(item)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := written[item]
			if !ok {
				want = int64(-1 - i)
			}
			if ver.Value != want {
				t.Fatalf("after commit item %d = %d, want %d", item, ver.Value, want)
			}
		}
	})
}
