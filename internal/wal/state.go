package wal

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"

	"repro/internal/model"
	"repro/internal/ts"
)

// ItemState is the recovered version of one item copy.
type ItemState struct {
	Value  int64
	Num    uint64
	Writer model.TxnID
}

// Receipt is one received-but-unconsumed propagation message: recovery
// re-enqueues an equivalent message into the rebuilt engine, which will
// process it and write the consumption marker the original never got.
type Receipt struct {
	From    model.SiteID
	MsgKind int
	TID     model.TxnID
	Origin  model.SiteID
	Writes  []model.WriteOp
	TS      ts.Timestamp
	Span    model.SpanContext
}

// PendingForward is a committed apply whose propagation to children was
// not marked done; recovery re-sends it (receivers deduplicate).
type PendingForward struct {
	TID    model.TxnID
	Writes []model.WriteOp
	TS     ts.Timestamp
	LTSI   uint64
	Span   model.SpanContext
}

// PreparedEntry is an in-doubt backedge subtransaction: executed and
// registered here, outcome unknown. Recovery re-registers it and lets
// the decision (delivered or inquired) resolve it.
type PreparedEntry struct {
	Origin model.SiteID
	Writes []model.WriteOp
	Span   model.SpanContext
}

// EagerEntry is a backedge origin's dispatched eager subtransaction.
// Undecided at recovery ⇒ presumed abort; decided-commit with no local
// apply ⇒ redo.
type EagerEntry struct {
	Writes []model.WriteOp
	Span   model.SpanContext
}

// State is the logical fold of the durable log prefix: what an engine
// needs to rebuild itself exactly as the disk knows it. It advances only
// when records become durable (at fsync, not at append), so a snapshot
// of it is always equal to what crash recovery from the file would
// reconstruct.
type State struct {
	Incarnation uint64

	// Items is the recovered store image; version numbers replay
	// deterministically because commit order equals log order.
	Items map[model.ItemID]ItemState

	// AppliedSet holds every TID whose subtransaction committed here —
	// the exactly-once dedup set for replayed/duplicated deliveries.
	AppliedSet TxnSet

	// Applied is AppliedSet as a map. Only Recovered()'s image fills it;
	// the live state leaves it nil, so snapshots carry AppliedSet alone.
	// A snapshot written before AppliedSet existed carries only Applied,
	// which decodeState folds into AppliedSet.
	Applied map[model.TxnID]bool

	// Receipts lists unconsumed receipts in arrival order.
	Receipts []Receipt

	// Forwards lists applies whose propagation was not marked done.
	Forwards []PendingForward

	// Prepared maps in-doubt backedge TIDs to their registration.
	Prepared map[model.TxnID]PreparedEntry

	// Decisions is the durable 2PC decision log (true = commit).
	Decisions map[model.TxnID]bool

	// Eager maps dispatched-and-unresolved eager TIDs at an origin.
	Eager map[model.TxnID]EagerEntry

	// Last apply's DAG(T) ordering state; the site timestamp is a pure
	// function of it (see dagt recovery).
	LastTS   ts.Timestamp
	LastLTSI uint64
	LastRole Role
	HasApply bool

	// MaxEpoch is the largest epoch this site durably shipped or applied
	// (the max over apply-record timestamps and source epoch-tick records).
	// Recovery resumes the site timestamp at exactly this epoch: every
	// pre-crash shipment carried an epoch backed by one of these records,
	// so the recovered site neither regresses (which would break per-edge
	// timestamp monotonicity) nor overshoots (which would starve its
	// entries in min-timestamp scheduling until other sources catch up).
	MaxEpoch uint64

	// copies is the static placement at this site, used to filter payload
	// writes exactly as the live store does. Not serialized: re-derived
	// from Options on every Open.
	copies map[model.ItemID]bool
}

func newState(items []model.ItemID) *State {
	s := &State{
		Items:      make(map[model.ItemID]ItemState),
		AppliedSet: make(TxnSet),
		Prepared:   make(map[model.TxnID]PreparedEntry),
		Decisions:  make(map[model.TxnID]bool),
		Eager:      make(map[model.TxnID]EagerEntry),
		copies:     make(map[model.ItemID]bool, len(items)),
	}
	for _, it := range items {
		s.copies[it] = true
	}
	return s
}

// apply folds one durable record into the state. The switch is total
// over the Kind set; the codec already rejected unknown kinds.
func (s *State) apply(rec *Record) {
	switch rec.Kind {
	case KindBoot:
		s.Incarnation = rec.Incarnation
	case KindReceipt:
		s.Receipts = append(s.Receipts, Receipt{
			From: rec.From, MsgKind: rec.MsgKind, TID: rec.TID,
			Origin: rec.Origin, Writes: rec.Writes, TS: rec.TS, Span: rec.Span,
		})
	case KindApply:
		for _, w := range rec.Writes {
			if !s.copies[w.Item] {
				continue
			}
			cur := s.Items[w.Item]
			s.Items[w.Item] = ItemState{Value: w.Value, Num: cur.Num + 1, Writer: rec.TID}
		}
		s.AppliedSet.Add(rec.TID)
		if rec.Consumes {
			s.consumeReceipt(rec.TID)
		}
		switch rec.Role {
		case RoleOrigin:
			delete(s.Eager, rec.TID)
		case RoleResolve:
			delete(s.Prepared, rec.TID)
		}
		if rec.Forwards {
			s.Forwards = append(s.Forwards, PendingForward{
				TID: rec.TID, Writes: rec.Writes, TS: rec.TS, LTSI: rec.LTSI, Span: rec.Span,
			})
		}
		s.LastTS, s.LastLTSI, s.LastRole, s.HasApply = rec.TS, rec.LTSI, rec.Role, true
		//lint:allow tscompare scalar epoch max over durable records, not a tuple-order comparison
		if rec.TS.Epoch > s.MaxEpoch {
			s.MaxEpoch = rec.TS.Epoch
		}
	case KindConsumed:
		s.consumeReceipt(rec.TID)
	case KindForwarded:
		for i := range s.Forwards {
			if s.Forwards[i].TID == rec.TID {
				s.Forwards = append(s.Forwards[:i], s.Forwards[i+1:]...)
				break
			}
		}
	case KindPrepared:
		s.Prepared[rec.TID] = PreparedEntry{Origin: rec.Origin, Writes: rec.Writes, Span: rec.Span}
	case KindResolved:
		delete(s.Prepared, rec.TID)
	case KindDecision:
		if _, dup := s.Decisions[rec.TID]; !dup {
			s.Decisions[rec.TID] = rec.Commit
		}
		if !rec.Commit {
			delete(s.Eager, rec.TID)
		}
	case KindEagerStart:
		s.Eager[rec.TID] = EagerEntry{Writes: rec.Writes, Span: rec.Span}
	case kindRLock, kindRUnlock:
		// Retired: a restarted PSL primary rebuilds no lock state; its
		// write fence outlasts every lease granted before the crash.
	case KindEpoch:
		//lint:allow tscompare scalar epoch max over durable records, not a tuple-order comparison
		if rec.TS.Epoch > s.MaxEpoch {
			s.MaxEpoch = rec.TS.Epoch
		}
	}
}

// consumeReceipt removes the first unconsumed receipt with the given
// TID. Matching is positional and count-based: a duplicated delivery
// produces two receipts, and each needs its own consumption marker.
func (s *State) consumeReceipt(tid model.TxnID) {
	for i := range s.Receipts {
		if s.Receipts[i].TID == tid {
			s.Receipts = append(s.Receipts[:i], s.Receipts[i+1:]...)
			return
		}
	}
}

// clone deep-copies the state so the recovered image handed to an engine
// stays frozen while the live tracker keeps folding new records. The copy
// also materialises Applied.
func (s *State) clone() *State {
	c := &State{
		Incarnation: s.Incarnation,
		Items:       make(map[model.ItemID]ItemState, len(s.Items)),
		AppliedSet:  maps.Clone(s.AppliedSet),
		Applied:     s.AppliedSet.Map(),
		Receipts:    append([]Receipt(nil), s.Receipts...),
		Forwards:    append([]PendingForward(nil), s.Forwards...),
		Prepared:    make(map[model.TxnID]PreparedEntry, len(s.Prepared)),
		Decisions:   make(map[model.TxnID]bool, len(s.Decisions)),
		Eager:       make(map[model.TxnID]EagerEntry, len(s.Eager)),
		LastTS:      s.LastTS.Clone(),
		LastLTSI:    s.LastLTSI,
		LastRole:    s.LastRole,
		HasApply:    s.HasApply,
		MaxEpoch:    s.MaxEpoch,
		copies:      s.copies,
	}
	for k, v := range s.Items {
		c.Items[k] = v
	}
	for k, v := range s.Prepared {
		c.Prepared[k] = v
	}
	for k, v := range s.Decisions {
		c.Decisions[k] = v
	}
	for k, v := range s.Eager {
		c.Eager[k] = v
	}
	return c
}

// encodeState serializes the state as one CRC-framed gob blob — the
// snapshot file format (same framing as log records, so the same torn-
// tail rules apply).
func encodeState(s *State) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(s); err != nil {
		return nil, fmt.Errorf("wal: encode snapshot: %w", err)
	}
	return appendRawFrame(nil, body.Bytes()), nil
}

// decodeState parses a snapshot file; ok is false when the file is torn
// or corrupt (the previous snapshot, if any, should be used instead).
func decodeState(data []byte, items []model.ItemID) (*State, bool) {
	body, ok := takeRawFrame(data)
	if !ok {
		return nil, false
	}
	s := newState(items)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(s); err != nil {
		return nil, false
	}
	// Gob skips nil maps; normalize so recovery code can index freely.
	fresh := newState(items)
	if s.Items == nil {
		s.Items = fresh.Items
	}
	if s.AppliedSet == nil {
		s.AppliedSet = fresh.AppliedSet
	}
	for tid := range s.Applied {
		s.AppliedSet.Add(tid)
	}
	s.Applied = nil
	if s.Prepared == nil {
		s.Prepared = fresh.Prepared
	}
	if s.Decisions == nil {
		s.Decisions = fresh.Decisions
	}
	if s.Eager == nil {
		s.Eager = fresh.Eager
	}
	s.copies = fresh.copies
	return s, true
}
