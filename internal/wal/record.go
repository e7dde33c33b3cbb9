// Package wal is the per-site write-ahead redo log (docs/DURABILITY.md).
//
// Every state transition a site must survive a crash with — message
// receipts, committed applies, propagation obligations, 2PC registrations
// and decisions, DAG(T) epoch ticks — is appended as one framed
// record and made durable with a group-committed fsync *before* the
// transition is externalized (before the transport acknowledges, before a
// reply is sent, before the cluster's pending-work accounting is
// released). Recovery is then a pure fold over the durable prefix: load
// the newest snapshot, replay the records after it, and hand the engine a
// State describing exactly what the disk knows.
//
// The log is honest about loss: records buffered but not yet fsynced at
// crash time are gone, and everything that depended on them (an
// unacknowledged message, an unreleased pending obligation) is redone by
// the sender's retransmission or by recovery replay — never silently
// resurrected.
//
// Records are encoded by hand, field by field, straight into the log's
// append buffer (appendRecord: no reflection, no per-record encoder, no
// allocation), and decoded the same way at replay. Snapshots stay gob. A
// checksum-valid record that does not decode — a directory written in
// another format — fails Open instead of recovering as empty.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/model"
	"repro/internal/ts"
)

// Kind enumerates the redo-record taxonomy. The set is closed: recovery
// is a switch over these, and an unknown kind in a log is corruption.
type Kind uint8

const (
	// KindBoot opens every log generation: it carries the incarnation
	// number the booting engine must use to keep its TxnIDs unique across
	// restarts.
	KindBoot Kind = iota + 1
	// KindReceipt records a propagation message (secondary, special, or
	// backedge-execute) the moment it is received, before the reliable
	// sublayer acknowledges it: acked means durable. An unconsumed receipt
	// at recovery is re-enqueued for processing.
	KindReceipt
	// KindApply records a transaction's writes committing at this site,
	// appended inside the commit critical section before the store
	// mutates (log-then-mutate). Its Role says what the apply resolves.
	KindApply
	// KindConsumed marks one receipt of TID as fully processed without an
	// apply (a deduplicated duplicate, a special arriving home). Exactly
	// one consumption marker — an apply with Consumes set, or this —
	// eventually matches every receipt.
	KindConsumed
	// KindForwarded marks an apply's propagation obligation discharged
	// (children were sent their secondaries). It may be appended without
	// an fsync: losing it only causes a duplicate re-forward, which
	// receivers deduplicate.
	KindForwarded
	// KindPrepared records a backedge participant registering an eagerly
	// executed subtransaction, before it relays the special onward. At
	// recovery these are the in-doubt transactions resolved by 2PC
	// decision inquiry.
	KindPrepared
	// KindResolved marks an in-doubt prepared entry resolved by an abort
	// decision. (A commit decision resolves it through the KindApply
	// record with RoleResolve.)
	KindResolved
	// KindDecision records a 2PC coordinator decision, replacing the
	// ad-hoc in-memory decision side log: it must be durable before any
	// participant learns the outcome.
	KindDecision
	// KindEagerStart records a backedge origin dispatching an eager
	// subtransaction, before the execute message is sent. At recovery an
	// undecided eager start is presumed aborted; a decided-commit one
	// whose local apply is missing is redone.
	KindEagerStart
	// kindRLock and kindRUnlock are retired: a PSL primary once logged
	// each remote read-lock grant and release, and leases replaced both
	// (docs/DURABILITY.md). Their numbers stay reserved so that later kinds
	// keep theirs, and a log holding them still opens: the state fold
	// skips them.
	kindRLock
	kindRUnlock
	// KindEpoch records a DAG(T) source site advancing its epoch counter
	// (TS.Epoch carries the new value), before any timestamp bearing that
	// epoch is shipped. Epochs are compared first and cross-site
	// (ts.Compare), so a recovered site must resume at exactly the largest
	// epoch it ever shipped: regressing breaks per-edge timestamp
	// monotonicity, and overshooting starves its entries in every child's
	// min-timestamp head selection until the other sources catch up.
	KindEpoch
)

var kindNames = map[Kind]string{
	KindBoot: "boot", KindReceipt: "receipt", KindApply: "apply",
	KindConsumed: "consumed", KindForwarded: "forwarded",
	KindPrepared: "prepared", KindResolved: "resolved",
	KindDecision: "decision", KindEagerStart: "eagerstart",
	kindRLock: "rlock", kindRUnlock: "runlock", KindEpoch: "epoch",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Role says what a KindApply record resolves besides installing writes.
type Role uint8

const (
	// RoleOrigin is a primary subtransaction committing at its origin.
	RoleOrigin Role = iota
	// RoleSecondary is a propagated subtransaction committing at a
	// replica; it consumes one receipt of its TID.
	RoleSecondary
	// RoleResolve is an in-doubt prepared backedge subtransaction
	// committing on a 2PC commit decision; it resolves the prepared
	// entry (its receipt was consumed when the special was relayed).
	RoleResolve
)

// Record is the single schema every log entry shares; which fields are
// meaningful depends on Kind (see the constants above). One flat struct
// keeps the codec a straight-line walk over its fields: appendRecord and
// decodeRecord below must list them in the same order, and a field added
// here changes both and the golden frame in testdata/apply3.hex.
type Record struct {
	Kind Kind
	TID  model.TxnID

	// Receipt fields: the sending site and the engine message kind, so
	// recovery can re-enqueue an equivalent message.
	From    model.SiteID
	MsgKind int

	// Origin site of a special/eager subtransaction (Prepared, EagerStart,
	// and Receipt records for special payloads).
	Origin model.SiteID

	// Writes carried: the full payload write set for receipts and applies
	// (applies keep the payload, not the locally filtered subset, so
	// recovery can re-forward), the local write set for EagerStart.
	Writes []model.WriteOp

	// Span is the causal context the work ran under, so recovery-time
	// re-forwards keep the deterministic span tree intact.
	Span model.SpanContext

	// DAG(T) ordering state: the timestamp carried by the payload or
	// stamped at commit, and the committing site's LTS counter at that
	// moment. The last apply record fully determines the site timestamp.
	TS   ts.Timestamp
	LTSI uint64

	Role     Role
	Consumes bool // apply doubles as the receipt-consumption marker
	Forwards bool // apply leaves a propagation obligation behind

	Commit      bool         // decision outcome
	Item        model.ItemID // set by the retired rlock kind only; kept so the layout stays
	Incarnation uint64       // boot
}

// Frame layout: u32 little-endian body length, u32 IEEE CRC of the body,
// then the body. Each frame is independently decodable so a torn tail
// never poisons the prefix before it. Log records use the body layout of
// appendRecord; snapshots carry a gob-encoded State.
const (
	frameHeader  = 8
	maxFrameBody = 16 << 20
)

// appendRawFrame appends one length+CRC framed body to dst.
func appendRawFrame(dst, body []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	return sealFrame(append(dst, body...), start)
}

// sealFrame fills in the header of the frame starting at dst[start],
// whose body runs to the end of dst.
func sealFrame(dst []byte, start int) []byte {
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst
}

// takeRawFrame extracts the first frame's body from data; ok is false on
// a torn or corrupt frame.
func takeRawFrame(data []byte) ([]byte, bool) {
	if len(data) < frameHeader {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if n > maxFrameBody || len(data) < frameHeader+int(n) {
		return nil, false
	}
	body := data[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, false
	}
	return body, true
}

// encodeFrame appends the framed encoding of rec to dst and returns the
// extended slice. It allocates only when dst must grow.
func encodeFrame(dst []byte, rec *Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	return sealFrame(appendRecord(dst, rec), start)
}

// Flag bits of the body's flags byte; any other bit set is corruption.
const (
	flagConsumes = 1 << iota
	flagForwards
	flagCommit
	flagsDefined = flagConsumes | flagForwards | flagCommit
)

// appendRecord appends rec's body: every Record field in declaration
// order, signed values (site and item ids, which may be model.NoSite = -1,
// message kinds, write values) as zigzag varints, unsigned counters and
// slice lengths as uvarints, Span.Hop and Role as one byte each, and the
// three booleans packed into one flags byte.
func appendRecord(b []byte, rec *Record) []byte {
	b = append(b, byte(rec.Kind))
	b = binary.AppendVarint(b, int64(rec.TID.Site))
	b = binary.AppendUvarint(b, rec.TID.Seq)
	b = binary.AppendVarint(b, int64(rec.From))
	b = binary.AppendVarint(b, int64(rec.MsgKind))
	b = binary.AppendVarint(b, int64(rec.Origin))
	b = binary.AppendUvarint(b, uint64(len(rec.Writes)))
	for _, w := range rec.Writes {
		b = binary.AppendVarint(b, int64(w.Item))
		b = binary.AppendVarint(b, w.Value)
	}
	b = binary.AppendVarint(b, int64(rec.Span.TID.Site))
	b = binary.AppendUvarint(b, rec.Span.TID.Seq)
	b = binary.AppendUvarint(b, uint64(rec.Span.Parent))
	b = append(b, rec.Span.Hop)
	b = binary.AppendUvarint(b, rec.TS.Epoch)
	b = binary.AppendUvarint(b, uint64(len(rec.TS.Tuples)))
	for _, t := range rec.TS.Tuples {
		b = binary.AppendVarint(b, int64(t.Site))
		b = binary.AppendUvarint(b, t.LTS)
	}
	b = binary.AppendUvarint(b, rec.LTSI)
	b = append(b, byte(rec.Role))
	var flags byte
	if rec.Consumes {
		flags |= flagConsumes
	}
	if rec.Forwards {
		flags |= flagForwards
	}
	if rec.Commit {
		flags |= flagCommit
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(rec.Item))
	return binary.AppendUvarint(b, rec.Incarnation)
}

var (
	errTruncated = errors.New("truncated body")
	errOverflow  = errors.New("varint overflows 64 bits")
)

// bodyReader walks a record body; the first malformed field latches err
// and every later read returns zero.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	r.advance(n)
	return v
}

func (r *bodyReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	r.advance(n)
	return v
}

// advance consumes a varint of n bytes, as the binary package reports n:
// 0 for a short buffer, negative for an overflow (the value is then 0).
func (r *bodyReader) advance(n int) {
	switch {
	case n == 0:
		r.fail(errTruncated)
	case n < 0:
		r.fail(errOverflow)
	default:
		r.b = r.b[n:]
	}
}

// count reads a slice length. Every element takes at least two bytes, so
// a count above the bytes left is corruption, caught before it sizes an
// allocation.
func (r *bodyReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("slice count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

func (r *bodyReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// decodeRecord parses a body written by appendRecord into rec, rejecting
// an unknown kind, undefined flag bits, a truncated body, an impossible
// slice count, and trailing bytes. Empty slices decode as nil.
func decodeRecord(body []byte, rec *Record) error {
	r := bodyReader{b: body}
	*rec = Record{Kind: Kind(r.byte())}
	if _, known := kindNames[rec.Kind]; !known && r.err == nil {
		return fmt.Errorf("unknown kind %d", rec.Kind)
	}
	rec.TID.Site = model.SiteID(r.varint())
	rec.TID.Seq = r.uvarint()
	rec.From = model.SiteID(r.varint())
	rec.MsgKind = int(r.varint())
	rec.Origin = model.SiteID(r.varint())
	if n := r.count(); n > 0 {
		rec.Writes = make([]model.WriteOp, n)
		for i := range rec.Writes {
			rec.Writes[i] = model.WriteOp{Item: model.ItemID(r.varint()), Value: r.varint()}
		}
	}
	rec.Span.TID.Site = model.SiteID(r.varint())
	rec.Span.TID.Seq = r.uvarint()
	rec.Span.Parent = model.SpanID(r.uvarint())
	rec.Span.Hop = r.byte()
	rec.TS.Epoch = r.uvarint()
	if n := r.count(); n > 0 {
		rec.TS.Tuples = make([]ts.Tuple, n)
		for i := range rec.TS.Tuples {
			rec.TS.Tuples[i] = ts.Tuple{Site: model.SiteID(r.varint()), LTS: r.uvarint()}
		}
	}
	rec.LTSI = r.uvarint()
	rec.Role = Role(r.byte())
	flags := r.byte()
	if flags&^flagsDefined != 0 {
		r.fail(fmt.Errorf("undefined flag bits %#x", flags&^flagsDefined))
	}
	rec.Consumes = flags&flagConsumes != 0
	rec.Forwards = flags&flagForwards != 0
	rec.Commit = flags&flagCommit != 0
	rec.Item = model.ItemID(r.varint())
	rec.Incarnation = r.uvarint()
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return fmt.Errorf("%v record: %w", rec.Kind, r.err)
	}
	return nil
}

// ReadRecords decodes every whole, checksum-valid record from a segment's
// bytes. It stops cleanly at the first torn or corrupt frame — the bytes
// past a crash point are garbage by contract, not an error — and returns
// an error naming the byte offset when a checksum-valid frame fails to
// decode: that is never a torn tail but a log in another format or a bug,
// and recovering past it would silently drop acknowledged work. It never
// panics on any input (FuzzWALDecode holds it to that).
func ReadRecords(data []byte) ([]Record, error) {
	var out []Record
	for off := 0; ; {
		body, ok := takeRawFrame(data[off:])
		if !ok {
			return out, nil
		}
		var rec Record
		if err := decodeRecord(body, &rec); err != nil {
			return out, fmt.Errorf("record at byte %d: %w", off, err)
		}
		out = append(out, rec)
		off += frameHeader + len(body)
	}
}
