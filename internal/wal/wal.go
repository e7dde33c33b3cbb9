package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrFenced is returned by Append/Sync after the log has been fenced: a
// crash (simulated or real I/O failure) cut it off, buffered-but-unsynced
// records are gone, and the site must be rebuilt from disk.
var ErrFenced = errors.New("wal: log fenced")

// Options configures a site's log.
type Options struct {
	// Site labels metrics and trace events.
	Site model.SiteID

	// Deprecated: FlushInterval is ignored. Group commit needs no window:
	// the Syncs that arrive during one flush share the next (see Sync).
	FlushInterval time.Duration

	// SnapshotBytes triggers a snapshot + log truncation after this many
	// log bytes since the last snapshot (default 256 KiB; negative
	// disables snapshotting).
	SnapshotBytes int64

	// Items is the static placement at this site; the state tracker
	// filters payload writes with it exactly as the live store does.
	Items []model.ItemID

	// Obs, when set, receives the repl_wal_* counters.
	Obs *obs.Registry

	// Trace, when set, receives WALSnapshot events.
	Trace *trace.Recorder
}

const defaultSnapshotBytes = 256 << 10

// SiteLog is one site's write-ahead redo log: an append buffer group-
// committed into CRC-framed segment files, a durable-prefix state
// tracker, and periodic snapshots that truncate the segments they cover.
type SiteLog struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcast when a flush ends or the log is fenced
	f    *os.File   // nil once closed // repl:guardedby(mu)
	seg  uint64     // active segment index // repl:guardedby(mu)

	buf      []byte   // frames appended since the last flush began // repl:guardedby(mu)
	staged   []Record // the records in buf, folded into state on flush // repl:guardedby(mu)
	appended uint64   // records appended (generation numbers) // repl:guardedby(mu)
	durable  uint64   // records fsynced // repl:guardedby(mu)
	fenced   bool     // repl:guardedby(mu)
	fenceErr error    // repl:guardedby(mu)

	// flushing is set while a leader writes and fsyncs a batch with mu
	// released. The batch's buffers are the leader's until it re-locks;
	// spare and spareStaged hold the previous batch's emptied buffers, so
	// buf and staged ping-pong with them and Append never reallocates.
	flushing    bool     // repl:guardedby(mu)
	spare       []byte   // repl:guardedby(mu)
	spareStaged []Record // repl:guardedby(mu)

	// state advances only at flush: always equals disk replay.
	state *State // repl:guardedby(mu)
	// recovered is the frozen image from Open, consumed by the engine;
	// immutable after construction, so it needs no guard.
	recovered *State
	sinceSnap int64 // repl:guardedby(mu)

	// syncFile makes a written batch, a snapshot file or a directory entry
	// durable: (*os.File).Sync, replaced only by tests that hold a flush in
	// flight or record the order of durable steps.
	syncFile func(*os.File) error

	appends, fsyncs, bytes, replayed, truncations, snapshots *obs.Counter
}

// Open replays the newest valid snapshot plus every later segment in dir
// (creating it as needed), then starts a new log generation: a fresh
// active segment opened with a durable boot record carrying the next
// incarnation number. The recovered logical state is frozen in
// Recovered() for the engine to rebuild from.
//
//lint:allow guardedby Open constructs the log single-threaded; no other goroutine holds a reference until it returns
func Open(dir string, opts Options) (*SiteLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &SiteLog{dir: dir, opts: opts, syncFile: (*os.File).Sync}
	l.cond = sync.NewCond(&l.mu)
	if opts.SnapshotBytes == 0 {
		l.opts.SnapshotBytes = defaultSnapshotBytes
	}
	if r := opts.Obs; r != nil {
		site := obs.Label{Key: "site", Value: strconv.Itoa(int(opts.Site))}
		l.appends = r.Counter("repl_wal_appends_total", site)
		l.fsyncs = r.Counter("repl_wal_fsyncs_total", site)
		l.bytes = r.Counter("repl_wal_bytes_total", site)
		l.replayed = r.Counter("repl_wal_replayed_total", site)
		l.truncations = r.Counter("repl_wal_truncations_total", site)
		l.snapshots = r.Counter("repl_wal_snapshots_total", site)
	}

	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l.state, err = l.replay(segs, snaps)
	if err != nil {
		return nil, err
	}
	l.recovered = l.state.clone()

	// New generation: never append into a possibly-torn tail.
	l.seg = 1
	if n := len(segs); n > 0 && segs[n-1] >= l.seg {
		l.seg = segs[n-1] + 1
	}
	if n := len(snaps); n > 0 && snaps[n-1] >= l.seg {
		l.seg = snaps[n-1] + 1
	}
	l.f, err = os.OpenFile(l.segPath(l.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.Append(Record{Kind: KindBoot, Incarnation: l.state.Incarnation + 1}); err != nil {
		l.f.Close()
		return nil, err
	}
	// A failed boot flush has fenced the log, which closed the segment.
	if err := l.Sync(); err != nil {
		return nil, err
	}
	return l, nil
}

// replay folds the newest decodable snapshot and every later segment's
// valid record prefix into a fresh state. A checksum-valid record that
// does not decode is an error, never a torn tail.
func (l *SiteLog) replay(segs, snaps []uint64) (*State, error) {
	state := newState(l.opts.Items)
	from := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(l.snapPath(snaps[i]))
		if err != nil {
			continue
		}
		if s, ok := decodeState(data, l.opts.Items); ok {
			state, from = s, snaps[i]
			break
		}
	}
	n := 0
	for _, seg := range segs {
		if seg <= from {
			continue
		}
		data, err := os.ReadFile(l.segPath(seg))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		recs, err := ReadRecords(data)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", l.segPath(seg), err)
		}
		for i := range recs {
			state.apply(&recs[i])
		}
		n += len(recs)
	}
	l.replayed.Add(uint64(n))
	return state, nil
}

// Recovered returns the frozen logical state as of Open: the store
// image, unconsumed receipts, pending forwards, in-doubt prepared
// entries and decisions the rebuilt engine starts from.
func (l *SiteLog) Recovered() *State { return l.recovered }

// Incarnation returns this log generation's boot incarnation (1 for a
// fresh directory). Engines fold it into their TxnID sequence space so
// identifiers never repeat across restarts.
func (l *SiteLog) Incarnation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.Incarnation
}

// Append buffers one record for the next group commit. It does not make
// the record durable: externalize nothing until Sync returns nil.
func (l *SiteLog) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *SiteLog) appendLocked(rec Record) error {
	if l.fenced {
		return l.fenceErr
	}
	n := len(l.buf)
	l.buf = encodeFrame(l.buf, &rec)
	l.staged = append(l.staged, rec)
	l.appended++
	l.appends.Inc()
	l.bytes.Add(uint64(len(l.buf) - n))
	return nil
}

// Sync blocks until every record appended before the call is durable or
// the log is fenced. It is leader/follower group commit with no timer: a
// Sync that finds no flush in flight leads one, and a Sync that finds one
// in flight waits for it; the first waiter whose records that flush did
// not cover leads the next. Every Sync that arrives during one fsync
// therefore shares the next, and the batching window is the fsync's own
// duration.
func (l *SiteLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.appended)
}

// syncLocked waits until the first target records are durable, leading
// flushes as needed; mu is released while it leads or waits. A flush in
// flight when the log is fenced still completes and its records count as
// durable, so only records no flush took fail with the fence error.
func (l *SiteLog) syncLocked(target uint64) error {
	for l.durable < target {
		switch {
		case l.flushing:
			l.cond.Wait()
		case l.fenced:
			return l.fenceErr
		default:
			l.flush()
		}
	}
	return nil
}

// flush is one leader's turn, entered with mu held, no flush in flight,
// the log unfenced and records buffered. It swaps the append buffer for
// the spare, writes and fsyncs the batch with mu released, so appends
// continue into the other buffer meanwhile, then folds the batch into the
// durable-prefix state in append order, wakes the waiters, and snapshots
// when due. An I/O error fences the log.
func (l *SiteLog) flush() {
	batch, staged, f := l.buf, l.staged, l.f
	l.buf, l.staged = l.spare[:0], l.spareStaged[:0]
	l.flushing = true
	l.mu.Unlock()
	err := l.write(f, batch)
	l.mu.Lock()
	l.flushing = false
	if err != nil {
		l.fenceLocked(err)
	} else {
		l.fsyncs.Inc()
		for i := range staged {
			l.state.apply(&staged[i])
		}
		l.durable += uint64(len(staged))
		l.sinceSnap += int64(len(batch))
	}
	l.spare, l.spareStaged = batch[:0], staged[:0]
	l.cond.Broadcast()
	switch {
	case l.fenced:
		// A Fence during the flush left closing the segment to us.
		l.closeFileLocked()
	case l.opts.SnapshotBytes > 0 && l.sinceSnap >= l.opts.SnapshotBytes:
		l.snapshotLocked()
	}
}

// write appends one batch of frames to the segment and makes it durable.
func (l *SiteLog) write(f *os.File, batch []byte) error {
	if _, err := f.Write(batch); err != nil {
		return fmt.Errorf("wal: segment write: %w", err)
	}
	if err := l.syncFile(f); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// snapshotLocked serializes the durable-prefix state to a snapshot file
// covering every segment so far, rotates to a fresh segment, and deletes
// the covered files. The steps are ordered to survive power loss: the
// snapshot is written and fsynced under a temporary name, renamed into
// place, and the directory fsynced, which makes the rename and the fresh
// segment's entry durable, before any covered file is removed. Failures
// are non-fatal: the log simply keeps its longer tail. No flush may be in
// flight: rotation swaps the segment a leader writes to.
func (l *SiteLog) snapshotLocked() {
	data, err := encodeState(l.state)
	if err != nil {
		return
	}
	covered := l.seg
	snap, tmp := l.snapPath(covered), l.snapPath(covered)+".tmp"
	if err := l.writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return
	}
	// The next segment opens before the snapshot is published: replay
	// skips every segment a snapshot covers, so once the rename lands no
	// record may go to the covered segment.
	next, err := os.OpenFile(l.segPath(covered+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, snap); err != nil {
		next.Close()
		os.Remove(l.segPath(covered + 1))
		os.Remove(tmp)
		return
	}
	old := l.f
	l.f, l.seg = next, covered+1
	old.Close()
	l.snapshots.Inc()
	l.sinceSnap = 0
	if l.opts.Trace != nil {
		l.opts.Trace.Record(trace.WALSnapshot, l.opts.Site, model.NoSite, model.TxnID{}, 0)
	}
	if l.syncDir() != nil {
		return // the covered files stay until a later snapshot's directory sync
	}
	// Truncate: everything at or before the covered segment is subsumed.
	segs, snaps, err := scanDir(l.dir)
	if err != nil {
		return
	}
	for _, s := range segs {
		if s <= covered {
			if os.Remove(l.segPath(s)) == nil {
				l.truncations.Inc()
			}
		}
	}
	for _, s := range snaps {
		if s < covered {
			os.Remove(l.snapPath(s))
		}
	}
}

// writeSynced creates the file path holding data and fsyncs it.
func (l *SiteLog) writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = l.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs the log directory, making the entries created, renamed
// and removed in it so far durable.
func (l *SiteLog) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened read-only: nothing to flush
	return l.syncFile(d)
}

// Snapshot forces a flush and an immediate snapshot+truncation (tests
// and orderly shutdowns; the byte-threshold path is the normal trigger).
func (l *SiteLog) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(l.appended); err != nil {
		return err
	}
	// Rotation swaps the segment, so wait out a flush another Sync began.
	l.idleLocked()
	if l.fenced {
		return l.fenceErr
	}
	l.snapshotLocked()
	return nil
}

// WasApplied reports whether a subtransaction of tid has durably
// committed at this site — the exactly-once check for replayed or
// duplicated deliveries.
func (l *SiteLog) WasApplied(tid model.TxnID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.AppliedSet.Has(tid)
}

// Decision looks up a durable 2PC decision.
func (l *SiteLog) Decision(tid model.TxnID) (commit, known bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	commit, known = l.state.Decisions[tid]
	return commit, known
}

// Fence simulates (or finalizes) a crash: no new flush starts, records no
// flush has taken are discarded — honestly lost — and every later
// Append/Sync fails with ErrFenced. A flush already in flight completes
// first and its records count as durable: its Syncs return nil. The
// durable on-disk prefix is then left exactly as the last fsync made it,
// ready for the next Open.
func (l *SiteLog) Fence() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fenceLocked(ErrFenced)
	l.idleLocked()
}

func (l *SiteLog) fenceLocked(err error) {
	if l.fenced {
		return
	}
	l.fenced = true
	l.fenceErr = err
	l.buf = nil
	l.staged = nil
	if !l.flushing {
		l.closeFileLocked()
	}
	l.cond.Broadcast()
}

func (l *SiteLog) closeFileLocked() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Close flushes what is buffered and shuts the log down cleanly. A
// fenced log closes without error: its durable prefix is already final.
func (l *SiteLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if !l.fenced {
		err = l.syncLocked(l.appended)
		l.fenceLocked(ErrFenced)
	}
	l.idleLocked()
	return err
}

// idleLocked waits until no flush is in flight.
func (l *SiteLog) idleLocked() {
	for l.flushing {
		l.cond.Wait()
	}
}

func (l *SiteLog) segPath(i uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%08d.log", i))
}

func (l *SiteLog) snapPath(i uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%08d.snap", i))
}

// scanDir lists the segment and snapshot indexes present, ascending.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if i, perr := strconv.ParseUint(name[4:len(name)-4], 10, 64); perr == nil {
				segs = append(segs, i)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if i, perr := strconv.ParseUint(name[5:len(name)-5], 10, 64); perr == nil {
				snaps = append(snaps, i)
			}
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	return segs, snaps, nil
}
