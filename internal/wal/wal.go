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

	// FlushInterval is the group-commit window: concurrent Sync callers
	// share the one fsync the background flusher issues per window. Zero
	// or negative means every Sync flushes inline (still batching every
	// record appended since the last flush into one fsync).
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
	cond *sync.Cond
	f    *os.File // repl:guardedby(mu)
	seg  uint64   // active segment index // repl:guardedby(mu)

	buf      []byte   // frames appended since the last flush // repl:guardedby(mu)
	staged   []Record // the records in buf, folded into state on flush // repl:guardedby(mu)
	appended uint64   // records appended (generation numbers) // repl:guardedby(mu)
	durable  uint64   // records fsynced // repl:guardedby(mu)
	fenced   bool     // repl:guardedby(mu)
	fenceErr error    // repl:guardedby(mu)

	// state advances only at flush: always equals disk replay.
	state *State // repl:guardedby(mu)
	// recovered is the frozen image from Open, consumed by the engine;
	// immutable after construction, so it needs no guard.
	recovered *State
	sinceSnap int64 // repl:guardedby(mu)

	done    chan struct{} // stops the flusher
	flusher sync.WaitGroup

	appends, fsyncs, bytes, replayed, truncations, snapshots *obs.Counter
}

// Open replays the newest valid snapshot plus every later segment in dir
// (creating it as needed), then starts a new log generation: a fresh
// active segment opened with a durable boot record carrying the next
// incarnation number. The recovered logical state is frozen in
// Recovered() for the engine to rebuild from.
//
//lint:allow guardedby Open constructs the log single-threaded; no other goroutine holds a reference until it returns, and the flusher it starts last takes mu before touching anything
func Open(dir string, opts Options) (*SiteLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &SiteLog{dir: dir, opts: opts, done: make(chan struct{})}
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
	l.mu.Lock()
	err = l.appendLocked(Record{Kind: KindBoot, Incarnation: l.state.Incarnation + 1})
	if err == nil {
		err = l.flushLocked()
	}
	l.mu.Unlock()
	if err != nil {
		l.f.Close()
		return nil, err
	}
	if opts.FlushInterval > 0 {
		l.flusher.Add(1)
		go l.flushLoop()
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
// entries, decisions, and lock grants the rebuilt engine starts from.
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

// Sync blocks until every record appended before the call is durable
// (group commit: one fsync covers every concurrent caller in the flush
// window) or the log is fenced.
func (l *SiteLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appended
	if l.opts.FlushInterval <= 0 {
		if l.durable < target && !l.fenced {
			return l.flushLocked()
		}
		if l.fenced && l.durable < target {
			return l.fenceErr
		}
		return nil
	}
	for l.durable < target && !l.fenced {
		l.cond.Wait()
	}
	if l.durable < target {
		return l.fenceErr
	}
	return nil
}

// flushLocked writes and fsyncs the append buffer, folds the staged
// records into the durable-prefix state, wakes group-commit waiters, and
// triggers a snapshot when due. An I/O error fences the log.
func (l *SiteLog) flushLocked() error {
	if l.fenced {
		return l.fenceErr
	}
	if len(l.buf) == 0 {
		return nil
	}
	n := len(l.buf)
	if _, err := l.f.Write(l.buf); err != nil {
		l.fenceLocked(fmt.Errorf("wal: segment write: %w", err))
		return l.fenceErr
	}
	if err := l.f.Sync(); err != nil {
		l.fenceLocked(fmt.Errorf("wal: fsync: %w", err))
		return l.fenceErr
	}
	l.fsyncs.Inc()
	for i := range l.staged {
		l.state.apply(&l.staged[i])
	}
	l.durable += uint64(len(l.staged))
	l.buf = l.buf[:0]
	l.staged = l.staged[:0]
	l.sinceSnap += int64(n)
	l.cond.Broadcast()
	if l.opts.SnapshotBytes > 0 && l.sinceSnap >= l.opts.SnapshotBytes {
		l.snapshotLocked()
	}
	return nil
}

// snapshotLocked serializes the durable-prefix state to a snapshot file
// covering every segment so far, rotates to a fresh segment, and deletes
// the covered files. Failures are non-fatal: the log simply keeps its
// longer tail.
func (l *SiteLog) snapshotLocked() {
	data, err := encodeState(l.state)
	if err != nil {
		return
	}
	covered := l.seg
	tmp := l.snapPath(covered) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, l.snapPath(covered)); err != nil {
		os.Remove(tmp)
		return
	}
	next, err := os.OpenFile(l.segPath(covered+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return // keep appending to the old segment; the snapshot still stands
	}
	old := l.f
	l.f, l.seg = next, covered+1
	old.Close()
	l.snapshots.Inc()
	l.sinceSnap = 0
	if l.opts.Trace != nil {
		l.opts.Trace.Record(trace.WALSnapshot, l.opts.Site, model.NoSite, model.TxnID{}, 0)
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

// Snapshot forces a flush and an immediate snapshot+truncation (tests
// and orderly shutdowns; the byte-threshold path is the normal trigger).
func (l *SiteLog) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err
	}
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
	return l.state.Applied[tid]
}

// Decision looks up a durable 2PC decision.
func (l *SiteLog) Decision(tid model.TxnID) (commit, known bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	commit, known = l.state.Decisions[tid]
	return commit, known
}

// Fence simulates (or finalizes) a crash: buffered-but-unsynced records
// are discarded — honestly lost — and every current and future
// Append/Sync fails with ErrFenced. The durable on-disk prefix is left
// exactly as the last fsync made it, ready for the next Open.
func (l *SiteLog) Fence() {
	l.mu.Lock()
	l.fenceLocked(ErrFenced)
	l.mu.Unlock()
	l.flusher.Wait()
}

func (l *SiteLog) fenceLocked(err error) {
	if l.fenced {
		return
	}
	l.fenced = true
	l.fenceErr = err
	l.buf = nil
	l.staged = nil
	l.f.Close()
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	l.cond.Broadcast()
}

// Close flushes what is buffered and shuts the log down cleanly. A
// fenced log closes without error: its durable prefix is already final.
func (l *SiteLog) Close() error {
	l.mu.Lock()
	fenced := l.fenced
	var err error
	if !fenced {
		err = l.flushLocked()
		l.fenceLocked(ErrFenced)
	}
	l.mu.Unlock()
	l.flusher.Wait()
	if fenced {
		return nil
	}
	return err
}

// flushLoop is the group-commit flusher: one fsync per interval while
// records are buffered.
func (l *SiteLog) flushLoop() {
	defer l.flusher.Done()
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		// A flush error fences the log; Sync callers observe it there.
		_ = l.flushLocked()
		l.mu.Unlock()
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
