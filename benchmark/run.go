package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fresh"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Phases of a run, read by every client before and after each
// transaction.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// sliceLen is the length of the slices a window is cut into. Throughput
// and CPU per transaction are reported as the median over the slices, so
// that a burst of interference from outside the process, shorter than
// half the window, does not move them.
const sliceLen = time.Second

// quiesceTimeout bounds the drain after the clients stop. The slowest
// workload (fanout-dagwt) drains in a few seconds; a cluster that has not
// drained by then is stuck, and the run fails.
const quiesceTimeout = 60 * time.Second

// span is the benchmark's own record of one client call into the
// program: one Execute, from just before the call to just after it
// returns. Times are nanoseconds since the run's cluster was built.
type span struct {
	Site     int   `json:"site"`
	Thread   int   `json:"thread"`
	Seq      int   `json:"seq"` // per (site, thread), from 0, warm-up included
	StartNS  int64 `json:"start_ns"`
	EndNS    int64 `json:"end_ns"`
	ReadOnly bool  `json:"read_only"`
	Aborted  bool  `json:"aborted"`
}

// client is one closed-loop client thread of §5.2: it issues its next
// transaction only after the previous Execute returned.
type client struct {
	site   model.SiteID
	thread int
	gen    *workload.TxnGen

	warmTxns int     // transactions finished during warm-up; sizes the buffers
	ro, upd  []int64 // committed response times in the window, ns
	aborted  int     // aborted attempts in the window
	sumNS    int64   // Σ response of every attempt in the window
	commits  []int   // commits per sliceLen of the window
	spans    []span  // traced runs only
}

// runOpts selects what is attached to a run besides the workload.
type runOpts struct {
	warm   time.Duration
	window time.Duration
	// traced attaches a trace recorder, an obs registry and
	// propagation-delay tracking, and records client spans. End-to-end
	// metrics come only from runs with traced false.
	traced bool
	// record turns on the serializability recorder (the -verify pass).
	record bool
	// maxEvents ends a traced window early once the recorder has taken
	// this many events in it: the recorder keeps every event in memory,
	// and the fastest workload emits millions per second.
	maxEvents int
}

// runResult is everything one run measured. Counts and sums cover the
// measured window only.
type runResult struct {
	def    workloadDef
	window time.Duration // as measured, from the phase switch to the stop switch
	setup  time.Duration // cluster.New + Start + generators + one Execute
	drain  time.Duration // last client return to Quiesce return
	// Committed transactions by kind, and their response-time summaries in
	// ns (see midMean, tailMean); the samples themselves are dropped
	// before the live-heap reading.
	nRO, nUpd              int
	roMid, updMid, worst1p float64
	aborted                int
	failed                 int   // attempts that ended in an error other than an abort
	sumNS                  int64 // Σ response over every attempt
	mallocs                uint64
	bytes                  uint64
	cpu                    time.Duration
	liveHeap               uint64
	// sliceCommits[i] counts the commits of the i-th full sliceLen of the
	// window, and cpuAt[i] is the process's CPU time at its start (one
	// more entry than slices).
	sliceCommits []int
	cpuAt        []time.Duration // len(sliceCommits)+1 entries unless the window was cut short
	reads        uint64          // read certificates in the window
	stale        uint64          // of which stale

	// The freshness summary at both ends of the window and, on traced
	// runs only, the obs registry there, the folded trace events of the
	// window, and the client spans.
	registry0, registry map[string]int64
	fresh0, fresh1      *fresh.Summary
	fold                *traceFold
	spans               []span
}

func (r *runResult) commits() int  { return r.nRO + r.nUpd }
func (r *runResult) attempts() int { return r.commits() + r.aborted + r.failed }

// minSlices is the fewest full slices a window must hold for medians
// over slices to be reported; a shorter window reports whole-window
// values.
const minSlices = 4

// fullSlices returns how many slices have both a commit count and CPU
// readings at both ends.
func (r *runResult) fullSlices() int { return min(len(r.sliceCommits), len(r.cpuAt)-1) }

// tpsSite returns commits per second per site: the median over the
// window's slices, or the whole window's when it is too short for that.
func (r *runResult) tpsSite() float64 {
	wl, _ := r.def.inputs()
	n := r.fullSlices()
	if n < minSlices {
		return float64(r.commits()) / r.window.Seconds() / float64(wl.Sites)
	}
	per := make([]float64, n)
	for i := range per {
		per[i] = float64(r.sliceCommits[i]) / sliceLen.Seconds() / float64(wl.Sites)
	}
	return median(per)
}

// cpuPerTxnUS returns CPU time (user+system) per commit in µs, as
// tpsSite does: median over slices, else whole window.
func (r *runResult) cpuPerTxnUS() float64 {
	var per []float64
	if n := r.fullSlices(); n >= minSlices {
		for i := 0; i < n; i++ {
			if c := r.sliceCommits[i]; c > 0 {
				per = append(per, float64(r.cpuAt[i+1]-r.cpuAt[i])/1e3/float64(c))
			}
		}
	}
	if len(per) < minSlices {
		return float64(r.cpu) / 1e3 / float64(r.commits())
	}
	return median(per)
}

func (r *runResult) allocsPerTxn() float64 { return float64(r.mallocs) / float64(r.commits()) }

// endToEndValues derives the end-to-end metrics from an untraced run.
func (r *runResult) endToEndValues(setup time.Duration) map[string]float64 {
	commits := float64(r.commits())
	fresh := 100.0
	if r.reads > 0 {
		fresh = 100 * (1 - float64(r.stale)/float64(r.reads))
	}
	return map[string]float64{
		"setup_s":           setup.Seconds(),
		"tps_site":          r.tpsSite(),
		"commit_pct":        100 * commits / float64(r.attempts()),
		"resp_ro_mid_ms":    r.roMid / 1e6,
		"resp_upd_mid_ms":   r.updMid / 1e6,
		"resp_worst1pct_ms": r.worst1p / 1e6,
		"fresh_read_pct":    fresh,
		"allocs_per_txn":    r.allocsPerTxn(),
		"kb_per_txn":        float64(r.bytes) / 1024 / commits,
		"cpu_us_per_txn":    r.cpuPerTxnUS(),
		"live_heap_mb":      float64(r.liveHeap) / (1 << 20),
	}
}

// clusterConfig builds the cluster configuration of a run; walDir is
// used only by WAL-backed workloads.
func clusterConfig(def workloadDef, opts runOpts, walDir string) cluster.Config {
	wl, params := def.inputs()
	cfg := cluster.Config{
		Workload: wl,
		Protocol: def.proto,
		Params:   params,
		Latency:  networkLatency,
		Record:   opts.record,
	}
	if def.wal {
		cfg.WALDir = walDir
		cfg.WALFlushInterval = walFlushInterval
	}
	return cfg
}

// clientSeed seeds the generator of (site, thread) from the run's seed
// the way Cluster.Run does from the workload's.
func clientSeed(seed int64, site, thread int) int64 {
	return seed + int64(site)*1000 + int64(thread) + 7
}

// isAbort reports whether err is a protocol abort, the one legitimate
// way an Execute can fail.
func isAbort(err error) bool { return errors.Is(err, txn.ErrAborted) }

// timeSetup builds a cluster as a run does, executes one transaction at
// site 0 and tears it down again, returning the time from before
// cluster.New to the return of that first Execute.
func timeSetup(def workloadDef, seed int64) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "replbenchmark-setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := clusterConfig(def, runOpts{}, dir)
	// Start every set-up from a collected heap: otherwise its time depends
	// on how much garbage the runs before it left and on whether a
	// collection happens to fall inside it.
	runtime.GC()
	start := time.Now()
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, err
	}
	c.Start()
	defer c.Stop()
	gen := workload.NewTxnGen(cfg.Workload, c.Placement, 0, clientSeed(seed, 0, 0))
	if err := c.Engine(0).Execute(gen.Next()); err != nil && !isAbort(err) {
		return 0, err
	}
	d := time.Since(start)
	if err := c.Quiesce(quiesceTimeout); err != nil {
		return 0, err
	}
	return d, nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOnce runs one workload once: build cluster, warm up, measure for
// opts.window, stop the clients, quiesce, check, stop.
func runOnce(def workloadDef, seed int64, opts runOpts) (*runResult, error) {
	dir, err := os.MkdirTemp("", "replbenchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := clusterConfig(def, opts, dir)
	res := &runResult{def: def}
	var rec *trace.Recorder
	var registry *obs.Registry
	if opts.traced {
		registry = obs.NewRegistry()
		cfg.Obs = registry
		cfg.TrackPropagation = true
	}

	// epoch is the zero of client-span times and, within the nanoseconds
	// between the two statements, of the recorder's event times.
	epoch := time.Now()
	if opts.traced {
		rec = trace.NewRecorder()
		cfg.Trace = rec
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()

	wl := cfg.Workload
	clients := make([]*client, 0, wl.Sites*wl.ThreadsPerSite)
	for s := 0; s < wl.Sites; s++ {
		for th := 0; th < wl.ThreadsPerSite; th++ {
			clients = append(clients, &client{
				site:   model.SiteID(s),
				thread: th,
				gen:    workload.NewTxnGen(wl, c.Placement, model.SiteID(s), clientSeed(seed, s, th)),
			})
		}
	}
	// Set-up ends when the first transaction has returned: anything the
	// program defers to first use is in it.
	if err := c.Engine(0).Execute(clients[0].gen.Next()); err != nil && !isAbort(err) {
		return nil, fmt.Errorf("first Execute: %w", err)
	}
	res.setup = time.Since(epoch)

	var (
		windowStart time.Time // set before resume is closed, read by clients after
		phase       atomic.Int32
		failures    atomic.Int64
		firstErr    atomic.Pointer[error]
		lastDone    atomic.Int64 // ns since epoch of the latest client return
		wg          sync.WaitGroup
	)
	// resume lets the clients pause between warm-up and window while the
	// main goroutine sizes their buffers; it is closed to release them.
	resume := make(chan struct{})
	paused := make(chan struct{}, len(clients)) // one token per client, so no send blocks

	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			seq := 0
			waited := false
			for {
				ph := phase.Load()
				if ph == phaseStop {
					lastDoneMax(&lastDone, int64(time.Since(epoch)))
					return
				}
				if ph == phaseMeasure && !waited {
					waited = true
					paused <- struct{}{}
					<-resume
				}
				ops := cl.gen.Next()
				readOnly := true
				for _, op := range ops {
					if op.Kind == model.OpWrite {
						readOnly = false
						break
					}
				}
				t0 := time.Now()
				err := c.Engine(cl.site).Execute(ops)
				t1 := time.Now()
				d := int64(t1.Sub(t0))
				aborted := err != nil
				if err != nil && !isAbort(err) {
					failures.Add(1)
					e := fmt.Errorf("site %d thread %d txn %d: %w", cl.site, cl.thread, seq, err)
					firstErr.CompareAndSwap(nil, &e)
				}
				// A transaction counts only if it ran entirely inside the
				// window (waited is set once the window has begun).
				if waited && phase.Load() == phaseMeasure {
					cl.sumNS += d
					switch {
					case err != nil && !isAbort(err): // counted in failures
					case aborted:
						cl.aborted++
					default:
						if readOnly {
							cl.ro = append(cl.ro, d)
						} else {
							cl.upd = append(cl.upd, d)
						}
						if i := int(t1.Sub(windowStart) / sliceLen); i < len(cl.commits) {
							cl.commits[i]++
						}
					}
					if opts.traced {
						cl.spans = append(cl.spans, span{
							Site: int(cl.site), Thread: cl.thread, Seq: seq,
							StartNS: int64(t0.Sub(epoch)), EndNS: int64(t1.Sub(epoch)),
							ReadOnly: readOnly, Aborted: aborted,
						})
					}
				} else if !waited {
					cl.warmTxns++
				}
				seq++
			}
		}(cl)
	}

	// A traced run keeps every event in memory, so both its phases also
	// end on an event count: a quarter of the budget for the warm-up, the
	// whole of it for the window.
	warmed := sleepOrEvents(opts.warm, rec, opts.maxEvents/4)
	phase.Store(phaseMeasure)
	for range clients {
		<-paused
	}
	// Every client is parked: size the sample buffers from the warm-up
	// rate so that appends inside the window do not allocate, and take
	// the "before" readings with nothing in flight from the clients.
	scale := 0.0 // no warm-up, no estimate: the buffers grow as needed
	if opts.warm > 0 {
		scale = 1.5*float64(opts.window)/float64(warmed) + 1
	}
	for _, cl := range clients {
		n := int(float64(cl.warmTxns)*scale) + 1024
		cl.ro = make([]int64, 0, n)
		cl.upd = make([]int64, 0, n)
		cl.commits = make([]int, opts.window/sliceLen)
		if opts.traced {
			cl.spans = make([]span, 0, n)
		}
	}
	runtime.GC()
	res.fresh0 = c.FreshSummary()
	res.registry0 = registry.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	windowStart = time.Now()
	close(resume)

	// Wait out the window slice by slice, reading the process's CPU time
	// at every slice boundary.
	cpuAt := []time.Duration{cpuTime()}
	windowEnds := windowStart.Add(opts.window)
	eventLimit := rec.Len() + opts.maxEvents
	for i := 1; ; i++ {
		boundary := windowStart.Add(time.Duration(i) * sliceLen)
		if boundary.After(windowEnds) {
			sleepOrEvents(time.Until(windowEnds), rec, eventLimit)
			break
		}
		sleepOrEvents(time.Until(boundary), rec, eventLimit)
		if rec != nil && rec.Len() >= eventLimit {
			break
		}
		cpuAt = append(cpuAt, cpuTime())
	}

	phase.Store(phaseStop)
	res.window = time.Since(windowStart)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	windowEnd := time.Now()
	res.fresh1 = c.FreshSummary()
	res.registry = registry.Snapshot()
	wg.Wait()
	quiesceErr := c.Quiesce(quiesceTimeout)
	res.drain = time.Since(epoch) - time.Duration(lastDone.Load())

	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.cpu = cpu1 - cpuAt[0]
	res.cpuAt = cpuAt
	res.sliceCommits = make([]int, opts.window/sliceLen)
	for _, cl := range clients {
		for i, n := range cl.commits {
			res.sliceCommits[i] += n
		}
	}
	res.reads = res.fresh1.Reads() - res.fresh0.Reads()
	res.stale = res.fresh1.ReadsStale - res.fresh0.ReadsStale
	res.failed = int(failures.Load())
	var ro, upd []int64
	for _, cl := range clients {
		ro = append(ro, cl.ro...)
		upd = append(upd, cl.upd...)
		res.aborted += cl.aborted
		res.sumNS += cl.sumNS
		res.spans = append(res.spans, cl.spans...)
		cl.ro, cl.upd, cl.spans = nil, nil, nil
	}
	res.nRO, res.nUpd = len(ro), len(upd)
	all := append(append(make([]int64, 0, len(ro)+len(upd)), ro...), upd...)
	slices.Sort(ro)
	slices.Sort(upd)
	slices.Sort(all)
	// A kind of transaction the workload does not have reads as all
	// transactions; measureEndToEnd marks the substitution in the output.
	if len(ro) == 0 {
		ro = all
	}
	if len(upd) == 0 {
		upd = all
	}
	res.roMid, res.updMid, res.worst1p = midMean(ro), midMean(upd), tailMean(all, p99)

	if e := firstErr.Load(); e != nil {
		return res, *e
	}
	if quiesceErr != nil {
		return res, quiesceErr
	}
	if def.proto.Propagates() {
		if err := c.CheckConvergence(); err != nil {
			return res, err
		}
	}
	if opts.record {
		if err := c.CheckSerializable(); err != nil {
			return res, err
		}
	}
	if res.commits() == 0 {
		return res, fmt.Errorf("no transaction committed in the window")
	}

	if opts.traced {
		res.fold = foldEvents(rec.Snapshot(), int64(windowStart.Sub(epoch)), int64(windowEnd.Sub(epoch)))
	}
	// Live heap: what the quiesced cluster still holds. The benchmark's
	// own samples are dead by now and go with the collection.
	runtime.GC()
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.liveHeap = ms2.HeapInuse

	c.Stop()
	stopped = true
	return res, nil
}

// sleepOrEvents sleeps for d, or, when rec is recording and limit is
// positive, until rec holds limit events if that comes first. It returns
// the time slept.
func sleepOrEvents(d time.Duration, rec *trace.Recorder, limit int) time.Duration {
	start := time.Now()
	if rec == nil || limit <= 0 {
		time.Sleep(d)
		return time.Since(start)
	}
	for time.Since(start) < d && rec.Len() < limit {
		time.Sleep(10 * time.Millisecond)
	}
	return time.Since(start)
}

// lastDoneMax raises *a to v if v is larger.
func lastDoneMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
