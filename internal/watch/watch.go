// Package watch is the staleness/liveness watchdog: an online monitor
// fed by the trace recorder's live sink and by one probe of the sites'
// current engines, detecting the conditions a quiesced-run report can only
// confirm after the fact — a replica falling behind (unconsumed forwards
// aging out), a DAG(T) site whose epoch stops advancing while its
// siblings' do, an applier queue that holds depth without draining, and
// a BackEdge participant stuck in the prepared state awaiting a 2PC
// decision. Alerts are exported through the live obs registry, recorded
// as trace events, and trigger a bounded flight-recorder dump: the trace
// recorder's most recent events written as JSONL for offline replay.
//
// A nil *Watchdog is a valid no-op — the same discipline as the nil
// trace recorder and nil obs registry. The package deliberately sits
// outside the deterministic-replay lint scope (internal/core,
// internal/fault, internal/ts): it observes wall-clock liveness, so it
// reads wall clocks freely and never feeds back into protocol decisions.
package watch

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// lockWaitRing bounds the recent lock_wait samples the contention check
// computes its p99 over; small enough to sort every tick, large enough
// that one quiet burst cannot wash out a hot tail.
const lockWaitRing = 4096

// contentionMinSamples gates the checks so a handful of early samples
// cannot fire an alert: the p99 needs this many lock waits, the abort
// rate this many finished transactions.
const contentionMinSamples = 32

// Contention thresholds. lockWaitP99 sits just under the paper's 50 ms
// lock timeout: a p99 there means the tail of lock waits is being
// resolved by the timeout, not by grants.
const (
	lockWaitP99  = 45 * time.Millisecond
	abortRatePct = 50.0
)

// flightSize caps a flight dump: the recorder's newest events.
const flightSize = 4096

// Kind enumerates the alert taxonomy.
type Kind uint8

const (
	// StaleReplica means a forward has stayed open — not consumed by its
	// destination (trace.Open) — beyond StalenessDeadline.
	StaleReplica Kind = iota + 1
	// EpochStall means a DAG(T) site's epoch stopped advancing beyond
	// StallDeadline while the cluster-wide maximum kept moving.
	EpochStall
	// QueueStall means an engine queue held depth without a single pop
	// for longer than StallDeadline.
	QueueStall
	// PendingTwoPC means a BackEdge participant has been prepared —
	// holding locks, awaiting the coordinator's decision — beyond
	// PendingDeadline.
	PendingTwoPC
	// RecoveryStall means a crashed site has been down — torn down but
	// not yet rebuilt from its write-ahead log — beyond StallDeadline.
	RecoveryStall
	// Contention means the cluster crossed a contention threshold: the
	// live lock_wait p99 exceeded 45 ms, or the abort rate exceeded 50 %.
	// Raising it triggers a wait-for graph dump when a
	// wait-graph probe is registered (docs/OBSERVABILITY.md, contention
	// observatory).
	Contention
)

func (k Kind) String() string {
	switch k {
	case StaleReplica:
		return "stale_replica"
	case EpochStall:
		return "epoch_stall"
	case QueueStall:
		return "queue_stall"
	case PendingTwoPC:
		return "pending_2pc"
	case RecoveryStall:
		return "recovery_stall"
	case Contention:
		return "contention"
	default:
		return fmt.Sprintf("watch.Kind(%d)", uint8(k))
	}
}

// Alert is one raised watchdog condition. Site is the afflicted site;
// Peer the implicated counterpart (the forwarder whose update is stuck,
// the parent whose edge went quiet) or model.NoSite; TID the oldest
// implicated transaction or zero.
type Alert struct {
	Kind   Kind          `json:"kind"`
	Site   model.SiteID  `json:"site"`
	Peer   model.SiteID  `json:"peer"`
	TID    model.TxnID   `json:"tid"`
	Detail string        `json:"detail,omitempty"`
	Age    time.Duration `json:"age"`
	Raised time.Time     `json:"raised"`
	// Cleared is zero while the condition persists.
	Cleared time.Time `json:"cleared,omitempty"`
}

// Status is one site's engine state as the watchdog and core.Quiescent
// sample it. The engine reads it from its own queue, protocol state and
// counter bank at every call, so it describes whichever incarnation of
// the site is current.
type Status struct {
	Site model.SiteID
	// Down reports a stopped engine: crashed and not yet rebuilt from its
	// write-ahead log, or shut down.
	Down bool
	// Queue names the engine's ordering queue ("fifo", "ts", "reads"), or
	// is empty when it has none; Depth is the queue's length and Pops the
	// number of items it has released.
	Queue string
	Depth int
	Pops  uint64
	// Epoch is a DAG(T) site's epoch, and Blocked the copy-graph parents
	// whose empty queue holds up the §3.2.2 timestamp merge while a
	// sibling's queue has work. Both are zero under the other protocols.
	Epoch   uint64
	Blocked []model.SiteID
	// Prepared counts the BackEdge participant records in the executed or
	// prepared state: subtransactions holding their locks awaiting a 2PC
	// decision. Oldest is the longest-waiting of them, its record made at
	// OldestSince. Parked counts origins parked on their backedge round
	// trip (the "eager" queue), which the watchdog does not watch.
	Prepared    int
	Oldest      model.TxnID
	OldestSince time.Time
	Parked      int
	// Unsettled counts the BackEdge participant records that hold a
	// transaction, from its execution until the record is forgotten: the
	// Prepared ones plus those committed or aborted whose install or
	// discard is still landing. An abort tombstone counts in neither.
	Unsettled int
	// Forwarded and Consumed are the site's cumulative counts of
	// propagation messages shipped and of receipts consumed, each settling
	// one shipped message, read from its counter bank (which a run's
	// metrics collector keeps across the site's incarnations). Summed over
	// all sites they are equal exactly when no forward is open
	// (core.Quiescent).
	Forwarded uint64
	Consumed  uint64
}

// Options tune the watchdog. Zero fields take the defaults.
type Options struct {
	// StalenessDeadline is the maximum age of an open forward before
	// StaleReplica fires.
	StalenessDeadline time.Duration
	// StallDeadline bounds epoch and queue quiet periods.
	StallDeadline time.Duration
	// PendingDeadline is the maximum age of a prepared 2PC participant
	// before PendingTwoPC fires.
	PendingDeadline time.Duration
	// Tick is the evaluation period.
	Tick time.Duration
	// FlightDir, when non-empty, is where alert-triggered dumps are
	// written as JSONL; empty disables dumping.
	FlightDir string
	// MaxDumps caps dumps per run so a flapping alert cannot fill a disk.
	MaxDumps int
}

// DefaultOptions returns deadlines suited to the in-process simulation,
// where healthy propagation completes in single-digit milliseconds.
func DefaultOptions() Options {
	return Options{
		StalenessDeadline: 250 * time.Millisecond,
		StallDeadline:     200 * time.Millisecond,
		PendingDeadline:   250 * time.Millisecond,
		Tick:              25 * time.Millisecond,
		MaxDumps:          3,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.StalenessDeadline <= 0 {
		o.StalenessDeadline = d.StalenessDeadline
	}
	if o.StallDeadline <= 0 {
		o.StallDeadline = d.StallDeadline
	}
	if o.PendingDeadline <= 0 {
		o.PendingDeadline = d.PendingDeadline
	}
	if o.Tick <= 0 {
		o.Tick = d.Tick
	}
	if o.MaxDumps <= 0 {
		o.MaxDumps = d.MaxDumps
	}
	return o
}

// watchObs holds the watchdog's pre-resolved live-metric handles.
type watchObs struct {
	active *obs.Gauge   // repl_watch_alerts_active
	dumps  *obs.Counter // repl_watch_flight_dumps_total
}

// alertKey identifies a condition across ticks so it raises once and
// clears once.
type alertKey struct {
	kind Kind
	site model.SiteID
	peer model.SiteID
	name string
}

// siteSample is the watchdog's memory of one site between ticks: the
// queue's pop count and since when it has held depth without popping,
// the epoch and since when it has not moved, and since when the site has
// been down (zero while it is up).
type siteSample struct {
	pops       uint64
	popsSince  time.Time
	epoch      uint64
	epochSince time.Time
	down       time.Time
}

// Watchdog is the monitor. Construct with New, wire with SetObs /
// SetTrace / SetProbe, feed with Ingest (typically via
// trace.Recorder.AddSink), then Start.
type Watchdog struct {
	opts Options
	// epoch is the zero of the stamps open holds: monotonic nanoseconds
	// since New.
	epoch time.Time

	mu    sync.Mutex
	reg   *obs.Registry               // repl:guardedby(mu)
	tr    *trace.Recorder             // repl:guardedby(mu)
	obs   watchObs                    // repl:guardedby(mu)
	probe func() []Status             // repl:guardedby(mu)
	sites map[model.SiteID]siteSample // repl:guardedby(mu)

	// open is the forwarded-but-unconsumed fold behind the staleness
	// alert, fed from the trace sink with the hops between two local
	// sites: the sites the probe reports. edges remembers every edge
	// that has held an open forward at a tick, so its in-flight gauge
	// falls back to zero once it drains.
	open  *trace.Open                  // repl:guardedby(mu)
	local map[model.SiteID]bool        // repl:guardedby(mu)
	edges map[[2]model.SiteID]struct{} // repl:guardedby(mu)

	// Contention watch state: a ring of recent lock_wait durations (fed
	// from PhaseLatency events) and the cumulative commit/abort tally,
	// compared against lockWaitP99 / abortRatePct each tick.
	lockWaits   [lockWaitRing]time.Duration    // repl:guardedby(mu)
	lockWaitIdx int                            // repl:guardedby(mu)
	lockWaitN   int                            // repl:guardedby(mu)
	commits     uint64                         // repl:guardedby(mu)
	aborts      uint64                         // repl:guardedby(mu)
	waitGraphs  func() []contend.SiteWaitGraph // repl:guardedby(mu)
	waitDumps   []string                       // repl:guardedby(mu)

	active   map[alertKey]*Alert // repl:guardedby(mu)
	history  []*Alert            // repl:guardedby(mu)
	dumps    []string            // repl:guardedby(mu)
	raised   map[Kind]int        // repl:guardedby(mu)
	maxStale time.Duration       // repl:guardedby(mu)
	// staleBySite keeps the worst unapplied age per replica, so the
	// summary can say WHICH replica went stale, not just that one did.
	staleBySite map[model.SiteID]time.Duration // repl:guardedby(mu)

	stop chan struct{}
	done chan struct{}
}

// New returns a stopped watchdog.
//
//lint:allow guardedby construction is single-threaded; the tick loop and trace sink that share this state only run after Start
func New(o Options) *Watchdog {
	w := &Watchdog{
		opts:        o.withDefaults(),
		epoch:       time.Now(),
		sites:       make(map[model.SiteID]siteSample),
		open:        trace.NewOpen(),
		local:       make(map[model.SiteID]bool),
		edges:       make(map[[2]model.SiteID]struct{}),
		active:      make(map[alertKey]*Alert),
		raised:      make(map[Kind]int),
		staleBySite: make(map[model.SiteID]time.Duration),
	}
	return w
}

// SetObs installs the live registry alert series are exported to; call
// before Start.
func (w *Watchdog) SetObs(r *obs.Registry) {
	if w == nil || r == nil {
		return
	}
	w.mu.Lock()
	w.reg = r
	w.obs = watchObs{
		active: r.Gauge("repl_watch_alerts_active"),
		dumps:  r.Counter("repl_watch_flight_dumps_total"),
	}
	w.mu.Unlock()
}

// SetTrace installs the recorder WatchAlert/WatchClear events are
// written to and flight dumps are cut from; call before Start.
func (w *Watchdog) SetTrace(tr *trace.Recorder) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
}

// SetProbe installs the probe every tick samples: the status of each
// site's current engine (Status), down sites included. Its owner
// supplies it — a cluster reads every site, a node its one engine — so a
// crashed site's dead engine is never sampled. The sites it reports now
// are the local ones: the staleness alert folds only forwards between
// two of them, since a forward into another process is consumed where
// this watchdog cannot see it. The watchdog calls the probe outside its
// own lock: engines record trace events into Ingest while holding the
// locks the probe takes. Call before Start and before traffic flows.
func (w *Watchdog) SetProbe(probe func() []Status) {
	if w == nil {
		return
	}
	local := make(map[model.SiteID]bool)
	for _, st := range probe() {
		local[st.Site] = true
	}
	w.mu.Lock()
	w.probe, w.local = probe, local
	w.mu.Unlock()
}

// RegisterWaitGraphs installs the cluster's wait-for snapshot probe.
// When a Contention alert is raised the watchdog calls it (outside its
// own lock) and writes the snapshot as a waitfor-*.jsonl dump next to
// the flight recorder, so the post-mortem has the who-waits-on-whom
// state from the moment the threshold was crossed.
func (w *Watchdog) RegisterWaitGraphs(probe func() []contend.SiteWaitGraph) {
	if w == nil || probe == nil {
		return
	}
	w.mu.Lock()
	w.waitGraphs = probe
	w.mu.Unlock()
}

// Ingest consumes one live trace event: it folds the forwards and
// consumptions between local sites behind the staleness alert, and keeps
// the contention tallies. Install it as the recorder's sink:
// rec.AddSink(w.Ingest). Safe for concurrent use.
func (w *Watchdog) Ingest(ev trace.Event) {
	if w == nil {
		return
	}
	now := time.Now()
	w.mu.Lock()
	if w.local[ev.Site] && w.local[ev.Peer] {
		w.open.Observe(ev, int64(now.Sub(w.epoch)))
	}
	switch ev.Kind {
	case trace.TxnAbort:
		w.aborts++
	case trace.TxnCommit:
		w.commits++
	case trace.PhaseLatency:
		if ev.Phase == lockWaitPhase {
			w.lockWaits[w.lockWaitIdx] = time.Duration(ev.Dur)
			w.lockWaitIdx = (w.lockWaitIdx + 1) % lockWaitRing
			if w.lockWaitN < lockWaitRing {
				w.lockWaitN++
			}
		}
	}
	w.mu.Unlock()
}

// lockWaitPhase is the PhaseLatency tag the contention check watches.
var lockWaitPhase = metrics.PhaseLockWait.String()

// Start launches the evaluation loop.
func (w *Watchdog) Start() {
	if w == nil || w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.loop()
}

// Stop terminates the evaluation loop after one final evaluation (so a
// condition that arose just before shutdown is still reported).
func (w *Watchdog) Stop() {
	if w == nil || w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.stop = nil
}

func (w *Watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.Tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.tick()
		case <-w.stop:
			w.tick()
			return
		}
	}
}

// tick evaluates every condition once. It computes under w.mu but
// records trace events and writes dumps after releasing it: the
// recorder's sink is w.Ingest, so recording under w.mu would deadlock.
func (w *Watchdog) tick() {
	w.mu.Lock()
	probe := w.probe
	w.mu.Unlock()
	var sts []Status
	if probe != nil {
		sts = probe()
	}
	now := time.Now()
	w.mu.Lock()
	want := make(map[alertKey]*Alert)

	// Staleness: per local replica, its open forwards and the oldest of
	// them. A drained replica reports 0 and age 0, resetting its gauges.
	type backlog struct {
		n      int
		oldest trace.Hop
		since  int64
	}
	into := make(map[model.SiteID]backlog)
	along := make(map[[2]model.SiteID]int64)
	w.open.Each(func(h trace.Hop, since int64) {
		along[[2]model.SiteID{h.From, h.To}]++
		b := into[h.To]
		if b.n++; b.n == 1 || since < b.since {
			b.oldest, b.since = h, since
		}
		into[h.To] = b
	})
	for e := range along {
		w.edges[e] = struct{}{}
	}
	for site := range w.local {
		b := into[site]
		var age time.Duration
		if b.n > 0 {
			age = now.Sub(w.epoch.Add(time.Duration(b.since)))
		}
		w.maxStale = max(w.maxStale, age)
		if age > w.staleBySite[site] {
			w.staleBySite[site] = age
		}
		if b.n > 0 && age > w.opts.StalenessDeadline {
			k := alertKey{kind: StaleReplica, site: site, peer: b.oldest.From}
			want[k] = &Alert{
				Kind: StaleReplica, Site: site, Peer: b.oldest.From, TID: b.oldest.TID, Age: age,
				Detail: fmt.Sprintf("%d forwards unconsumed, oldest %v", b.n, b.oldest.TID),
			}
		}
		if w.reg != nil {
			lag := obs.Label{Key: "site", Value: fmt.Sprint(site)}
			w.reg.Gauge("repl_watch_version_lag", lag).Set(int64(b.n))
			w.reg.Gauge("repl_watch_oldest_unapplied_ms", lag).Set(age.Milliseconds())
		}
	}

	// Per-edge in-flight depth, from the same fold.
	if w.reg != nil {
		for e := range w.edges {
			w.reg.Gauge("repl_watch_edge_inflight",
				obs.Label{Key: "from", Value: fmt.Sprint(e[0])},
				obs.Label{Key: "to", Value: fmt.Sprint(e[1])}).Set(along[e])
		}
	}

	// Per-site liveness. A site is epoch-stalled when its epoch has not
	// moved for StallDeadline while the cluster-wide maximum has —
	// distinguishing a partitioned edge from a globally idle cluster.
	var maxEpoch uint64
	for _, st := range sts {
		if !st.Down && st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	for _, st := range sts {
		w.checkSiteLocked(st, now, maxEpoch, want)
	}

	// Contention thresholds: the lock_wait p99 over the recent ring, and
	// the cumulative abort rate. Site-less — the thresholds are cluster
	// conditions; the dump that follows says where the waiting is.
	if w.lockWaitN >= contentionMinSamples {
		p99 := metrics.Percentile(w.lockWaits[:w.lockWaitN], 0.99)
		if p99 > lockWaitP99 {
			k := alertKey{kind: Contention, site: model.NoSite, peer: model.NoSite, name: "lock_wait_p99"}
			want[k] = &Alert{
				Kind: Contention, Site: model.NoSite, Peer: model.NoSite,
				Detail: fmt.Sprintf("lock_wait p99 %v over %d recent samples (threshold %v)",
					p99.Round(time.Microsecond), w.lockWaitN, lockWaitP99),
			}
		}
	}
	if done := w.commits + w.aborts; done >= contentionMinSamples {
		rate := 100 * float64(w.aborts) / float64(done)
		if rate > abortRatePct {
			k := alertKey{kind: Contention, site: model.NoSite, peer: model.NoSite, name: "abort_rate"}
			want[k] = &Alert{
				Kind: Contention, Site: model.NoSite, Peer: model.NoSite,
				Detail: fmt.Sprintf("abort rate %.1f%% (%d of %d, threshold %.1f%%)",
					rate, w.aborts, done, abortRatePct),
			}
		}
	}

	// Diff against the active set.
	var newly, cleared []*Alert
	for k, a := range want {
		if cur, ok := w.active[k]; ok {
			cur.Age = a.Age
			continue
		}
		a.Raised = now
		w.active[k] = a
		w.history = append(w.history, a)
		w.raised[a.Kind]++
		if w.reg != nil {
			w.reg.Counter("repl_watch_alerts_total",
				obs.Label{Key: "kind", Value: a.Kind.String()}).Inc()
		}
		newly = append(newly, a)
	}
	for k, a := range w.active {
		if _, ok := want[k]; !ok {
			a.Cleared = now
			delete(w.active, k)
			cleared = append(cleared, a)
		}
	}
	w.obs.active.Set(int64(len(w.active)))

	// Dump slots are reserved under the lock and filled after it is
	// released: cutting the recorder's tail sorts the whole trace, and the
	// wait-for probe reaches into the engines' lock managers.
	tr := w.tr
	flightSlot, waitSlot := -1, -1
	if len(newly) > 0 && tr != nil && w.opts.FlightDir != "" && len(w.dumps) < w.opts.MaxDumps {
		flightSlot = len(w.dumps)
		w.dumps = append(w.dumps, "")
	}
	// A newly raised Contention alert additionally snapshots the wait-for
	// graphs.
	var waitProbe func() []contend.SiteWaitGraph
	for _, a := range newly {
		if a.Kind == Contention && w.waitGraphs != nil &&
			w.opts.FlightDir != "" && len(w.waitDumps) < w.opts.MaxDumps {
			waitProbe = w.waitGraphs
			waitSlot = len(w.waitDumps)
			w.waitDumps = append(w.waitDumps, "")
			break
		}
	}
	w.mu.Unlock()

	if flightSlot >= 0 {
		events := tr.Snapshot()
		events = events[max(0, len(events)-flightSize):]
		name := fmt.Sprintf("flight-%03d-%s.jsonl", flightSlot+1, newly[0].Kind)
		path := w.writeDump(name, func(f io.Writer) error { return trace.WriteJSONL(f, events) })
		w.mu.Lock()
		w.dumps[flightSlot] = path
		w.mu.Unlock()
	}
	for _, a := range newly {
		tr.Record(trace.WatchAlert, a.Site, a.Peer, a.TID, 0)
	}
	for _, a := range cleared {
		tr.Record(trace.WatchClear, a.Site, a.Peer, a.TID, 0)
	}
	if waitProbe != nil {
		gs := waitProbe()
		name := fmt.Sprintf("waitfor-%03d.jsonl", waitSlot+1)
		path := w.writeDump(name, func(f io.Writer) error { return contend.WriteWaitGraphs(f, gs) })
		w.mu.Lock()
		w.waitDumps[waitSlot] = path
		w.mu.Unlock()
	}
}

// checkSiteLocked samples one site's status into want: a site down past
// StallDeadline (a recovery that hung replaying its log, or a crash
// nobody restarted), a queue that held depth without a pop, an epoch
// left behind, and the oldest prepared 2PC participant. A down site's
// samples are forgotten, so its rebuilt engine is judged afresh.
func (w *Watchdog) checkSiteLocked(st Status, now time.Time, maxEpoch uint64, want map[alertKey]*Alert) {
	s, ok := w.sites[st.Site]
	if st.Down {
		if !ok || s.down.IsZero() {
			s = siteSample{down: now}
		}
		w.sites[st.Site] = siteSample{down: s.down}
		if age := now.Sub(s.down); age > w.opts.StallDeadline {
			k := alertKey{kind: RecoveryStall, site: st.Site, peer: model.NoSite}
			want[k] = &Alert{
				Kind: RecoveryStall, Site: st.Site, Peer: model.NoSite, Age: age,
				Detail: fmt.Sprintf("site down %v without completing recovery", age.Round(time.Millisecond)),
			}
		}
		return
	}
	if !ok || !s.down.IsZero() {
		s = siteSample{pops: st.Pops, popsSince: now, epoch: st.Epoch, epochSince: now}
	}
	if s.pops != st.Pops || st.Depth == 0 {
		s.pops, s.popsSince = st.Pops, now
	} else if age := now.Sub(s.popsSince); age > w.opts.StallDeadline {
		k := alertKey{kind: QueueStall, site: st.Site, peer: model.NoSite, name: st.Queue}
		want[k] = &Alert{
			Kind: QueueStall, Site: st.Site, Peer: model.NoSite, Age: age,
			Detail: fmt.Sprintf("queue %q depth %d undrained", st.Queue, st.Depth),
		}
	}
	if s.epoch != st.Epoch {
		s.epoch, s.epochSince = st.Epoch, now
	} else if age := now.Sub(s.epochSince); st.Epoch < maxEpoch && age > w.opts.StallDeadline {
		peer := model.NoSite
		if len(st.Blocked) > 0 {
			peer = st.Blocked[0]
		}
		k := alertKey{kind: EpochStall, site: st.Site, peer: peer}
		want[k] = &Alert{
			Kind: EpochStall, Site: st.Site, Peer: peer, Age: age,
			Detail: fmt.Sprintf("epoch %d, cluster max %d, blocked on %v", st.Epoch, maxEpoch, st.Blocked),
		}
	}
	w.sites[st.Site] = s
	if st.Prepared > 0 && !st.OldestSince.IsZero() {
		if age := now.Sub(st.OldestSince); age > w.opts.PendingDeadline {
			k := alertKey{kind: PendingTwoPC, site: st.Site, peer: st.Oldest.Site}
			want[k] = &Alert{
				Kind: PendingTwoPC, Site: st.Site, Peer: st.Oldest.Site, TID: st.Oldest, Age: age,
				Detail: fmt.Sprintf("%d prepared, oldest %v", st.Prepared, st.Oldest),
			}
		}
	}
}

// writeDump writes one dump file into FlightDir and counts it. It
// returns the file's path, or "" when the write failed.
func (w *Watchdog) writeDump(name string, write func(io.Writer) error) string {
	path := filepath.Join(w.opts.FlightDir, name)
	if err := os.MkdirAll(w.opts.FlightDir, 0o755); err != nil {
		return ""
	}
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	if err := write(f); err != nil {
		f.Close()
		return ""
	}
	if err := f.Close(); err != nil {
		return ""
	}
	w.mu.Lock()
	w.obs.dumps.Inc()
	w.mu.Unlock()
	return path
}

// Active returns the currently-raised alerts, sorted for stable output.
func (w *Watchdog) Active() []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	out := make([]Alert, 0, len(w.active))
	for _, a := range w.active {
		out = append(out, *a)
	}
	w.mu.Unlock()
	sortAlerts(out)
	return out
}

// History returns every alert raised so far, cleared ones included, in
// raise order.
func (w *Watchdog) History() []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	out := make([]Alert, len(w.history))
	for i, a := range w.history {
		out[i] = *a
	}
	w.mu.Unlock()
	return out
}

// Dumps returns the flight-recorder dump paths written so far.
func (w *Watchdog) Dumps() []string {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, p := range w.dumps {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func sortAlerts(a []Alert) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].Kind != a[j].Kind {
			return a[i].Kind < a[j].Kind
		}
		if a[i].Site != a[j].Site {
			return a[i].Site < a[j].Site
		}
		return a[i].Peer < a[j].Peer
	})
}

// Summary condenses a run's watchdog activity for machine-readable
// benchmark output.
type Summary struct {
	// AlertsRaised counts raised alerts by kind name.
	AlertsRaised map[string]int `json:"alerts_raised,omitempty"`
	// ActiveAlerts is the number of alerts still raised.
	ActiveAlerts int `json:"active_alerts"`
	// MaxStalenessMs is the worst forwarded-but-unapplied age observed.
	MaxStalenessMs int64 `json:"max_staleness_ms"`
	// MaxStalenessBySiteMs breaks MaxStalenessMs down per replica: the
	// worst unapplied age each site accumulated. MaxStalenessMs stays for
	// compatibility (it equals this map's maximum).
	MaxStalenessBySiteMs map[model.SiteID]int64 `json:"max_staleness_by_site_ms,omitempty"`
	// FlightDumps lists the flight-recorder dumps written.
	FlightDumps []string `json:"flight_dumps,omitempty"`
	// WaitGraphDumps lists the wait-for snapshots written on Contention
	// alerts.
	WaitGraphDumps []string `json:"waitfor_dumps,omitempty"`
}

// Summarize returns the run-so-far summary.
func (w *Watchdog) Summarize() Summary {
	if w == nil {
		return Summary{}
	}
	w.mu.Lock()
	s := Summary{
		ActiveAlerts:   len(w.active),
		MaxStalenessMs: w.maxStale.Milliseconds(),
	}
	if len(w.staleBySite) > 0 {
		s.MaxStalenessBySiteMs = make(map[model.SiteID]int64, len(w.staleBySite))
		for site, d := range w.staleBySite {
			s.MaxStalenessBySiteMs[site] = d.Milliseconds()
		}
	}
	if len(w.raised) > 0 {
		s.AlertsRaised = make(map[string]int, len(w.raised))
		for k, n := range w.raised {
			s.AlertsRaised[k.String()] = n
		}
	}
	for _, p := range w.dumps {
		if p != "" {
			s.FlightDumps = append(s.FlightDumps, p)
		}
	}
	for _, p := range w.waitDumps {
		if p != "" {
			s.WaitGraphDumps = append(s.WaitGraphDumps, p)
		}
	}
	w.mu.Unlock()
	return s
}
