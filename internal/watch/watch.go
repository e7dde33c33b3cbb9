// Package watch is the staleness/liveness watchdog: an online monitor
// fed by the trace recorder's live sink and by probes the engines
// register, detecting the conditions a quiesced-run report can only
// confirm after the fact — a replica falling behind (unapplied commits
// aging out), a DAG(T) site whose epoch stops advancing while its
// siblings' do, an applier queue that holds depth without draining, and
// a BackEdge participant stuck in the prepared state awaiting a 2PC
// decision. Alerts are exported through the live obs registry, recorded
// as trace events, and trigger a bounded flight-recorder dump: the trace
// recorder's most recent events written as JSONL for offline replay.
//
// A nil *Watchdog (and the nil *Progress handles it hands out) is a
// valid no-op, costing instrumented paths one branch — the same
// discipline as the nil trace recorder and nil obs registry. The
// package deliberately sits outside the deterministic-replay lint scope
// (internal/core, internal/fault, internal/ts): it observes wall-clock
// liveness, so it reads wall clocks freely and never feeds back into
// protocol decisions.
package watch

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
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
	// StaleReplica means a forwarded secondary subtransaction has stayed
	// unapplied at its destination beyond StalenessDeadline.
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

// EpochStatus is a DAG(T) engine's answer to the epoch probe: its
// current epoch and the copy-graph parents it is currently blocked on
// (a parent whose timestamp-hold queue is empty while a sibling's is
// not — the §3.2.2 merge cannot advance past the silent edge).
type EpochStatus struct {
	Epoch   uint64
	Blocked []model.SiteID
}

// PendingStatus is a BackEdge engine's answer to the pending-2PC probe:
// how many subtransactions sit prepared awaiting a decision, and the
// oldest of them.
type PendingStatus struct {
	Count       int
	Oldest      model.TxnID
	OldestSince time.Time
}

// RecoveryStatus is a cluster's answer to the crash-recovery probe for
// one site: whether it is currently down (crashed, not yet rebuilt from
// its write-ahead log) and since when.
type RecoveryStatus struct {
	Down  bool
	Since time.Time
}

// Progress is a queue's liveness handle: engines Push on enqueue and
// Pop on dequeue; the watchdog flags depth held without pops. A nil
// *Progress is a valid no-op.
type Progress struct {
	site  model.SiteID
	name  string
	depth atomic.Int64
	pops  atomic.Uint64
}

// Push notes one element entering the queue.
func (p *Progress) Push() {
	if p != nil {
		p.depth.Add(1)
	}
}

// Pop notes one element leaving the queue.
func (p *Progress) Pop() {
	if p != nil {
		p.depth.Add(-1)
		p.pops.Add(1)
	}
}

// Depth returns the current queue depth.
func (p *Progress) Depth() int64 {
	if p == nil {
		return 0
	}
	return p.depth.Load()
}

// Options tune the watchdog. Zero fields take the defaults.
type Options struct {
	// StalenessDeadline is the maximum age of a forwarded-but-unapplied
	// secondary subtransaction before StaleReplica fires.
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

// queueSample is the watchdog's per-queue memory between ticks.
type queueSample struct {
	pops  uint64
	since time.Time
}

// Watchdog is the monitor. Construct with New, wire with SetObs /
// SetTrace / the engine-side Register* and Queue calls, feed with
// Ingest (typically via trace.Recorder.AddSink), then Start.
type Watchdog struct {
	opts Options

	mu       sync.Mutex
	reg      *obs.Registry                          // repl:guardedby(mu)
	tr       *trace.Recorder                        // repl:guardedby(mu)
	obs      watchObs                               // repl:guardedby(mu)
	queues   []*Progress                            // repl:guardedby(mu)
	qs       map[*Progress]queueSample              // repl:guardedby(mu)
	epochs   map[model.SiteID]func() EpochStatus    // repl:guardedby(mu)
	epochAt  map[model.SiteID]queueSample           // pops field reused as the epoch // repl:guardedby(mu)
	pending  map[model.SiteID]func() PendingStatus  // repl:guardedby(mu)
	recovery map[model.SiteID]func() RecoveryStatus // repl:guardedby(mu)

	// inflight tracks forwarded-but-unapplied secondary subtransactions,
	// fed from the trace sink.
	inflight *Inflight // repl:guardedby(mu)

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
		qs:          make(map[*Progress]queueSample),
		epochs:      make(map[model.SiteID]func() EpochStatus),
		epochAt:     make(map[model.SiteID]queueSample),
		pending:     make(map[model.SiteID]func() PendingStatus),
		recovery:    make(map[model.SiteID]func() RecoveryStatus),
		inflight:    NewInflight(),
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

// Queue returns a liveness handle for the named queue at site; the
// watchdog flags it when it holds depth without popping. On a nil
// watchdog the returned handle is nil (and therefore a no-op).
func (w *Watchdog) Queue(site model.SiteID, name string) *Progress {
	if w == nil {
		return nil
	}
	p := &Progress{site: site, name: name}
	w.mu.Lock()
	w.queues = append(w.queues, p)
	w.mu.Unlock()
	return p
}

// RegisterEpoch installs a DAG(T) site's epoch probe.
func (w *Watchdog) RegisterEpoch(site model.SiteID, probe func() EpochStatus) {
	if w == nil || probe == nil {
		return
	}
	w.mu.Lock()
	w.epochs[site] = probe
	w.mu.Unlock()
}

// RegisterPending installs a BackEdge site's pending-2PC probe.
func (w *Watchdog) RegisterPending(site model.SiteID, probe func() PendingStatus) {
	if w == nil || probe == nil {
		return
	}
	w.mu.Lock()
	w.pending[site] = probe
	w.mu.Unlock()
}

// RegisterRecovery installs a site's crash-recovery probe: the watchdog
// flags a site that stays down past StallDeadline — a recovery that hung
// replaying its log, or a crash the harness forgot to restart.
func (w *Watchdog) RegisterRecovery(site model.SiteID, probe func() RecoveryStatus) {
	if w == nil || probe == nil {
		return
	}
	w.mu.Lock()
	w.recovery[site] = probe
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

// Ingest consumes one live trace event: it maintains the
// forwarded-but-unapplied bookkeeping behind the staleness alert and the
// contention tallies. Install it as the recorder's sink:
// rec.AddSink(w.Ingest). Safe for concurrent use.
func (w *Watchdog) Ingest(ev trace.Event) {
	if w == nil {
		return
	}
	now := time.Now()
	w.mu.Lock()
	w.inflight.Observe(ev, now)
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
	now := time.Now()
	w.mu.Lock()
	want := make(map[alertKey]*Alert)

	// Staleness: oldest forwarded-but-unapplied secondary per replica.
	// A drained replica reports N == 0 and age 0, resetting its gauges.
	for site, p := range w.inflight.Sites() {
		var age time.Duration
		if p.N > 0 {
			age = now.Sub(p.Since)
		}
		if age > w.maxStale {
			w.maxStale = age
		}
		if age > w.staleBySite[site] {
			w.staleBySite[site] = age
		}
		if p.N > 0 && age > w.opts.StalenessDeadline {
			k := alertKey{kind: StaleReplica, site: site, peer: p.From}
			want[k] = &Alert{
				Kind: StaleReplica, Site: site, Peer: p.From, TID: p.TID, Age: age,
				Detail: fmt.Sprintf("%d unapplied, oldest %v", p.N, p.TID),
			}
		}
		if w.reg != nil {
			lag := obs.Label{Key: "site", Value: fmt.Sprint(site)}
			w.reg.Gauge("repl_watch_version_lag", lag).Set(int64(p.N))
			w.reg.Gauge("repl_watch_oldest_unapplied_ms", lag).Set(age.Milliseconds())
		}
	}

	// Per-edge in-flight depth, derived from the same bookkeeping.
	if w.reg != nil {
		for e, p := range w.inflight.Edges() {
			w.reg.Gauge("repl_watch_edge_inflight",
				obs.Label{Key: "from", Value: fmt.Sprint(e.From)},
				obs.Label{Key: "to", Value: fmt.Sprint(e.To)}).Set(int64(p.N))
		}
	}

	// Epoch progress: a site is stalled when its epoch has not moved
	// for StallDeadline while the cluster-wide maximum has —
	// distinguishing a partitioned edge from a globally idle cluster.
	var maxEpoch uint64
	stats := make(map[model.SiteID]EpochStatus, len(w.epochs))
	for site, probe := range w.epochs {
		st := probe()
		stats[site] = st
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
		s, ok := w.epochAt[site]
		if !ok || s.pops != st.Epoch {
			w.epochAt[site] = queueSample{pops: st.Epoch, since: now}
		}
	}
	for site, st := range stats {
		s := w.epochAt[site]
		if st.Epoch >= maxEpoch || now.Sub(s.since) <= w.opts.StallDeadline {
			continue
		}
		peer := model.NoSite
		if len(st.Blocked) > 0 {
			peer = st.Blocked[0]
		}
		k := alertKey{kind: EpochStall, site: site, peer: peer}
		want[k] = &Alert{
			Kind: EpochStall, Site: site, Peer: peer, Age: now.Sub(s.since),
			Detail: fmt.Sprintf("epoch %d, cluster max %d, blocked on %v", st.Epoch, maxEpoch, st.Blocked),
		}
	}

	// Queue progress: depth held with no pops for StallDeadline.
	for _, p := range w.queues {
		depth, pops := p.depth.Load(), p.pops.Load()
		s, ok := w.qs[p]
		if !ok || s.pops != pops || depth == 0 {
			w.qs[p] = queueSample{pops: pops, since: now}
			continue
		}
		if age := now.Sub(s.since); age > w.opts.StallDeadline {
			k := alertKey{kind: QueueStall, site: p.site, peer: model.NoSite, name: p.name}
			want[k] = &Alert{
				Kind: QueueStall, Site: p.site, Peer: model.NoSite, Age: age,
				Detail: fmt.Sprintf("queue %q depth %d undrained", p.name, depth),
			}
		}
	}

	// Pending 2PC participants.
	for site, probe := range w.pending {
		st := probe()
		if st.Count == 0 || st.OldestSince.IsZero() {
			continue
		}
		age := now.Sub(st.OldestSince)
		if age > w.opts.PendingDeadline {
			k := alertKey{kind: PendingTwoPC, site: site, peer: st.Oldest.Site}
			want[k] = &Alert{
				Kind: PendingTwoPC, Site: site, Peer: st.Oldest.Site, TID: st.Oldest, Age: age,
				Detail: fmt.Sprintf("%d prepared, oldest %v", st.Count, st.Oldest),
			}
		}
	}

	// Crashed sites that have stayed down suspiciously long.
	for site, probe := range w.recovery {
		st := probe()
		if !st.Down || st.Since.IsZero() {
			continue
		}
		if age := now.Sub(st.Since); age > w.opts.StallDeadline {
			k := alertKey{kind: RecoveryStall, site: site, peer: model.NoSite}
			want[k] = &Alert{
				Kind: RecoveryStall, Site: site, Peer: model.NoSite, Age: age,
				Detail: fmt.Sprintf("site down %v without completing recovery", age.Round(time.Millisecond)),
			}
		}
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
