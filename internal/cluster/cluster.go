// Package cluster assembles a complete replicated database: it generates
// (or accepts) a data placement, derives its core.Topology, builds one site
// per site ID over an in-process transport (OpenSite, which one-site
// processes use too), runs the client threads of §5.2, and exposes the
// correctness checks (global serializability, replica convergence) and
// the §5.3 performance report.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fresh"
	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/watch"
	"repro/internal/workload"
)

// Config describes one experiment run.
type Config struct {
	Workload workload.Config
	Protocol core.Protocol
	Params   core.Params
	// Latency is the one-way network latency between any two sites
	// (Table 1 default: the 0.15 ms the paper measured on its ethernet).
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per message;
	// per-pair FIFO delivery is preserved.
	Jitter time.Duration
	// GeneralTree selects the bushy tree construction for DAG(WT) and
	// BackEdge instead of the chain the prototype used (§5.1).
	GeneralTree bool
	// MinimizeBackedges computes the backedge set with the §4.2 weighted
	// feedback-arc-set heuristic instead of taking the edges that point
	// backwards in site-ID order, minimizing how many item updates must
	// propagate eagerly. It implies GeneralTree (the chain is tied to the
	// ID order).
	MinimizeBackedges bool
	// Record enables the serializability recorder (adds overhead; tests
	// use it, benchmarks usually do not).
	Record bool
	// TrackPropagation enables propagation-delay measurement (E7).
	TrackPropagation bool
	// Placement overrides workload-based generation when non-nil (used by
	// the examples, which lay data out by hand).
	Placement *model.Placement
	// Trace, when non-nil, receives every engine's propagation lifecycle
	// events (tracing adds one branch per event site when nil).
	Trace *trace.Recorder
	// Obs, when non-nil, is the live metrics registry: engines register
	// per-site counters and queue-depth gauges, and the transport reports
	// per-edge message/byte/latency series into it.
	Obs *obs.Registry
	// Fault, when non-nil, interposes a fault-injection layer over the
	// in-process transport: seeded random drops/duplications/delays plus
	// scripted partitions and site crashes (see internal/fault). New
	// rejects random drops or duplicates without Reliable: the engines
	// assume the §1.1 network, which delivers every message exactly once.
	// A message a partition drops is lost for good without Reliable too.
	// New also rejects Fault without WALDir: a site that can crash needs a
	// disk to recover from, so every crash loses the site's heap.
	Fault *fault.Config
	// Reliable runs the exactly-once FIFO delivery sublayer (comm.Reliable)
	// on top of the (possibly faulty) transport, restoring the network
	// contract the protocols assume.
	Reliable bool
	// Watch, when non-nil, runs the staleness/liveness watchdog
	// (internal/watch): each tick samples every site's current engine
	// (its Status — queue, epoch, prepared participants, or down after a
	// crash), the trace recorder's live sink feeds it, and alerts land in
	// Obs plus optional flight-recorder dumps. Requires Trace (the
	// watchdog observes the event stream); New rejects Watch without it.
	Watch *watch.Options
	// WALDir, when non-empty, gives every site a per-site write-ahead
	// redo log under WALDir/site-NN (internal/wal): commits become
	// log-then-mutate, and — when Fault is also set — site crashes tear
	// the engine down (fence the log, wipe the heap) and restarts rebuild
	// it from disk: snapshot load, redo replay, and decision inquiry for
	// in-doubt 2PC participants.
	WALDir string
	// Deprecated: WALFlushInterval is ignored; the log's group commit
	// needs no window (see wal.SiteLog.Sync).
	WALFlushInterval time.Duration
}

// Cluster is a running replicated database over m in-process sites.
type Cluster struct {
	Cfg Config
	// Topology is the run's propagation structure, shared by every site:
	// its Placement, Backedges, DAG and Tree read as the cluster's own.
	*core.Topology
	Recorder *history.Recorder
	Metrics  *metrics.Collector

	transport *comm.MemTransport
	fresh     *fresh.Tracker   // always non-nil, fed by every site's txn manager: one sharded-lock sample per install and stale read
	faultTr   *fault.Transport // non-nil iff Cfg.Fault was set
	top       comm.Transport   // the layer engines actually send through
	watchdog  *watch.Watchdog  // non-nil iff Cfg.Watch was set

	// sites is the site table, never changed in place: client threads
	// fetch their engine from it per transaction without a lock, and
	// restartSite swaps in a copy that holds the rebuilt site.
	sites atomic.Pointer[[]site]

	// lcMu orders a site's rebuild with Stop's closing of the logs, so no
	// rebuilt log is left open; restartSite swaps the site table under it.
	lcMu sync.Mutex

	mu      sync.Mutex
	failure error // first non-abort Execute error // repl:guardedby(mu)
}

// site is one running site: its engine and the redo log it was built on
// (nil without Config.WALDir). A crash-restart replaces the whole value.
type site struct {
	engine core.Engine
	log    *wal.SiteLog
}

// New builds (but does not start) a cluster.
func New(cfg Config) (*Cluster, error) {
	if f := cfg.Fault; f != nil && (f.Faults.Drop > 0 || f.Faults.Duplicate > 0) && !cfg.Reliable {
		return nil, fmt.Errorf("cluster: fault drops and duplicates need Reliable: the engines assume exactly-once delivery (§1.1)")
	}
	if cfg.Fault != nil && cfg.WALDir == "" {
		return nil, fmt.Errorf("cluster: Fault needs WALDir: a crashed site recovers from its redo log")
	}
	if cfg.Watch != nil && cfg.Trace == nil {
		return nil, fmt.Errorf("cluster: Watch requires Trace (the watchdog feeds on the live event stream)")
	}
	placement := cfg.Placement
	if placement == nil {
		var err error
		placement, err = cfg.Workload.GeneratePlacement()
		if err != nil {
			return nil, err
		}
	} else {
		// Manual layout: the workload dimensions follow the placement.
		cfg.Workload.Sites = placement.NumSites
		cfg.Workload.Items = placement.NumItems
		if err := cfg.Workload.ValidateRun(); err != nil {
			return nil, err
		}
	}
	topo, err := core.NewTopology(cfg.Protocol, placement, cfg.Params,
		core.Shape{GeneralTree: cfg.GeneralTree, MinimizeBackedges: cfg.MinimizeBackedges})
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Cfg:       cfg,
		Topology:  topo,
		Metrics:   metrics.NewCollector(cfg.TrackPropagation),
		transport: comm.NewMemTransport(cfg.Latency),
	}
	if cfg.Jitter > 0 {
		c.transport.SetJitter(cfg.Jitter)
	}
	if cfg.Record {
		c.Recorder = history.NewRecorder()
	}
	if cfg.Obs != nil {
		c.transport.SetStats(obs.NewCommStats(cfg.Obs))
		cfg.Obs.Gauge("repl_protocol_info",
			obs.Label{Key: "protocol", Value: cfg.Protocol.String()}).Set(1)
	}

	// Assemble the transport stack bottom-up: memory, then fault injection,
	// then the reliable-delivery sublayer that hides the faults from the
	// engines — engine → Reliable → fault → MemTransport.
	c.top = c.transport
	if cfg.Fault != nil {
		// Crashes tear the site down (fence + halt) and restarts rebuild
		// it from its log. Both hooks run with the site's delivery gate
		// write-held.
		ft, err := fault.New(c.top, *cfg.Fault, fault.Lifecycle{OnCrash: c.crashSite, OnRestart: c.restartSite})
		if err != nil {
			return nil, err
		}
		if cfg.Obs != nil {
			ft.SetObs(cfg.Obs)
		}
		if cfg.Trace != nil {
			ft.SetTrace(cfg.Trace)
		}
		c.faultTr = ft
		c.top = ft
	}
	if cfg.Reliable {
		rel := comm.NewReliable(c.top, comm.ReliableConfig{})
		if cfg.Obs != nil {
			rel.SetStats(obs.NewReliableStats(cfg.Obs))
		}
		if cfg.Trace != nil {
			rel.SetTrace(cfg.Trace)
		}
		c.top = rel
	}

	if cfg.Watch != nil {
		c.watchdog = watch.New(*cfg.Watch)
		c.watchdog.SetObs(cfg.Obs)
		c.watchdog.SetTrace(cfg.Trace)
		cfg.Trace.AddSink(c.watchdog.Ingest)
	}

	// The freshness observatory is always on (docs/OBSERVABILITY.md):
	// unlike the opt-in trace/obs planes its state is bounded by
	// items×replicas and its hot-path cost is one sharded-lock sample, so
	// every run — including benchmark/ workloads — gets staleness
	// distributions and read certificates without extra configuration.
	c.fresh = fresh.New(placement.NumSites)

	sites := make([]site, placement.NumSites)
	for s := range sites {
		e, lg, err := c.openSite(model.SiteID(s))
		if err != nil {
			closeLogs(sites[:s])
			_ = c.top.Close()
			return nil, err
		}
		sites[s] = site{e, lg}
	}
	c.sites.Store(&sites)

	// The watchdog's probes fetch engines per call, so they sample the
	// rebuilt engine after a crash-restart swap: its liveness statuses,
	// and the wait-for snapshot it dumps alongside its flight recording
	// when a Contention alert fires (docs/OBSERVABILITY.md).
	if c.watchdog != nil {
		c.watchdog.SetProbe(c.statuses)
		c.watchdog.RegisterWaitGraphs(c.WaitGraphs)
	}
	return c, nil
}

// OpenSite builds site id's engine for proto over topo and tr. With a
// non-empty walDir it first opens the site's redo log under
// walDir/site-NN, recovering whatever an earlier incarnation left there,
// and returns it beside the engine: the caller closes it once the engine
// has stopped. Without walDir the log is nil and the site runs without
// durability. The cluster builds and rebuilds every site here, and a
// process that runs one site builds its own.
func OpenSite(proto core.Protocol, topo *core.Topology, id model.SiteID, walDir string, sinks core.Sinks, tr comm.Transport) (core.Engine, *wal.SiteLog, error) {
	s := core.Site{ID: id, Sinks: sinks}
	if walDir != "" {
		lg, err := wal.Open(filepath.Join(walDir, fmt.Sprintf("site-%02d", id)), wal.Options{
			Site: id, Items: topo.Placement.CopiesAt(id), Obs: sinks.Obs, Trace: sinks.Trace,
		})
		if err != nil {
			return nil, nil, err
		}
		s.Log = lg
	}
	e, err := core.New(proto, topo, s, tr)
	if err != nil && s.Log != nil {
		_ = s.Log.Close()
	}
	return e, s.Log, err
}

// openSite builds (or, after a crash, rebuilds) site id of this cluster.
func (c *Cluster) openSite(id model.SiteID) (core.Engine, *wal.SiteLog, error) {
	sinks := core.Sinks{Recorder: c.Recorder, Metrics: c.Metrics, Trace: c.Cfg.Trace, Obs: c.Cfg.Obs, Fresh: c.fresh}
	return OpenSite(c.Cfg.Protocol, c.Topology, id, c.Cfg.WALDir, sinks, c.top)
}

// crashSite is the fault layer's OnCrash hook: fence the redo log (un-
// fsynced appends are honestly lost, every later append fails) and halt
// the engine. Runs with the site's delivery gate write-held, so no
// delivery is mid-handler — everything acknowledged is on disk.
func (c *Cluster) crashSite(id model.SiteID) {
	s := c.site(id)
	s.log.Fence()
	s.engine.Stop()
}

// restartSite is the fault layer's OnRestart hook: close the crashed
// site's log and build a new site from it — reopening the log replays
// snapshot + redo records into a fresh state, and the engine constructor
// preloads the store, restores in-doubt 2PC participants, re-forwards
// unmarked propagation obligations, and re-enqueues unconsumed receipts.
// Registering the new engine replaces the dead one's handler. The
// cluster's one reliable sublayer is the only protocol state a restart
// keeps: its ARQ sessions survive, so retransmissions of everything
// unacknowledged flow into the rebuilt site.
func (c *Cluster) restartSite(id model.SiteID) {
	//lint:allow nodeterminism start only times the recovery for the WALRecover trace duration; replay does not consume it
	start := time.Now()
	c.lcMu.Lock()
	defer c.lcMu.Unlock()
	_ = c.site(id).log.Close() // fenced: flushes nothing, releases the files
	eng, lg, err := c.openSite(id)
	if err != nil {
		c.fail(fmt.Errorf("cluster: rebuilding s%d: %w", id, err))
		return
	}
	sites := slices.Clone(*c.sites.Load())
	sites[id] = site{eng, lg}
	c.sites.Store(&sites)
	eng.Start()
	//lint:allow nodeterminism the recovery duration is observability payload, not protocol state
	dur := time.Since(start)
	c.Cfg.Trace.Add(trace.Event{Kind: trace.WALRecover, Site: id, Peer: model.NoSite,
		Proto: uint8(c.Cfg.Protocol), Dur: int64(dur)})
}

// statuses reads every site's current engine, for the watchdog and for
// Quiesce. A site torn down by a crash reports Down until its rebuilt
// engine is swapped in.
func (c *Cluster) statuses() []watch.Status {
	out := make([]watch.Status, c.Placement.NumSites)
	for s := range out {
		out[s] = c.engine(model.SiteID(s)).Status()
	}
	return out
}

// site returns site s as it currently runs — after a crash-restart
// cycle, the rebuilt one.
func (c *Cluster) site(s model.SiteID) site { return (*c.sites.Load())[s] }

// engine returns site s's current engine.
func (c *Cluster) engine(s model.SiteID) core.Engine { return c.site(s).engine }

// Engine returns the protocol engine of site s (the current one — after
// a crash-restart cycle, the engine rebuilt from the site's WAL).
func (c *Cluster) Engine(s model.SiteID) core.Engine { return c.engine(s) }

// Transport returns the in-process transport (tests use it to skew edge
// latencies).
func (c *Cluster) Transport() *comm.MemTransport { return c.transport }

// Fault returns the fault-injection layer, or nil when Config.Fault was
// not set. Tests and the chaos harness use it to cut partitions, crash
// sites, and play schedules mid-run.
func (c *Cluster) Fault() *fault.Transport { return c.faultTr }

// Watch returns the staleness/liveness watchdog, or nil when
// Config.Watch was not set.
func (c *Cluster) Watch() *watch.Watchdog { return c.watchdog }

// FreshSummary returns the current staleness and read-certificate
// distributions, per site plus totals.
func (c *Cluster) FreshSummary() *fresh.Summary { return c.fresh.Summarize() }

// Start launches every engine's background workers and the watchdog.
func (c *Cluster) Start() {
	for _, s := range *c.sites.Load() {
		s.engine.Start()
	}
	c.fresh.StartProbe(0)
	c.watchdog.Start()
}

// Stop shuts the watchdog, engines and transport down (closing the top
// of the transport stack closes every layer beneath it), then closes the
// redo logs (a fenced log closes as a no-op). The watchdog goes first,
// so its final evaluation sees the engines still running.
func (c *Cluster) Stop() {
	c.watchdog.Stop()
	for _, s := range *c.sites.Load() {
		s.engine.Stop()
	}
	c.fresh.StopProbe()
	_ = c.top.Close()
	c.lcMu.Lock()
	closeLogs(*c.sites.Load())
	c.lcMu.Unlock()
}

// closeLogs closes the redo logs of sites.
func closeLogs(sites []site) {
	for _, s := range sites {
		if s.log != nil {
			_ = s.log.Close()
		}
	}
}

// Run drives the §5.2 client threads to completion and returns the
// performance report. The measured interval covers thread execution only
// (not the quiesce drain), matching the paper's primary-subtransaction
// throughput metric.
func (c *Cluster) Run() (metrics.Report, error) {
	wl := c.Cfg.Workload
	var wg sync.WaitGroup
	c.Metrics.Begin()
	for s := 0; s < wl.Sites; s++ {
		for th := 0; th < wl.ThreadsPerSite; th++ {
			wg.Add(1)
			seed := wl.ClientSeed(model.SiteID(s), th)
			go func(site model.SiteID, seed int64) {
				defer wg.Done()
				gen := workload.NewTxnGen(wl, c.Placement, site, seed)
				for i := 0; i < wl.TxnsPerThread; i++ {
					ops := gen.Next()
					// A transaction refused because its site is mid-crash
					// (fenced redo log) is resubmitted — to the rebuilt
					// engine once the restart lands — like a client
					// reconnecting after a server bounce. Bounded so a
					// schedule that never restarts the site cannot hang
					// the run.
					//lint:allow nodeterminism the deadline only bounds how long a client retries into a crashed site; timing out fails the run rather than changing its schedule
					deadline := time.Now().Add(60 * time.Second)
					for {
						err := c.engine(site).Execute(ops)
						//lint:allow nodeterminism same retry bound: the clock gates giving up, not protocol ordering
						if err != nil && errors.Is(err, wal.ErrFenced) && time.Now().Before(deadline) {
							time.Sleep(5 * time.Millisecond)
							continue
						}
						if err != nil && !errors.Is(err, txn.ErrAborted) {
							c.fail(err)
							return
						}
						break
					}
				}
			}(model.SiteID(s), seed)
		}
	}
	wg.Wait()
	c.Metrics.End()
	c.mu.Lock()
	err := c.failure
	c.mu.Unlock()
	return c.Metrics.Snapshot(wl.Sites), err
}

func (c *Cluster) fail(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.mu.Unlock()
}

// quiescePoll is how often Quiesce re-reads the sites.
const quiescePoll = time.Millisecond

// Quiesce waits, once the client threads have returned, until no
// propagation is in flight — core.Quiescent over two successive reads of
// every site's current engine — or the timeout expires. It polls on the
// caller's goroutine, so a call that times out leaves nothing behind.
func (c *Cluster) Quiesce(timeout time.Duration) error {
	//lint:allow nodeterminism the deadline only bounds the wait; what the run did is fixed before Quiesce is called
	deadline := time.Now().Add(timeout)
	for {
		first := c.statuses()
		if core.Quiescent(first, c.statuses()) {
			return nil
		}
		//lint:allow nodeterminism same bound: the clock decides when to give up, not what quiescence is
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: propagation did not quiesce within %v", timeout)
		}
		time.Sleep(quiescePoll)
	}
}

// CheckSerializable verifies that the recorded execution has an acyclic
// conflict graph over logical transactions. Requires Config.Record.
func (c *Cluster) CheckSerializable() error {
	if c.Recorder == nil {
		return fmt.Errorf("cluster: serializability recording was not enabled")
	}
	return c.Recorder.CheckSerializable()
}

// CheckConvergence verifies, on a quiesced cluster, that every replica
// equals its primary copy. Only meaningful for propagating protocols
// (PSL leaves replicas stale by design).
func (c *Cluster) CheckConvergence() error {
	if !c.Cfg.Protocol.Propagates() {
		return fmt.Errorf("cluster: %v does not propagate updates; convergence is undefined", c.Cfg.Protocol)
	}
	// The site count never changes, and storeSnapshot locks per site to
	// fetch whatever engine is current.
	n := c.Placement.NumSites
	snaps := make([]map[model.ItemID]int64, n)
	for s := 0; s < n; s++ {
		snaps[s] = c.storeSnapshot(model.SiteID(s))
	}
	for item := 0; item < c.Placement.NumItems; item++ {
		primary := c.Placement.Primary[item]
		want := snaps[primary][model.ItemID(item)]
		for _, r := range c.Placement.ReplicaSites(model.ItemID(item)) {
			if got := snaps[r][model.ItemID(item)]; got != want {
				return fmt.Errorf("cluster: item %d diverged: primary s%d=%d, replica s%d=%d",
					item, primary, want, r, got)
			}
		}
	}
	return nil
}

// contender is the contention-observatory surface every engine exposes
// through its embedded base (internal/contend).
type contender interface {
	LockHeat() []lock.ItemStats
	LockWaitGraph() []lock.WaitEdge
	AbortReasons() map[string]uint64
}

// contenders visits every site's current engine in site order.
func (c *Cluster) contenders(visit func(model.SiteID, contender)) {
	for s := 0; s < c.Placement.NumSites; s++ {
		visit(model.SiteID(s), c.engine(model.SiteID(s)).(contender))
	}
}

// SiteHeat returns every site's per-item lock contention accounting,
// site-ordered — the input to contend.BuildHeat.
func (c *Cluster) SiteHeat() []contend.SiteHeat {
	var out []contend.SiteHeat
	c.contenders(func(s model.SiteID, e contender) {
		out = append(out, contend.SiteHeat{Site: s, Items: e.LockHeat()})
	})
	return out
}

// AbortReasons sums every site's abort root-cause breakdown (reason name
// → count, zero counts omitted), read from the engines' counter banks.
func (c *Cluster) AbortReasons() map[string]uint64 {
	out := make(map[string]uint64)
	c.contenders(func(_ model.SiteID, e contender) {
		for r, n := range e.AbortReasons() {
			out[r] += n
		}
	})
	return out
}

// Heat merges every site's accounting into the cluster's top-k item heat
// table, hottest first (k <= 0 unbounded).
func (c *Cluster) Heat(k int) []contend.HeatEntry {
	return contend.BuildHeat(c.SiteHeat(), k)
}

// WaitGraphs snapshots every site's current lock wait-for state,
// site-ordered. Sites with no queued waiter contribute an empty edge
// list.
func (c *Cluster) WaitGraphs() []contend.SiteWaitGraph {
	var out []contend.SiteWaitGraph
	c.contenders(func(s model.SiteID, e contender) {
		out = append(out, contend.SiteWaitGraph{Site: s, Edges: e.LockWaitGraph()})
	})
	return out
}

func (c *Cluster) storeSnapshot(s model.SiteID) map[model.ItemID]int64 {
	type snapshotter interface {
		Snapshot() map[model.ItemID]int64
	}
	if sn, ok := c.engine(s).(snapshotter); ok {
		return sn.Snapshot()
	}
	panic("cluster: engine does not expose Snapshot")
}
