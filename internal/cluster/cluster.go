// Package cluster assembles a complete replicated database: it generates
// (or accepts) a data placement, derives the copy graph, the backedge set
// and the propagation tree, instantiates one protocol engine per site over
// an in-process transport, runs the client threads of §5.2, and exposes
// the correctness checks (global serializability, replica convergence)
// and the §5.3 performance report.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fresh"
	"repro/internal/graph"
	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/telemetry"
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
	// scripted partitions and site crashes (see internal/fault). Unless the
	// faults are pure delays, combine with Reliable — the engines assume
	// the §1.1 reliable-FIFO network, and a dropped message otherwise
	// stalls quiescing forever.
	Fault *fault.Config
	// Reliable runs the exactly-once FIFO delivery sublayer (comm.Reliable)
	// on top of the (possibly faulty) transport, restoring the network
	// contract the protocols assume.
	Reliable bool
	// ReliableCfg tunes the sublayer when Reliable is set; the zero value
	// uses the defaults (20 ms initial RTO).
	ReliableCfg comm.ReliableConfig
	// Watch, when non-nil, runs the staleness/liveness watchdog
	// (internal/watch): engines register epoch/pending probes and queue
	// handles, the trace recorder's live sink feeds it, and alerts land
	// in Obs plus optional flight-recorder dumps. Requires Trace (the
	// watchdog observes the event stream); New rejects Watch without it.
	Watch *watch.Options
	// Telemetry, when non-nil, runs a telemetry publisher streaming this
	// cluster's registry deltas, span events, phase quantiles, and
	// watchdog alerts to an aggregator (internal/telemetry): the cluster
	// fills in the Obs/Watch/report wiring and hosted-site announcement.
	// Requires Trace (span events ride the live sink); New rejects
	// Telemetry without it.
	Telemetry *telemetry.Options
	// WALDir, when non-empty, gives every site a per-site write-ahead
	// redo log under WALDir/site-NN (internal/wal): commits become
	// log-then-mutate, and — when Fault is also set — site crashes tear
	// the engine down for real (fence the log, wipe the heap) and
	// restarts rebuild it from disk: snapshot load, redo replay, and
	// decision inquiry for in-doubt 2PC participants. Empty keeps the
	// legacy in-memory fail-recover mode, where a crashed site's state
	// survives the outage untouched.
	WALDir string
	// WALFlushInterval is the group-commit window (see wal.Options);
	// zero leaves single-fsync-per-Sync behaviour.
	WALFlushInterval time.Duration
}

// Cluster is a running replicated database over m in-process sites.
type Cluster struct {
	Cfg       Config
	Placement *model.Placement
	Graph     *graph.CopyGraph
	Backedges []graph.Edge
	Tree      *graph.Tree
	Recorder  *history.Recorder
	Metrics   *metrics.Collector

	transport *comm.MemTransport
	fresh     *fresh.Tracker       // always non-nil: bounded state, one sharded-lock sample per commit/apply/read
	faultTr   *fault.Transport     // non-nil iff Cfg.Fault was set
	top       comm.Transport       // the layer engines actually send through
	watchdog  *watch.Watchdog      // non-nil iff Cfg.Watch was set
	publisher *telemetry.Publisher // non-nil iff Cfg.Telemetry was set
	shared    *core.SharedConfig
	pending   sync.WaitGroup

	// engMu guards engines: restartSite swaps in a rebuilt engine while
	// client threads fetch theirs per transaction.
	engMu   sync.RWMutex
	engines []core.Engine // repl:guardedby(engMu)

	// lcMu serializes crash/restart lifecycle transitions and guards the
	// wals map they rewrite (the fault layer already excludes deliveries
	// per site; this excludes concurrent transitions of different sites).
	lcMu sync.Mutex
	wals map[model.SiteID]*wal.SiteLog // non-nil iff Cfg.WALDir was set // repl:guardedby(lcMu)

	mu        sync.Mutex
	failure   error                      // first non-abort Execute error // repl:guardedby(mu)
	downSince map[model.SiteID]time.Time // sites torn down, awaiting restart // repl:guardedby(mu)
}

// New builds (but does not start) a cluster.
//
//lint:allow guardedby construction is single-threaded; the fault hooks and client threads that contend for engines and wals only run after New returns and Start spawns the sites
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
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
	g := graph.FromPlacement(placement)
	m := placement.NumSites

	// The total order over sites is the ID order (the workload generator
	// lays data out with respect to it); edges pointing backwards in it
	// form the backedge set B, and removing them yields the DAG. With
	// MinimizeBackedges, B instead comes from the §4.2 weighted
	// feedback-arc-set heuristic, which cuts fewer (and lighter) edges.
	order := make([]model.SiteID, m)
	for i := range order {
		order[i] = model.SiteID(i)
	}
	var backs []graph.Edge
	if cfg.MinimizeBackedges {
		cfg.GeneralTree = true // the chain is meaningful only for ID order
		backs = graph.MinWeightBackedges(g)
	} else {
		backs = graph.OrderBackedges(g, order)
	}
	gdag := g.Without(backs)
	if !gdag.IsDAG() {
		return nil, fmt.Errorf("cluster: internal error: graph minus backedges is not a DAG")
	}
	switch cfg.Protocol {
	case core.DAGWT, core.DAGT:
		if len(backs) > 0 {
			return nil, fmt.Errorf("cluster: %v requires an acyclic copy graph but the placement induces %d backedges; use BackEdge or set BackedgeProb=0",
				cfg.Protocol, len(backs))
		}
	}

	var tree *graph.Tree
	if cfg.GeneralTree {
		var err error
		tree, err = graph.BuildTree(gdag)
		if err != nil {
			return nil, err
		}
	} else {
		tree = graph.BuildChain(order)
	}
	if e := graph.CheckAncestorProperty(gdag, tree); e != nil {
		return nil, fmt.Errorf("cluster: propagation tree violates the ancestor property on edge %v", *e)
	}
	// BackEdge routing additionally requires every backedge target to be a
	// tree ancestor of the origin (guaranteed for minimal backedge sets,
	// §4.1; always true for the chain).
	if cfg.Protocol == core.BackEdge {
		for _, e := range backs {
			if !tree.IsAncestor(e.To, e.From) {
				return nil, fmt.Errorf("cluster: backedge %v target is not a tree ancestor of its origin", e)
			}
		}
	}

	backSet := make(map[graph.Edge]bool, len(backs))
	for _, e := range backs {
		backSet[e] = true
	}

	c := &Cluster{
		Cfg:       cfg,
		Placement: placement,
		Graph:     g,
		Backedges: backs,
		Tree:      tree,
		Metrics:   metrics.NewCollector(cfg.TrackPropagation),
		transport: comm.NewMemTransport(cfg.Latency),
		downSince: make(map[model.SiteID]time.Time),
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
		ft, err := fault.New(c.top, *cfg.Fault)
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
		rel := comm.NewReliable(c.top, cfg.ReliableCfg)
		if cfg.Obs != nil {
			rel.SetStats(obs.NewReliableStats(cfg.Obs))
		}
		if cfg.Trace != nil {
			rel.SetTrace(cfg.Trace)
		}
		c.top = rel
	}

	if cfg.Watch != nil {
		if cfg.Trace == nil {
			return nil, fmt.Errorf("cluster: Watch requires Trace (the watchdog feeds on the live event stream)")
		}
		c.watchdog = watch.New(*cfg.Watch)
		c.watchdog.SetObs(cfg.Obs)
		c.watchdog.SetTrace(cfg.Trace)
		cfg.Trace.AddSink(c.watchdog.Ingest)
	}

	if cfg.Telemetry != nil {
		if cfg.Trace == nil {
			return nil, fmt.Errorf("cluster: Telemetry requires Trace (span events ride the live sink)")
		}
		pub, err := telemetry.NewPublisher(*cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		pub.SetObs(cfg.Obs)
		pub.SetWatch(c.watchdog)
		pub.SetReport(func() metrics.Report { return c.Metrics.Snapshot(m) })
		sites := make([]model.SiteID, m)
		for s := range sites {
			sites[s] = model.SiteID(s)
		}
		pub.Announce(cfg.Protocol.String(), sites)
		cfg.Trace.AddSink(pub.Ingest)
		c.publisher = pub
	}

	// The freshness observatory is always on (docs/OBSERVABILITY.md):
	// unlike the opt-in trace/obs planes its state is bounded by
	// items×replicas and its hot-path cost is one sharded-lock sample, so
	// every run — including benchmark/ workloads — gets staleness
	// distributions and read certificates without extra configuration.
	c.fresh = fresh.New(m)

	shared := &core.SharedConfig{
		Placement:    placement,
		Graph:        gdag, // engines see the DAG; backedges are handled eagerly
		Order:        order,
		Tree:         tree,
		SubtreeItems: graph.SubtreeCopyItems(tree, placement),
		Backedges:    backSet,
		Params:       cfg.Params,
		Recorder:     c.Recorder,
		Metrics:      c.Metrics,
		Trace:        cfg.Trace,
		Obs:          cfg.Obs,
		Watch:        c.watchdog,
		Fresh:        c.fresh,
		Pending:      &c.pending,
	}
	c.shared = shared

	if cfg.WALDir != "" {
		c.wals = make(map[model.SiteID]*wal.SiteLog, m)
		for s := 0; s < m; s++ {
			lg, err := c.openWAL(model.SiteID(s))
			if err != nil {
				return nil, err
			}
			c.wals[model.SiteID(s)] = lg
		}
		shared.WALs = c.wals
		if c.faultTr != nil {
			// Honest crashes: tear the site down (fence + halt) and
			// rebuild it from its log on restart. Both hooks run with the
			// site's delivery gate write-held.
			c.faultTr.SetLifecycle(fault.Lifecycle{
				OnCrash:   c.crashSite,
				OnRestart: c.restartSite,
			})
		}
		if c.watchdog != nil {
			for s := 0; s < m; s++ {
				site := model.SiteID(s)
				c.watchdog.RegisterRecovery(site, func() watch.RecoveryStatus {
					return c.recoveryStatus(site)
				})
			}
		}
	}

	c.engines = make([]core.Engine, m)
	for s := 0; s < m; s++ {
		e, err := core.New(cfg.Protocol, shared, model.SiteID(s), c.top)
		if err != nil {
			return nil, err
		}
		c.engines[s] = e
	}

	// Contention observatory wiring (docs/OBSERVABILITY.md): the watchdog
	// dumps a wait-for snapshot alongside its flight recording when a
	// Contention alert fires, and the publisher ships the heat table and
	// abort breakdown every cycle. Both probes fetch engines lazily, so
	// they keep working across crash-restart swaps.
	if c.watchdog != nil {
		c.watchdog.RegisterWaitGraphs(c.WaitGraphs)
	}
	if c.publisher != nil {
		c.publisher.SetContention(
			func() []contend.HeatEntry { return c.Heat(procHeatK) },
			c.AbortReasons,
		)
		c.publisher.SetFresh(c.FreshSummary)
	}
	return c, nil
}

// procHeatK bounds the heat table each publish cycle ships. Wider than
// the 10 rows repltop shows: the aggregator merges tables across
// processes, and a too-narrow per-process cut would bias the merge.
const procHeatK = 32

// openWAL opens (or re-opens, after a crash) site s's redo log.
func (c *Cluster) openWAL(s model.SiteID) (*wal.SiteLog, error) {
	return wal.Open(filepath.Join(c.Cfg.WALDir, fmt.Sprintf("site-%02d", s)), wal.Options{
		Site:          s,
		FlushInterval: c.Cfg.WALFlushInterval,
		Items:         c.Placement.CopiesAt(s),
		Obs:           c.Cfg.Obs,
		Trace:         c.Cfg.Trace,
	})
}

// crashSite is the fault layer's OnCrash hook: fence the redo log (un-
// fsynced appends are honestly lost, every later append fails) and halt
// the engine. Runs with the site's delivery gate write-held, so no
// delivery is mid-handler — everything acknowledged is on disk.
func (c *Cluster) crashSite(site model.SiteID) {
	c.mu.Lock()
	//lint:allow nodeterminism downSince only feeds the recovery-status gauge a human reads; it never orders protocol events
	c.downSince[site] = time.Now()
	c.mu.Unlock()
	c.lcMu.Lock()
	defer c.lcMu.Unlock()
	c.wals[site].Fence()
	c.engine(site).Stop()
}

// restartSite is the fault layer's OnRestart hook: re-open the site's
// log (recovery replays snapshot + redo records into a fresh state), and
// build a fresh engine over it — the constructor preloads the store,
// restores in-doubt 2PC participants, re-forwards unmarked propagation
// obligations, and re-enqueues unconsumed receipts. Registering the new
// engine replaces the dead one's handler; the reliable sublayer's ARQ
// state survives, so retransmissions of everything unacknowledged flow
// into the rebuilt site.
func (c *Cluster) restartSite(site model.SiteID) {
	//lint:allow nodeterminism start only times the recovery for the WALRecover trace duration; replay does not consume it
	start := time.Now()
	c.lcMu.Lock()
	_ = c.wals[site].Close() // fenced: flushes nothing, releases the files
	lg, err := c.openWAL(site)
	if err != nil {
		c.lcMu.Unlock()
		c.fail(fmt.Errorf("cluster: reopening WAL of s%d: %w", site, err))
		return
	}
	c.wals[site] = lg
	eng, err := core.New(c.Cfg.Protocol, c.shared, site, c.top)
	c.lcMu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("cluster: rebuilding s%d: %w", site, err))
		return
	}
	c.engMu.Lock()
	c.engines[site] = eng
	c.engMu.Unlock()
	eng.Start()
	c.mu.Lock()
	delete(c.downSince, site)
	c.mu.Unlock()
	//lint:allow nodeterminism the recovery duration is observability payload, not protocol state
	dur := time.Since(start)
	c.Cfg.Trace.RecordDur(trace.WALRecover, site, model.NoSite, model.TxnID{},
		uint8(c.Cfg.Protocol), dur)
}

func (c *Cluster) recoveryStatus(site model.SiteID) watch.RecoveryStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, down := c.downSince[site]
	return watch.RecoveryStatus{Down: down, Since: t}
}

// engine returns site s's current engine — after a crash-restart cycle,
// the rebuilt one.
func (c *Cluster) engine(s model.SiteID) core.Engine {
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	return c.engines[s]
}

// Engine returns the protocol engine of site s (the current one — after
// a crash-restart cycle, the engine rebuilt from the site's WAL).
func (c *Cluster) Engine(s model.SiteID) core.Engine { return c.engine(s) }

// WAL returns site s's redo log, or nil when Config.WALDir was not set.
// After a crash-restart cycle this is the re-opened log.
func (c *Cluster) WAL(s model.SiteID) *wal.SiteLog {
	c.lcMu.Lock()
	defer c.lcMu.Unlock()
	return c.wals[s]
}

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

// Publisher returns the telemetry publisher, or nil when
// Config.Telemetry was not set.
func (c *Cluster) Publisher() *telemetry.Publisher { return c.publisher }

// Fresh returns the freshness tracker (always non-nil).
func (c *Cluster) Fresh() *fresh.Tracker { return c.fresh }

// FreshSummary returns the current staleness and read-certificate
// distributions, per site plus totals.
func (c *Cluster) FreshSummary() *fresh.Summary { return c.fresh.Summarize() }

// PropEdges returns the configured propagation edges — the tree edges
// updates travel along — or nil for protocols that do not propagate
// (PSL serves reads from the primary instead). Part of the canonical
// freshness summary: topology is schedule-derived, timing is not.
func (c *Cluster) PropEdges() []fresh.Edge {
	if !c.Cfg.Protocol.Propagates() {
		return nil
	}
	var out []fresh.Edge
	for s := 0; s < c.Placement.NumSites; s++ {
		for _, child := range c.Tree.Children(model.SiteID(s)) {
			out = append(out, fresh.Edge{From: model.SiteID(s), To: child})
		}
	}
	return out
}

// Start launches every engine's background workers, the watchdog, and
// the telemetry publisher.
func (c *Cluster) Start() {
	c.engMu.RLock()
	for _, e := range c.engines {
		e.Start()
	}
	c.engMu.RUnlock()
	c.fresh.StartProbe(0)
	c.watchdog.Start()
	c.publisher.Start()
}

// Stop shuts engines, watchdog, telemetry and transport down (closing
// the top of the transport stack closes every layer beneath it), then
// closes the redo logs (a fenced log closes as a no-op).
func (c *Cluster) Stop() {
	c.engMu.RLock()
	for _, e := range c.engines {
		e.Stop()
	}
	c.engMu.RUnlock()
	c.fresh.StopProbe()
	c.watchdog.Stop()
	c.publisher.Stop()
	_ = c.top.Close()
	c.lcMu.Lock()
	for _, lg := range c.wals {
		_ = lg.Close()
	}
	c.lcMu.Unlock()
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
			seed := wl.Seed + int64(s)*1000 + int64(th) + 7
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

// Quiesce waits until every in-flight propagation message has been fully
// consumed, or the timeout expires.
func (c *Cluster) Quiesce(timeout time.Duration) error {
	done := make(chan struct{})
	go func() {
		c.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("cluster: propagation did not quiesce within %v", timeout)
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
	// Read the site count under engMu: restartSite swaps rebuilt engines
	// into the slice concurrently. The count itself never changes, and
	// storeSnapshot re-locks per site to fetch whatever engine is current.
	c.engMu.RLock()
	n := len(c.engines)
	c.engMu.RUnlock()
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

// SiteHeat returns every site's per-item lock contention accounting,
// site-ordered — the input to contend.BuildHeat.
func (c *Cluster) SiteHeat() []contend.SiteHeat {
	c.engMu.RLock()
	n := len(c.engines)
	c.engMu.RUnlock()
	out := make([]contend.SiteHeat, 0, n)
	for s := 0; s < n; s++ {
		eng := c.engine(model.SiteID(s)).(contender)
		out = append(out, contend.SiteHeat{Site: model.SiteID(s), Items: eng.LockHeat()})
	}
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
	c.engMu.RLock()
	n := len(c.engines)
	c.engMu.RUnlock()
	out := make([]contend.SiteWaitGraph, 0, n)
	for s := 0; s < n; s++ {
		eng := c.engine(model.SiteID(s)).(contender)
		out = append(out, contend.SiteWaitGraph{Site: model.SiteID(s), Edges: eng.LockWaitGraph()})
	}
	return out
}

// AbortReasons sums every site's abort root-cause breakdown, reason
// name → count. Empty without Config.Obs (the per-reason counters live
// in the registry).
func (c *Cluster) AbortReasons() map[string]uint64 {
	c.engMu.RLock()
	n := len(c.engines)
	c.engMu.RUnlock()
	out := make(map[string]uint64)
	for s := 0; s < n; s++ {
		for reason, cnt := range c.engine(model.SiteID(s)).(contender).AbortReasons() {
			out[reason] += cnt
		}
	}
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
