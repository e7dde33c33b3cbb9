package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// networkLatency is the one-way latency between any two sites: the
// 0.15 ms the paper measured on its ethernet (Table 1).
const networkLatency = 150 * time.Microsecond

// walFlushInterval is the group-commit window of the WAL-backed
// workloads, the value every other WAL-backed run in the repo uses.
const walFlushInterval = 500 * time.Microsecond

// workloadDef is one set of inputs the benchmark runs. The inputs are
// workload.Default() and core.DefaultParams() (Table 1) changed by tune.
type workloadDef struct {
	name  string
	why   string // one line, copied into BENCHMARK.json
	proto core.Protocol
	wal   bool
	tune  func(*workload.Config, *core.Params)
}

func acyclic(w *workload.Config, _ *core.Params) { w.BackedgeProb = 0 }

// workloads is the benchmark's fixed set. Order is the print order.
var workloads = []workloadDef{
	{
		name:  "t1-backedge",
		why:   "Table 1 verbatim on BackEdge with WAL: the paper's headline point, the only one where 2PC runs; lock timeouts and fsync set the result",
		proto: core.BackEdge,
		wal:   true,
	},
	{
		name:  "t1-dagwt",
		why:   "Table 1 with b=0 on DAG(WT) with WAL: the same contention regime through the tree-routed lazy path, no 2PC",
		proto: core.DAGWT,
		wal:   true,
		tune:  acyclic,
	},
	{
		name:  "t1-dagt",
		why:   "Inputs identical to t1-dagwt on DAG(T): timestamp/epoch ordering and dummies, so the two ordering policies stay comparable",
		proto: core.DAGT,
		wal:   true,
		tune:  acyclic,
	},
	{
		name:  "t1-psl",
		why:   "Inputs identical to t1-backedge on PSL: the paper's baseline, the only workload on RPC remote reads; propagation and appliers idle",
		proto: core.PSL,
		wal:   true,
	},
	{
		name:  "fanout-dagwt",
		why:   "DAG(WT), r=0.5, 20% read txns, 1 thread/site, OpCost 0, no WAL: no local contention or fsync, so transport, applier queue and forwarder do the work (nothing is encoded in-process)",
		proto: core.DAGWT,
		tune: func(w *workload.Config, p *core.Params) {
			w.BackedgeProb = 0
			w.ReplicationProb = 0.5
			w.ReadTxnProb = 0.2
			w.ThreadsPerSite = 1
			p.OpCost = 0
		},
	},
	{
		name:  "readonly-local",
		why:   "DAG(WT), 100% read txns, 3 threads/site, OpCost 0, no WAL: shared locks only, no messages, no log; the control every propagation, WAL or 2PC change must not move",
		proto: core.DAGWT,
		tune: func(w *workload.Config, p *core.Params) {
			w.BackedgeProb = 0
			w.ReadTxnProb = 1.0
			p.OpCost = 0
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// placementSeed fixes the data placement (which site holds which primary
// and which replicas) of every workload: it is part of what a workload
// is, like r and b. The -seed argument drives the clients' transaction
// programs only, so that runs with different seeds measure the same
// database under different request streams and stay comparable. 1 is the
// seed of every committed result in this repository.
const placementSeed = 1

// inputs returns the workload's generator configuration and engine
// parameters.
func (d workloadDef) inputs() (workload.Config, core.Params) {
	w := workload.Default()
	p := core.DefaultParams()
	w.Seed = placementSeed
	if d.tune != nil {
		d.tune(&w, &p)
	}
	return w, p
}
