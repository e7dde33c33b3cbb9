package main

// metricDef declares one metric: the name and unit it is printed with,
// which direction is better, and (end-to-end metrics only) the share of
// the parent's median by which it may get worse before a change counts
// as a regression. BENCHMARK.json is generated from these tables
// (-manifest) and the smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the cluster sees. Every one is defined
// and non-zero on every workload, because a bound is a share of the
// parent's value: commit_pct and fresh_read_pct are the never-zero forms
// of the abort rate and the stale-read rate, which are 0 on
// readonly-local; the raw two are per-layer metrics (core.abort_pct,
// fresh.stale_read_pct). The drain time has no such form (window plus
// drain reads as the window on five workloads), so it is the per-layer
// metric core.drain_s only. The
// bounds are three times the widest quartile spread measured over ten
// seeds on any workload (README.md has the table), capped at the 0.25
// the contract allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "tps_site", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "commit_pct", Unit: "%", Better: higher, Bound: 0.05},
	{Name: "resp_ro_mid_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "resp_upd_mid_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "resp_worst1pct_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "fresh_read_pct", Unit: "%", Better: higher, Bound: 0.10},
	{Name: "allocs_per_txn", Unit: "count", Better: lower, Bound: 0.10},
	{Name: "kb_per_txn", Unit: "KB", Better: lower, Bound: 0.10},
	{Name: "cpu_us_per_txn", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: lower, Bound: 0.15},
}

// probeMetrics are measured by the layer probes (probes.go), once per
// invocation, independent of workload and seed.
var probeMetrics = []metricDef{
	{Name: "lock.acquire_release_ns", Unit: "ns", Better: lower},
	{Name: "lock.allocs_per_acquire", Unit: "count", Better: lower},
	{Name: "lock.handoff_us", Unit: "us", Better: lower},
	{Name: "storage.read_ns", Unit: "ns", Better: lower},
	{Name: "storage.apply_ns", Unit: "ns", Better: lower},
	{Name: "txn.rw10_commit_ns", Unit: "ns", Better: lower},
	{Name: "txn.rw10_allocs", Unit: "count", Better: lower},
	{Name: "wal.append_ns", Unit: "ns", Better: lower},
	{Name: "wal.append_allocs", Unit: "count", Better: lower},
	{Name: "wal.bytes_per_record", Unit: "B", Better: lower},
	{Name: "wal.sync_us", Unit: "us", Better: lower},
	{Name: "wal.group_fsyncs_per_append", Unit: "ratio", Better: lower},
	{Name: "wal.replay_us_per_krec", Unit: "us", Better: lower},
	{Name: "comm.encode_ns", Unit: "ns", Better: lower},
	{Name: "comm.decode_ns", Unit: "ns", Better: lower},
	{Name: "comm.codec_allocs", Unit: "count", Better: lower},
	{Name: "comm.bytes_per_secondary", Unit: "B", Better: lower},
	{Name: "comm.mem_send_overhead_us", Unit: "us", Better: lower},
	{Name: "comm.reliable_send_overhead_us", Unit: "us", Better: lower},
	{Name: "comm.rpc_roundtrip_us", Unit: "us", Better: lower},
	{Name: "twopc.round_us", Unit: "us", Better: lower},
	{Name: "twopc.table_begin_finish_ns", Unit: "ns", Better: lower},
	{Name: "ts.compare_ns", Unit: "ns", Better: lower},
	{Name: "graph.tree_build_us", Unit: "us", Better: lower},
	{Name: "workload.gen_ns", Unit: "ns", Better: lower},
	{Name: "trace.record_ns", Unit: "ns", Better: lower},
	{Name: "trace.record_allocs", Unit: "count", Better: lower},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: lower},
	{Name: "metrics.phase_sample_ns", Unit: "ns", Better: lower},
	{Name: "fresh.certify_read_ns", Unit: "ns", Better: lower},
	{Name: "fresh.note_apply_ns", Unit: "ns", Better: lower},
}

// tracedMetrics are measured per workload by the traced run
// (traced.go). A metric whose layer does no work on a workload (twopc.*
// anywhere but t1-backedge, wal.* with the log off) reads 0 there.
var tracedMetrics = []metricDef{
	{Name: "core.abort_pct", Unit: "%", Better: lower},
	{Name: "core.drain_s", Unit: "s", Better: lower},
	{Name: "core.msgs_per_commit", Unit: "count", Better: lower},
	{Name: "core.secondaries_per_commit", Unit: "count", Better: lower},
	{Name: "core.remote_reads_per_commit", Unit: "count", Better: lower},
	{Name: "core.dummies_per_commit", Unit: "count", Better: lower},
	{Name: "core.queue_wait_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.queue_wait_p95_ms", Unit: "ms", Better: lower},
	{Name: "core.prop_mean_ms", Unit: "ms", Better: lower},
	{Name: "core.prop_p95_ms", Unit: "ms", Better: lower},
	{Name: "core.execute_self_ms", Unit: "ms", Better: lower},
	{Name: "lock.wait_p50_us", Unit: "us", Better: lower},
	{Name: "lock.wait_p99_ms", Unit: "ms", Better: lower},
	{Name: "lock.wait_share_pct", Unit: "%", Better: lower},
	{Name: "lock.timeout_aborts_pct", Unit: "%", Better: lower},
	{Name: "lock.deadlock_aborts_pct", Unit: "%", Better: lower},
	{Name: "storage.apply_p50_us", Unit: "us", Better: lower},
	{Name: "comm.transport_p50_us", Unit: "us", Better: lower},
	{Name: "comm.transport_p95_us", Unit: "us", Better: lower},
	{Name: "comm.bytes_per_commit", Unit: "B", Better: lower},
	{Name: "twopc.vote_p50_ms", Unit: "ms", Better: lower},
	{Name: "twopc.decision_p50_ms", Unit: "ms", Better: lower},
	{Name: "twopc.no_vote_aborts_pct", Unit: "%", Better: lower},
	{Name: "wal.appends_per_commit", Unit: "count", Better: lower},
	{Name: "wal.fsyncs_per_append", Unit: "ratio", Better: lower},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: lower},
	{Name: "fresh.stale_read_pct", Unit: "%", Better: lower},
	{Name: "fresh.apply_lag_mean_ms", Unit: "ms", Better: lower},
	{Name: "fresh.read_lag_mean_ms", Unit: "ms", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.allocs_added_per_txn", Unit: "count", Better: lower},
}

// perLayer is the per_layer list of BENCHMARK.json: probes, then traced.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), probeMetrics...), tracedMetrics...)
}
