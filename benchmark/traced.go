package main

import (
	"slices"
	"strings"

	"repro/internal/fresh"
	"repro/internal/model"
	"repro/internal/trace"
)

// traceFold condenses the program's own trace events of one window into
// the sums and samples the per-layer metrics need. It is computed after
// the run from the recorder's snapshot, so it costs the traced run
// nothing.
type traceFold struct {
	phases  map[string][]int64 // duration samples by metrics.Phase name, ns
	kinds   map[trace.Kind]int // event counts
	aborts  map[string]int     // TxnAbort events by reason tag
	prop    []int64            // primary commit → apply at one replica, ns
	originN int64              // Σ lock_wait + apply attributed at the transaction's origin site
	lockN   int64              // the lock_wait part of originN
	// A 2PC round asks its participants in parallel, so the time a
	// primary spent in it is the longest vote plus the longest decision,
	// not their sum.
	vote, decision map[model.TxnID]int64
}

// foldEvents folds the events with from <= T < to (ns since the
// recorder was created); events must be sorted by T.
func foldEvents(events []trace.Event, from, to int64) *traceFold {
	f := &traceFold{
		phases:   make(map[string][]int64),
		kinds:    make(map[trace.Kind]int),
		aborts:   make(map[string]int),
		vote:     make(map[model.TxnID]int64),
		decision: make(map[model.TxnID]int64),
	}
	commitAt := make(map[model.TxnID]int64)
	for i := range events {
		ev := &events[i]
		if ev.Kind == trace.TxnCommit {
			commitAt[ev.TID] = ev.T // also before the window: its applies may fall inside
		}
		if ev.T < from || ev.T >= to {
			continue
		}
		f.kinds[ev.Kind]++
		switch ev.Kind {
		case trace.TxnAbort:
			f.aborts[ev.Phase]++
		case trace.SecondaryApplied:
			if at, ok := commitAt[ev.TID]; ok {
				f.prop = append(f.prop, ev.T-at)
			}
		case trace.PhaseLatency:
			f.phases[ev.Phase] = append(f.phases[ev.Phase], ev.Dur)
			if ev.Site != ev.TID.Site {
				continue
			}
			switch ev.Phase {
			case "lock_wait":
				f.lockN += ev.Dur
				f.originN += ev.Dur
			case "apply":
				f.originN += ev.Dur
			case "2pc_vote":
				f.vote[ev.TID] = max(f.vote[ev.TID], ev.Dur)
			case "2pc_decision":
				f.decision[ev.TID] = max(f.decision[ev.TID], ev.Dur)
			}
		}
	}
	for _, s := range f.phases {
		slices.Sort(s)
	}
	slices.Sort(f.prop)
	return f
}

// attributedNS is the part of the clients' Execute time the program's
// own phase events account for.
func (f *traceFold) attributedNS() int64 {
	n := f.originN
	for _, d := range f.vote {
		n += d
	}
	for _, d := range f.decision {
		n += d
	}
	return n
}

// phaseQ returns the p-quantile of a phase in the given unit (ns per
// unit), demoted to the highest percentile the sample count supports; 0
// when the phase recorded nothing.
func (f *traceFold) phaseQ(phase string, p int, unit float64) float64 {
	s := f.phases[phase]
	return float64(percentile(s, cappedTail(p, len(s)))) / unit
}

// sumSeries adds up every series of one family in a registry snapshot
// (keys are rendered as family{labels}).
func sumSeries(snap map[string]int64, family string) float64 {
	var n int64
	for k, v := range snap {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanNS(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

// lagMeanMS returns the mean of a freshness time-lag distribution (µs)
// over the samples added between two summaries, in ms.
func lagMeanMS(before, after fresh.Dist) float64 {
	sum := after.Mean*float64(after.Count) - before.Mean*float64(before.Count)
	return ratio(sum, float64(after.Count-before.Count)) / 1e3
}

// tracedValues derives the traced-run per-layer metrics of one workload
// from a traced run and the untraced run it is paired with.
func tracedValues(tr, plain *runResult) map[string]float64 {
	f := tr.fold
	commits := float64(tr.commits())
	attempts := float64(tr.attempts())
	reg := func(family string) float64 {
		return sumSeries(tr.registry, family) - sumSeries(tr.registry0, family)
	}
	const us, ms = 1e3, 1e6
	out := map[string]float64{
		"core.abort_pct":               100 * ratio(float64(plain.aborted), float64(plain.attempts())),
		"core.drain_s":                 plain.drain.Seconds(),
		"core.msgs_per_commit":         ratio(reg("repl_comm_messages_total"), commits),
		"core.secondaries_per_commit":  ratio(float64(f.kinds[trace.SecondaryApplied]), commits),
		"core.remote_reads_per_commit": ratio(float64(f.kinds[trace.RemoteRead]), commits),
		"core.dummies_per_commit":      ratio(float64(f.kinds[trace.DummySent]), commits),
		"core.queue_wait_p50_ms":       f.phaseQ("queue_wait", p50, ms),
		"core.queue_wait_p95_ms":       f.phaseQ("queue_wait", p95, ms),
		"core.prop_mean_ms":            meanNS(f.prop) / ms,
		"core.prop_p95_ms":             float64(percentile(f.prop, cappedTail(p95, len(f.prop)))) / ms,
		"core.execute_self_ms":         ratio(float64(tr.sumNS-f.attributedNS()), attempts) / ms,
		"lock.wait_p50_us":             f.phaseQ("lock_wait", p50, us),
		"lock.wait_p99_ms":             f.phaseQ("lock_wait", p99, ms),
		"lock.wait_share_pct":          100 * ratio(float64(f.lockN), float64(tr.sumNS)),
		"lock.timeout_aborts_pct":      100 * ratio(float64(f.aborts["lock_timeout"]), attempts),
		"lock.deadlock_aborts_pct":     100 * ratio(float64(f.aborts["deadlock"]), attempts),
		"storage.apply_p50_us":         f.phaseQ("apply", p50, us),
		"comm.transport_p50_us":        f.phaseQ("transport", p50, us),
		"comm.transport_p95_us":        f.phaseQ("transport", p95, us),
		"comm.bytes_per_commit":        ratio(reg("repl_comm_bytes_total"), commits),
		"twopc.vote_p50_ms":            f.phaseQ("2pc_vote", p50, ms),
		"twopc.decision_p50_ms":        f.phaseQ("2pc_decision", p50, ms),
		"twopc.no_vote_aborts_pct":     100 * ratio(float64(f.aborts["2pc_no_vote"]), attempts),
		"wal.appends_per_commit":       ratio(reg("repl_wal_appends_total"), commits),
		"wal.fsyncs_per_append":        ratio(reg("repl_wal_fsyncs_total"), reg("repl_wal_appends_total")),
		"wal.bytes_per_commit":         ratio(reg("repl_wal_bytes_total"), commits),
		"fresh.stale_read_pct":         100 * ratio(float64(plain.stale), float64(plain.reads)),
		"fresh.apply_lag_mean_ms":      lagMeanMS(tr.fresh0.TimeLagUS, tr.fresh1.TimeLagUS),
		"fresh.read_lag_mean_ms":       lagMeanMS(tr.fresh0.ReadTimeLagUS, tr.fresh1.ReadTimeLagUS),
		"trace.overhead_pct":           100 * (1 - ratio(tr.tpsSite(), plain.tpsSite())),
		"trace.allocs_added_per_txn":   tr.allocsPerTxn() - plain.allocsPerTxn(),
	}
	return out
}
