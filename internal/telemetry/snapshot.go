package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/watch"
)

// ProcInfo summarizes one publishing process in a ClusterSnapshot.
type ProcInfo struct {
	Proc     string         `json:"proc"`
	Protocol string         `json:"protocol"`
	Sites    []model.SiteID `json:"sites"`
	Frames   uint64         `json:"frames"`
	Gaps     uint64         `json:"gaps,omitempty"`
	Dropped  uint64         `json:"dropped_events,omitempty"`
	AgeMS    int64          `json:"age_ms"`
}

// ProtocolStat is per-protocol cluster throughput.
type ProtocolStat struct {
	Protocol  string `json:"protocol"`
	Committed int64  `json:"committed"`
	Aborted   int64  `json:"aborted"`
	// CommitPerSec is the commit rate over the interval since the
	// previous Snapshot call (since aggregator start on the first).
	CommitPerSec float64 `json:"commit_per_sec"`
}

// SiteRow is one site's merged view: activity re-keyed from its hosting
// process's metrics, staleness from the aggregator's in-flight fold.
type SiteRow struct {
	Site        model.SiteID `json:"site"`
	Proc        string       `json:"proc"`
	Protocol    string       `json:"protocol"`
	Committed   int64        `json:"committed"`
	Aborted     int64        `json:"aborted"`
	Applied     int64        `json:"applied"`
	Forwarded   int64        `json:"forwarded"`
	RemoteReads int64        `json:"remote_reads,omitempty"`
	QueueDepth  int64        `json:"queue_depth"`
	// VersionLag counts the secondaries forwarded to the site and not yet
	// applied there; OldestUnappliedMS is the age of the oldest.
	VersionLag        int64 `json:"version_lag"`
	OldestUnappliedMS int64 `json:"oldest_unapplied_ms"`
}

// EdgeRow is one copy-graph edge's federated in-flight state.
type EdgeRow struct {
	From     model.SiteID `json:"from"`
	To       model.SiteID `json:"to"`
	InFlight int          `json:"in_flight"`
	OldestMS int64        `json:"oldest_ms"`
}

// ProcAlert attributes a watchdog alert to its reporting process.
type ProcAlert struct {
	Proc  string      `json:"proc"`
	Alert watch.Alert `json:"alert"`
}

// SpanRender is one transaction's reconstructed cross-process span
// tree, rendered byte-stably (trace.SpanTree.Structure).
type SpanRender struct {
	TID       string `json:"tid"`
	Structure string `json:"structure"`
}

// ClusterSnapshot is the aggregator's point-in-time cluster view — the
// document repltop renders (and emits verbatim with -json).
type ClusterSnapshot struct {
	Procs     []ProcInfo                    `json:"procs"`
	Protocols []ProtocolStat                `json:"protocols"`
	Sites     []SiteRow                     `json:"sites"`
	Edges     []EdgeRow                     `json:"edges,omitempty"`
	Phases    map[string]metrics.PhaseStats `json:"phases,omitempty"`
	Alerts    []ProcAlert                   `json:"alerts,omitempty"`
	// MaxStalenessMS is the oldest forwarded-but-unapplied age over
	// every edge.
	MaxStalenessMS int64        `json:"max_staleness_ms"`
	SpanTrees      int          `json:"span_trees"`
	SpanProblems   int          `json:"span_problems"`
	RecentSpans    []SpanRender `json:"recent_spans,omitempty"`
	// HotItems is the cluster-wide contention heat table (per-proc
	// Frame.Heat tables merged, hottest first); AbortReasons the
	// repl_txn_abort_reason_total series of every announced site summed
	// by reason, zero sums omitted. Part of the contention observatory
	// (docs/OBSERVABILITY.md).
	HotItems     []contend.HeatEntry `json:"hot_items,omitempty"`
	AbortReasons map[string]uint64   `json:"abort_reasons,omitempty"`
}

// hotItemsShown bounds the merged heat table a snapshot carries — the
// console panel and the -json document both want the head, not a
// million-item dump.
const hotItemsShown = 10

// Snapshot computes the current cluster view. Commit rates are measured
// between consecutive Snapshot calls, so a renderer polling at a fixed
// interval sees interval rates.
func (a *Aggregator) Snapshot() ClusterSnapshot {
	now := time.Now()
	a.mu.Lock()

	var snap ClusterSnapshot

	// Site rows come from announcements, never from site labels alone: a
	// watchdog gauges its *peers* too (repl_watch_version_lag{site=peer}).
	// Procs are walked in name order, so a site two procs announce
	// attributes deterministically, to the first.
	procNames := make([]string, 0, len(a.procs))
	for proc := range a.procs {
		procNames = append(procNames, proc)
	}
	sort.Strings(procNames)
	sites := make(map[model.SiteID]*SiteRow)
	for _, proc := range procNames {
		for _, s := range a.procs[proc].sites {
			if sites[s] == nil {
				sites[s] = &SiteRow{Site: s, Proc: proc, Protocol: a.procs[proc].protocol}
			}
		}
	}

	committedByProto := make(map[string]int64)
	abortedByProto := make(map[string]int64)
	phases := make(map[string]metrics.PhaseStats)
	var heatTables [][]contend.HeatEntry
	for _, proc := range procNames {
		ps := a.procs[proc]
		info := ProcInfo{
			Proc:     proc,
			Protocol: ps.protocol,
			Sites:    append([]model.SiteID(nil), ps.sites...),
			Frames:   ps.frames,
			Gaps:     ps.gaps,
			Dropped:  ps.dropped,
			AgeMS:    now.Sub(ps.lastSeen).Milliseconds(),
		}
		sort.Slice(info.Sites, func(i, j int) bool { return info.Sites[i] < info.Sites[j] })
		snap.Procs = append(snap.Procs, info)

		// Only the hosting proc's engine counters fill a row.
		for key, v := range ps.metrics {
			family, labels := parseSeries(key)
			n, err := strconv.Atoi(labels["site"])
			r := sites[model.SiteID(n)]
			if err != nil || r == nil || r.Proc != proc {
				continue
			}
			switch family {
			case "repl_txn_committed_total":
				r.Committed = v
				committedByProto[r.Protocol] += v
			case "repl_txn_aborted_total":
				r.Aborted = v
				abortedByProto[r.Protocol] += v
			case "repl_secondary_applied_total":
				r.Applied = v
			case "repl_secondary_forwarded_total":
				r.Forwarded = v
			case "repl_remote_reads_total":
				r.RemoteReads = v
			case "repl_queue_depth":
				r.QueueDepth += v
			case "repl_txn_abort_reason_total":
				if v > 0 {
					if snap.AbortReasons == nil {
						snap.AbortReasons = make(map[string]uint64)
					}
					snap.AbortReasons[labels["reason"]] += uint64(v)
				}
			}
		}

		// Phase heat merges pessimistically: counts and totals sum, the
		// mean and quantiles take the cluster max — a hot phase anywhere
		// shows hot.
		for name, q := range ps.phases {
			m := phases[name]
			m.Count += q.Count
			m.Total += q.Total
			m.Mean = max(m.Mean, q.Mean)
			m.P50 = max(m.P50, q.P50)
			m.P95 = max(m.P95, q.P95)
			m.P99 = max(m.P99, q.P99)
			m.Max = max(m.Max, q.Max)
			phases[name] = m
		}
		for _, al := range ps.alerts {
			snap.Alerts = append(snap.Alerts, ProcAlert{Proc: proc, Alert: al})
		}
		if len(ps.heat) > 0 {
			heatTables = append(heatTables, ps.heat)
		}
	}
	snap.HotItems = contend.MergeHeat(heatTables, hotItemsShown)
	if len(phases) > 0 {
		snap.Phases = phases
	}

	// Protocol throughput: interval commit rate between snapshots.
	elapsed := now.Sub(a.lastSnapAt)
	if a.lastSnapAt.IsZero() {
		elapsed = now.Sub(a.start)
	}
	if a.lastCommitted == nil {
		a.lastCommitted = make(map[string]int64)
	}
	for proto, committed := range committedByProto {
		rate := 0.0
		if secs := elapsed.Seconds(); secs > 0 {
			rate = float64(committed-a.lastCommitted[proto]) / secs
		}
		snap.Protocols = append(snap.Protocols, ProtocolStat{
			Protocol:     proto,
			Committed:    committed,
			Aborted:      abortedByProto[proto],
			CommitPerSec: rate,
		})
		a.lastCommitted[proto] = committed
	}
	a.lastSnapAt = now

	// Every staleness column comes from the one in-flight fold.
	for e, p := range a.inflight.Edges() {
		if p.N == 0 {
			continue
		}
		row := EdgeRow{From: e.From, To: e.To, InFlight: p.N, OldestMS: now.Sub(p.Since).Milliseconds()}
		snap.MaxStalenessMS = max(snap.MaxStalenessMS, row.OldestMS)
		snap.Edges = append(snap.Edges, row)
	}
	for s, p := range a.inflight.Sites() {
		if r := sites[s]; r != nil && p.N > 0 {
			r.VersionLag, r.OldestUnappliedMS = int64(p.N), now.Sub(p.Since).Milliseconds()
		}
	}

	events := append([]trace.Event(nil), a.events...)
	recent := append([]model.TxnID(nil), a.recent...)
	a.mu.Unlock()

	// Deterministic ordering everywhere a map fed the slice.
	sort.Slice(snap.Procs, func(i, j int) bool { return snap.Procs[i].Proc < snap.Procs[j].Proc })
	sort.Slice(snap.Protocols, func(i, j int) bool { return snap.Protocols[i].Protocol < snap.Protocols[j].Protocol })
	for _, r := range sites {
		snap.Sites = append(snap.Sites, *r)
	}
	sort.Slice(snap.Sites, func(i, j int) bool { return snap.Sites[i].Site < snap.Sites[j].Site })
	sort.Slice(snap.Edges, func(i, j int) bool {
		if snap.Edges[i].From != snap.Edges[j].From {
			return snap.Edges[i].From < snap.Edges[j].From
		}
		return snap.Edges[i].To < snap.Edges[j].To
	})
	sort.Slice(snap.Alerts, func(i, j int) bool {
		if snap.Alerts[i].Proc != snap.Alerts[j].Proc {
			return snap.Alerts[i].Proc < snap.Alerts[j].Proc
		}
		return snap.Alerts[i].Alert.Raised.Before(snap.Alerts[j].Alert.Raised)
	})

	// Span federation: rebuild trees outside the lock (Build is O(events)).
	trees := trace.BuildSpanTrees(events)
	snap.SpanTrees = len(trees)
	snap.SpanProblems = len(trace.VerifySpans(events))
	const showSpans = 8
	startIdx := len(recent) - showSpans
	if startIdx < 0 {
		startIdx = 0
	}
	for _, tid := range recent[startIdx:] {
		t, ok := trees[tid]
		if !ok {
			continue
		}
		snap.RecentSpans = append(snap.RecentSpans, SpanRender{
			TID:       fmt.Sprintf("s%d.%d", tid.Site, tid.Seq),
			Structure: t.Structure(),
		})
	}
	return snap
}

// Render writes the snapshot as the fixed-width text console repltop
// displays.
func (s *ClusterSnapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "cluster telemetry — %d proc(s), %d site(s), max staleness %dms\n",
		len(s.Procs), len(s.Sites), s.MaxStalenessMS)

	if len(s.Procs) > 0 {
		fmt.Fprintf(w, "\n%-12s %-10s %-14s %8s %6s %8s %7s\n",
			"PROC", "PROTOCOL", "SITES", "FRAMES", "GAPS", "DROPPED", "AGE")
		for _, p := range s.Procs {
			fmt.Fprintf(w, "%-12s %-10s %-14s %8d %6d %8d %6dms\n",
				p.Proc, p.Protocol, siteList(p.Sites), p.Frames, p.Gaps, p.Dropped, p.AgeMS)
		}
	}

	if len(s.Protocols) > 0 {
		fmt.Fprintf(w, "\n%-10s %10s %8s %12s\n", "PROTOCOL", "COMMITTED", "ABORTED", "COMMIT/S")
		for _, p := range s.Protocols {
			fmt.Fprintf(w, "%-10s %10d %8d %12.1f\n", p.Protocol, p.Committed, p.Aborted, p.CommitPerSec)
		}
	}

	if len(s.Sites) > 0 {
		fmt.Fprintf(w, "\n%-5s %-12s %9s %7s %8s %9s %7s %6s %10s\n",
			"SITE", "PROC", "COMMITTED", "ABORTED", "APPLIED", "FORWARDED", "QUEUED", "LAG", "OLDEST")
		for _, r := range s.Sites {
			fmt.Fprintf(w, "s%-4d %-12s %9d %7d %8d %9d %7d %6d %8dms\n",
				r.Site, r.Proc, r.Committed, r.Aborted, r.Applied, r.Forwarded,
				r.QueueDepth, r.VersionLag, r.OldestUnappliedMS)
		}
	}

	if len(s.Edges) > 0 {
		fmt.Fprintf(w, "\n%-10s %9s %10s\n", "EDGE", "IN-FLIGHT", "OLDEST")
		for _, e := range s.Edges {
			fmt.Fprintf(w, "s%d -> s%-3d %9d %8dms\n", e.From, e.To, e.InFlight, e.OldestMS)
		}
	}

	if len(s.Phases) > 0 {
		names := make([]string, 0, len(s.Phases))
		for n := range s.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\n%-14s %10s %10s %10s %10s %10s\n",
			"PHASE", "COUNT", "MEAN", "P95", "P99", "MAX")
		for _, n := range names {
			q := s.Phases[n]
			fmt.Fprintf(w, "%-14s %10d %9dµ %9dµ %9dµ %9dµ\n", n, q.Count,
				q.Mean.Microseconds(), q.P95.Microseconds(), q.P99.Microseconds(), q.Max.Microseconds())
		}
	}

	if len(s.HotItems) > 0 {
		fmt.Fprintf(w, "\nHOT ITEMS\n%-8s %9s %8s %8s %10s %8s %10s %6s\n",
			"ITEM", "ACQUIRED", "WAITED", "FAILED", "WAIT", "MAX", "QPEAK", "SITES")
		for _, h := range s.HotItems {
			fmt.Fprintf(w, "x[%-5d] %9d %8d %8d %8dms %6dms %10d %6d\n",
				h.Item, h.Acquired, h.Waited, h.Failures(),
				h.WaitNS/int64(time.Millisecond), h.MaxWaitNS/int64(time.Millisecond),
				h.QueuePeak, h.Sites)
		}
	}

	if len(s.AbortReasons) > 0 {
		reasons := make([]string, 0, len(s.AbortReasons))
		for r := range s.AbortReasons {
			reasons = append(reasons, r)
		}
		sort.Slice(reasons, func(i, j int) bool {
			if s.AbortReasons[reasons[i]] != s.AbortReasons[reasons[j]] {
				return s.AbortReasons[reasons[i]] > s.AbortReasons[reasons[j]]
			}
			return reasons[i] < reasons[j]
		})
		fmt.Fprintf(w, "\nABORT REASONS\n")
		for _, r := range reasons {
			fmt.Fprintf(w, "  %-14s %d\n", r, s.AbortReasons[r])
		}
	}

	fmt.Fprintf(w, "\nspans: %d tree(s), %d problem(s)\n", s.SpanTrees, s.SpanProblems)
	if len(s.Alerts) > 0 {
		fmt.Fprintf(w, "\nALERTS\n")
		for _, pa := range s.Alerts {
			fmt.Fprintf(w, "  [%s] %s site=s%d peer=s%d age=%s %s\n",
				pa.Proc, pa.Alert.Kind, pa.Alert.Site, pa.Alert.Peer,
				pa.Alert.Age.Truncate(time.Millisecond), pa.Alert.Detail)
		}
	}
	if len(s.RecentSpans) > 0 {
		fmt.Fprintf(w, "\nRECENT SPANS\n")
		for _, sp := range s.RecentSpans {
			fmt.Fprintf(w, "  txn %s\n", sp.TID)
			for _, line := range strings.Split(strings.TrimSuffix(sp.Structure, "\n"), "\n") {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
	}
}

func siteList(sites []model.SiteID) string {
	out := ""
	for i, s := range sites {
		if i > 0 {
			out += ","
		}
		out += "s" + strconv.Itoa(int(s))
	}
	return out
}
