// Package telemetry is the cluster telemetry plane (docs/OBSERVABILITY.md):
// the instrument that makes a multi-process deployment observable as one
// cluster. Every observability layer built so far — the trace recorder,
// the live obs registry, the watchdog — sees a single address space, but
// the paper's deployment model (§5: one DataBlitz process per site) and
// the ROADMAP's sharded-copy-graph runs host sites across N processes,
// where no process can answer "which replica is stale and why".
//
// The plane has two halves:
//
//   - a Publisher embedded in each process, sending one Frame per
//     publish cycle: a delta-encoded registry snapshot, span-carrying
//     trace events, phase-latency summaries, watchdog alerts, and the
//     contention heat table;
//   - an Aggregator merging the streams: it re-keys per-site series,
//     stitches cross-process span trees back together (deterministic
//     SpanID lineage means merging the raw event streams suffices —
//     trace.BuildSpanTrees needs no per-process namespace), and folds
//     the merged stream into one watch.Inflight, the federated staleness
//     view no single watchdog can compute.
//
// Frames travel inside the same gob comm.Message framing the protocol
// sockets use (comm.MsgWriter/MsgReader), on dedicated connections, with
// MessageKind and a fixed auxiliary span context marking the traffic as
// telemetry rather than protocol work.
package telemetry

import (
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/watch"
)

// MessageKind is the comm.Message.Kind of telemetry envelopes. Protocol
// engines allocate small positive kinds; this sits far outside their
// range so a telemetry frame that strays onto a protocol connection is
// recognizably foreign.
const MessageKind = 0x7e1e

// channelSpanSalt roots the auxiliary span ids that mark telemetry
// traffic (see ChannelSpan).
const channelSpanSalt = 0x7e1e7e1e

// ChannelSpan returns the span context stamped on every telemetry
// envelope a process sends: a fixed auxiliary span derived from the
// process name, with no transaction attached. It exists so telemetry
// traffic is distinguishable from protocol traffic anywhere a
// comm.Message is observed; the zero TID keeps these spans out of every
// span tree (trace.BuildSpanTrees ignores zero-TID events).
func ChannelSpan(proc string) model.SpanContext {
	h := fnv.New64a()
	h.Write([]byte(proc))
	return model.SpanContext{Parent: model.AuxSpan(model.SpanID(channelSpanSalt), h.Sum64())}
}

// Frame is one publish cycle of one process. Every field but Metrics and
// Events is the process's absolute state, so a lost or replayed frame
// cannot corrupt aggregator state; a nil field means the source is
// absent or had nothing to report.
type Frame struct {
	// Proc is the process's stable display name (replnode uses
	// "site<N>"); it keys all aggregator state, so two publishers must
	// not share one.
	Proc string
	// Seq counts the publisher's cycles, so lost frames are observable
	// downstream as gaps.
	Seq uint64
	// Protocol is the engine protocol the process runs; Sites the site
	// ids it hosts. Re-sent every cycle, so an aggregator that joins (or
	// a connection that re-establishes) mid-run self-heals without a
	// handshake.
	Protocol string
	Sites    []model.SiteID
	// Metrics holds the registry series that changed since the last
	// delivered cycle, each with its absolute value (not an increment),
	// keyed by the obs.Registry.Snapshot rendering.
	Metrics map[string]int64
	// Events are the span-carrying trace events since the last cycle;
	// Dropped is the cumulative count lost to publisher ring overflow.
	Events  []trace.Event
	Dropped uint64
	// Phases is the process's metrics.Report.Phases.
	Phases map[string]metrics.PhaseStats
	// Alerts are the process watchdog's active alerts.
	Alerts []watch.Alert
	// Heat is the process's contention heat table (contend.BuildHeat over
	// its sites). Its abort root-cause breakdown travels in Metrics, as
	// the repl_txn_abort_reason_total series.
	Heat []contend.HeatEntry
}

var registerOnce sync.Once

// RegisterPayloads registers the telemetry frame types for gob encoding.
// Called by every wire endpoint (Dial, Listen); safe to call repeatedly.
func RegisterPayloads() {
	registerOnce.Do(func() {
		comm.RegisterPayload(Frame{})
	})
}

// envelope wraps a frame for the wire. Telemetry connections are not
// site-to-site edges, so both endpoints are NoSite.
func envelope(f Frame) comm.Message {
	return comm.Message{
		From:    model.NoSite,
		To:      model.NoSite,
		Kind:    MessageKind,
		Span:    ChannelSpan(f.Proc),
		Payload: f,
	}
}

// parseSeries splits a rendered series key (`family{k="v",...}`, the
// obs.Registry.Snapshot form) into its family and labels. Keys without
// labels return an empty map; the `:count`/`:sum_ns` histogram suffixes
// stay attached to the family.
func parseSeries(key string) (family string, labels map[string]string) {
	labels = map[string]string{}
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, labels
	}
	close := strings.LastIndexByte(key, '}')
	if close < open {
		return key, labels
	}
	family = key[:open] + key[close+1:]
	for _, part := range strings.Split(key[open+1:close], ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		if u, err := strconv.Unquote(v); err == nil {
			labels[k] = u
		}
	}
	return family, labels
}
