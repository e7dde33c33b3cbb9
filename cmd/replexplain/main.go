// Command replexplain is the one reader of a recorded run: it explains a
// finished run from its trace artifacts alone, no live cluster required.
// Point it at one or more trace JSONL files (replbench -trace, a
// watchdog flight recording, one replnode -trace per process) and it
// prints trace.Explain's fold of their concatenated events: the abort
// root-cause taxonomy, the per-protocol commit critical-path profile, the
// per-(protocol, edge) propagation waterfalls, commit→apply delays, phase
// latencies, and the forwards no file shows arriving. Add the wait-for
// JSONL a run or watchdog dump produced and it renders who was blocked on
// whom:
//
//	replbench -trace run.jsonl -traceproto backedge -contend -waitfor wf.jsonl
//	replexplain run.jsonl
//	replexplain -waitfor wf.jsonl run.jsonl
//	replexplain -json run.jsonl | jq .aborts
//	replexplain -verify node0.jsonl node1.jsonl
//
// Heat lives in the lock managers, not the trace, so a post-mortem can't
// recover it (replbench -contend reports it at run time instead).
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	var (
		waitfor = flag.String("waitfor", "", "wait-for snapshot JSONL to render alongside the trace")
		jsonOut = flag.Bool("json", false, "emit the report as JSON instead of text")
		verify  = flag.Bool("verify", false, "also run span invariant checks over the trace")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: replexplain [-waitfor wf.jsonl] [-json] [-verify] <trace.jsonl>...  (use '-' for stdin)")
		os.Exit(2)
	}
	events, err := readEvents(flag.Args()...)
	if err != nil {
		fatal(err)
	}
	r := report{Explanation: explain(events)}
	if *waitfor != "" {
		f, err := os.Open(*waitfor)
		if err != nil {
			fatal(err)
		}
		r.WaitGraphs, err = contend.ReadWaitGraphs(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *waitfor, err))
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
	} else {
		r.print(os.Stdout, len(events))
	}

	if *verify {
		problems := trace.VerifySpans(events)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "replexplain: span invariant: %s\n", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "replexplain: span invariants hold")
	}
}

// report is the fold plus the optional wait-for snapshot.
type report struct {
	trace.Explanation
	WaitGraphs []contend.SiteWaitGraph `json:"wait_for,omitempty"`
}

// explain folds the trace and names its protocols.
func explain(events []trace.Event) trace.Explanation {
	x := trace.Explain(events)
	x.Name(func(p uint8) string { return core.Protocol(p).String() })
	return x
}

// print renders the report for consoles, leading with what a post-mortem
// reader wants first: why transactions died.
func (r *report) print(w io.Writer, nEvents int) {
	fmt.Fprintf(w, "%d trace events\n", nEvents)
	if len(r.Aborts) == 0 {
		fmt.Fprintln(w, "no aborts recorded")
	} else {
		var total uint64
		for _, n := range r.Aborts {
			total += n
		}
		fmt.Fprintf(w, "== aborts by root cause (%d total, %d unclassified) ==\n",
			total, r.Aborts[contend.ReasonUnknown.String()])
		lines(w, contend.FormatAborts(r.Aborts))
	}
	if r.WaitGraphs != nil {
		fmt.Fprintln(w, "== wait-for snapshot ==")
		if contend.EmptyWaitGraphs(r.WaitGraphs) {
			fmt.Fprintln(w, "(no waiters)")
		}
		lines(w, contend.FormatWaitGraphs(r.WaitGraphs))
	}
	if len(r.Paths) > 0 {
		fmt.Fprintln(w, "== commit critical paths ==")
		for _, p := range r.Paths {
			printProfile(w, p)
		}
	}
	if len(r.Waterfalls) > 0 {
		fmt.Fprintln(w, "== propagation waterfalls (p95 per segment) ==")
		fmt.Fprintf(w, "%-10s %-10s %7s", "protocol", "edge", "joined")
		for _, name := range trace.SegmentNames {
			fmt.Fprintf(w, " %12s", name)
		}
		fmt.Fprintln(w)
		for _, wf := range r.Waterfalls {
			fmt.Fprintf(w, "%-10s s%d->s%-4d %7d", wf.Protocol, wf.From, wf.To, wf.Count)
			for _, seg := range wf.Segments {
				fmt.Fprintf(w, " %12s", us(seg.P95))
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Unapplied) > 0 {
		fmt.Fprintln(w, "== forwarded, never consumed ==")
		fmt.Fprintf(w, "%-10s %-10s %8s\n", "protocol", "edge", "txns")
		for _, u := range r.Unapplied {
			fmt.Fprintf(w, "%-10s s%d->s%-4d %8d\n", u.Protocol, u.From, u.To, u.Count)
		}
	}
	if len(r.Protocols) == 0 {
		return
	}
	fmt.Fprintln(w, "== propagation delay (commit -> apply) ==")
	fmt.Fprintf(w, "%-10s %8s %12s %12s %12s\n", "protocol", "samples", "p50", "p95", "max")
	for _, p := range r.Protocols {
		fmt.Fprintf(w, "%-10s %s\n", p.Protocol, dist(p.PropDelay))
	}
	fmt.Fprintln(w, "== phase latency ==")
	fmt.Fprintf(w, "%-10s %-14s %8s %12s %12s %12s\n", "protocol", "phase", "samples", "p50", "p95", "max")
	for _, p := range r.Protocols {
		names := make([]string, 0, len(p.Phases))
		for n := range p.Phases {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-10s %-14s %s\n", p.Protocol, n, dist(p.Phases[n]))
		}
	}
}

// printProfile renders one critical-path profile: coverage, segments
// hottest first, then the chains.
func printProfile(w io.Writer, p *trace.PathProfile) {
	pct := func(ns int64) float64 {
		if p.EndToEndNS == 0 {
			return 100
		}
		return 100 * float64(ns) / float64(p.EndToEndNS)
	}
	fmt.Fprintf(w, "%s: %d committed, end-to-end %s, attributed %.1f%% (overlap %s)\n",
		p.Protocol, p.Committed, us(time.Duration(p.EndToEndNS)), pct(p.AttributedNS), us(time.Duration(p.OverlapNS)))
	segs := slices.Clone(p.Segments)
	slices.SortStableFunc(segs, func(a, b trace.Segment) int { return cmp.Compare(b.TotalNS, a.TotalNS) })
	for _, s := range segs {
		fmt.Fprintf(w, "  %-13s s%-3d %10s  %5.1f%%  (%d samples)\n",
			s.Phase, s.Site, us(time.Duration(s.TotalNS)), pct(s.TotalNS), s.Count)
	}
	for _, c := range p.Chains {
		fmt.Fprintf(w, "  chain %s x%d\n", c.Path, c.Count)
	}
}

func lines(w io.Writer, ls []string) {
	for _, l := range ls {
		fmt.Fprintln(w, l)
	}
}

func us(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// dist renders a distribution's samples, p50, p95 and max.
func dist(s metrics.PhaseStats) string {
	return fmt.Sprintf("%8d %12s %12s %12s", s.Count, us(s.P50), us(s.P95), us(s.Max))
}

// readEvents loads and concatenates trace JSONL files; "-" is stdin.
func readEvents(names ...string) ([]trace.Event, error) {
	var events []trace.Event
	for _, name := range names {
		evs, err := readFile(name)
		if err != nil {
			return nil, err
		}
		events = append(events, evs...)
	}
	return events, nil
}

func readFile(name string) ([]trace.Event, error) {
	var in io.Reader = os.Stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	events, err := trace.ReadJSONL(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return events, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replexplain:", err)
	os.Exit(1)
}
