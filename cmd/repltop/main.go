// Command repltop is the live cluster console of the telemetry plane
// (docs/OBSERVABILITY.md): it aggregates the telemetry streams of N
// replnode processes and renders one cluster view — per-protocol
// throughput, per-site staleness and version lag, phase-latency heat,
// active watchdog alerts, and recent cross-process span traces.
//
// It listens for publisher connections:
//
//	repltop -listen :7780
//	replnode -site 0 ... -telemetry 127.0.0.1:7780
//	replnode -site 1 ... -telemetry 127.0.0.1:7780
//
// -once renders a single snapshot and exits, after every connected
// publisher has finished or -wait has passed; -json emits the snapshot
// as JSON instead of the console layout. Both are the CI surface:
// `repltop -listen :0 -once -json` is a machine-readable cluster audit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/telemetry"
)

type options struct {
	listen   string
	interval time.Duration
	wait     time.Duration
	once     bool
	jsonOut  bool
	// onListen, when non-nil, receives the bound aggregator address —
	// the test seam that lets publishers find a :0 listener.
	onListen func(addr string)
}

func main() {
	var opts options
	flag.StringVar(&opts.listen, "listen", "127.0.0.1:7780", "accept publisher connections on this address (replnode -telemetry)")
	flag.DurationVar(&opts.interval, "interval", time.Second, "refresh interval")
	flag.DurationVar(&opts.wait, "wait", 10*time.Second, "with -once: how long to wait for publishers to connect and finish")
	flag.BoolVar(&opts.once, "once", false, "render one snapshot and exit")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit the snapshot as JSON instead of the console layout")
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repltop:", err)
		os.Exit(1)
	}
}

// run listens for publisher streams and renders the merged view.
func run(opts options, w io.Writer) error {
	agg := telemetry.NewAggregator()
	addr, err := agg.Listen(opts.listen)
	if err != nil {
		return err
	}
	defer agg.Close()
	if opts.onListen != nil {
		opts.onListen(addr)
	}
	if !opts.once && !opts.jsonOut {
		fmt.Fprintf(w, "repltop: aggregating on %s\n", addr)
	}

	if opts.once {
		// Wait until every publisher that showed up has finished (its
		// connection closed), or the wait budget runs out — whichever
		// comes first. A run where nothing ever connects renders the
		// empty snapshot after the full wait.
		deadline := time.Now().Add(opts.wait)
		for time.Now().Before(deadline) {
			active, total := agg.ConnCounts()
			if total > 0 && active == 0 {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		return render(agg.Snapshot(), opts.jsonOut, w)
	}

	for {
		time.Sleep(opts.interval)
		if !opts.jsonOut {
			fmt.Fprint(w, "\x1b[2J\x1b[H") // clear + home: full-screen redraw
		}
		if err := render(agg.Snapshot(), opts.jsonOut, w); err != nil {
			return err
		}
	}
}

func render(snap telemetry.ClusterSnapshot, jsonOut bool, w io.Writer) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	snap.Render(w)
	return nil
}
