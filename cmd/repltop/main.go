// Command repltop is the live cluster console of the telemetry plane
// (docs/OBSERVABILITY.md): it aggregates the telemetry streams of N
// replnode processes and renders one cluster view — per-protocol
// throughput, per-site staleness and version lag, phase-latency heat,
// active watchdog alerts, and recent cross-process span traces.
//
// Aggregation mode (the default) listens for publisher connections:
//
//	repltop -listen :7780
//	replnode -site 0 ... -telemetry 127.0.0.1:7780
//	replnode -site 1 ... -telemetry 127.0.0.1:7780
//
// Scrape mode polls /metrics pages of nodes started with -obs instead,
// trading span federation and alerts for zero node-side configuration:
//
//	repltop -scrape http://127.0.0.1:9090/metrics,http://127.0.0.1:9091/metrics
//
// -once renders a single snapshot and exits (waiting, in aggregation
// mode, until every connected publisher has finished); -json emits the
// snapshot as JSON instead of the console layout. Both are the CI
// surface: `repltop -listen :0 -once -json` is a machine-readable
// cluster audit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

type options struct {
	listen   string
	scrape   string
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
	flag.StringVar(&opts.scrape, "scrape", "", "poll these comma-separated /metrics URLs instead of listening (replnode -obs)")
	flag.DurationVar(&opts.interval, "interval", time.Second, "refresh interval")
	flag.DurationVar(&opts.wait, "wait", 10*time.Second, "with -once in aggregation mode: how long to wait for publishers to connect and finish")
	flag.BoolVar(&opts.once, "once", false, "render one snapshot and exit")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit the snapshot as JSON instead of the console layout")
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repltop:", err)
		os.Exit(1)
	}
}

func run(opts options, w io.Writer) error {
	if opts.scrape != "" {
		return runScrape(opts, w)
	}
	return runAggregate(opts, w)
}

// runAggregate listens for publisher streams and renders the merged
// view.
func runAggregate(opts options, w io.Writer) error {
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

// runScrape polls /metrics pages and synthesizes one telemetry frame per
// page and cycle, so the one renderer serves both transports. Scraped
// state has no span events or watchdog alerts — those only travel the
// push path.
func runScrape(opts options, w io.Writer) error {
	urls := strings.Split(opts.scrape, ",")
	agg := telemetry.NewAggregator()
	client := &http.Client{Timeout: 5 * time.Second}
	seq := uint64(0)
	cycle := func() error {
		seq++ // one cycle per seq, so a failed scrape shows as a gap
		for _, url := range urls {
			snap, err := scrapeOne(client, url)
			if err != nil {
				if opts.once {
					return err
				}
				continue // a down node renders as a stale proc, not a dead console
			}
			f := frameFromMetrics(snap)
			f.Proc, f.Seq = url, seq
			agg.Ingest(f)
		}
		return nil
	}

	if opts.once {
		if err := cycle(); err != nil {
			return err
		}
		return render(agg.Snapshot(), opts.jsonOut, w)
	}
	for {
		if err := cycle(); err != nil {
			return err
		}
		if !opts.jsonOut {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		if err := render(agg.Snapshot(), opts.jsonOut, w); err != nil {
			return err
		}
		time.Sleep(opts.interval)
	}
}

func scrapeOne(client *http.Client, url string) (map[string]int64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	snap, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return snap, nil
}

// frameFromMetrics reconstructs what a publisher would have sent from
// what a metrics page exposes: the series themselves, the protocol-info
// series, and the site labels in play.
func frameFromMetrics(snap map[string]int64) telemetry.Frame {
	f := telemetry.Frame{Metrics: snap}
	siteSet := map[model.SiteID]bool{}
	for key := range snap {
		if strings.HasPrefix(key, "repl_protocol_info{") {
			if open := strings.Index(key, `protocol="`); open >= 0 {
				rest := key[open+len(`protocol="`):]
				if end := strings.IndexByte(rest, '"'); end >= 0 {
					f.Protocol = rest[:end]
				}
			}
		}
		if open := strings.Index(key, `site="`); open >= 0 {
			rest := key[open+len(`site="`):]
			if end := strings.IndexByte(rest, '"'); end >= 0 {
				var n int
				if _, err := fmt.Sscanf(rest[:end], "%d", &n); err == nil {
					siteSet[model.SiteID(n)] = true
				}
			}
		}
	}
	for s := range siteSet {
		f.Sites = append(f.Sites, s)
	}
	sort.Slice(f.Sites, func(i, j int) bool { return f.Sites[i] < f.Sites[j] })
	return f
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
