// Command replplot renders replbench output as ASCII charts without
// external tooling. It reads a replbench CSV and draws one chart per
// experiment, the paper's figure shapes:
//
//	replbench -exp all -scale medium -csv > results.csv
//	replplot results.csv
//	replplot -exp fig2a -width 72 results.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() {
	var (
		exp    = flag.String("exp", "", "plot only this experiment (default: all found)")
		width  = flag.Int("width", 64, "chart width in columns")
		height = flag.Int("height", 16, "chart height in rows")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: replplot [-exp name] <results.csv>  (use '-' for stdin)")
		os.Exit(2)
	}
	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	results, order, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if *exp != "" {
		r, ok := results[*exp]
		if !ok {
			fatal(fmt.Errorf("experiment %q not in file (have %v)", *exp, order))
		}
		r.PlotASCII(os.Stdout, *width, *height)
		return
	}
	for _, name := range order {
		results[name].PlotASCII(os.Stdout, *width, *height)
		fmt.Println()
	}
}

// parse reads replbench CSV rows into per-experiment results, keeping
// file order.
func parse(in io.Reader) (map[string]*harness.Result, []string, error) {
	rd := csv.NewReader(in)
	rd.FieldsPerRecord = -1
	rows, err := rd.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("replplot: parse CSV: %w", err)
	}
	results := make(map[string]*harness.Result)
	var order []string
	for _, row := range rows {
		if len(row) < 5 || row[0] == "experiment" {
			continue // header or malformed/mixed line
		}
		x, err1 := strconv.ParseFloat(row[1], 64)
		thr, err2 := strconv.ParseFloat(row[3], 64)
		proto, err3 := core.ParseProtocol(row[2])
		if err1 != nil || err2 != nil || err3 != nil {
			continue // tolerate non-data lines
		}
		name := row[0]
		r, ok := results[name]
		if !ok {
			r = &harness.Result{Name: name, Title: name, XLabel: "x"}
			results[name] = r
			order = append(order, name)
		}
		r.Points = append(r.Points, harness.Point{
			X:        x,
			Protocol: proto,
			Report:   metrics.Report{ThroughputPerSite: thr},
		})
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("replplot: no data rows found")
	}
	return results, order, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replplot:", err)
	os.Exit(1)
}
