package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
)

// PlotASCII renders the experiment's throughput series as an ASCII chart
// shaped like the paper's figures: x axis = swept parameter, y axis =
// average throughput per site, one glyph per protocol. It is deliberately
// coarse — the point is eyeballing the shapes (who wins, where curves
// cross) straight from a terminal.
func (r Result) PlotASCII(w io.Writer, width, height int) {
	if len(r.Points) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}

	// Glyphs key on protocol identity (PSL..NaiveLazy in declaration
	// order), so 'B' is BackEdge in every chart regardless of which
	// protocol a result happens to list first.
	glyphs := []byte{'P', 'W', 'T', 'B', 'N', '#'}
	glyph := func(p core.Protocol) byte { return glyphs[int(p)%len(glyphs)] }
	var protos []core.Protocol
	seen := map[core.Protocol]int{}
	for _, p := range r.Points {
		if _, ok := seen[p.Protocol]; !ok {
			seen[p.Protocol] = len(protos)
			protos = append(protos, p.Protocol)
		}
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	maxY := 0.0
	for _, p := range r.Points {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Report.ThroughputPerSite)
	}
	if maxY == 0 {
		maxY = 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, g byte) {
		col := int(math.Round((x - minX) / (maxX - minX) * float64(width-1)))
		row := height - 1 - int(math.Round(y/maxY*float64(height-1)))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		if grid[row][col] == ' ' {
			grid[row][col] = g
		} else if grid[row][col] != g {
			grid[row][col] = '*' // overlapping protocols
		}
	}
	// Sort points by x per protocol so markers line up predictably.
	byProto := map[core.Protocol][]Point{}
	for _, p := range r.Points {
		byProto[p.Protocol] = append(byProto[p.Protocol], p)
	}
	for proto, pts := range byProto {
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		g := glyph(proto)
		for _, p := range pts {
			plot(p.X, p.Report.ThroughputPerSite, g)
		}
	}

	fmt.Fprintf(w, "%s — throughput/site vs %s\n", r.Title, r.XLabel)
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.1f ", maxY)
		case height - 1:
			label = fmt.Sprintf("%7.1f ", 0.0)
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "         %-8.2f%s%8.2f\n", minX, strings.Repeat(" ", width-16), maxX)
	var legend []string
	for _, proto := range protos {
		legend = append(legend, fmt.Sprintf("%c=%v", glyph(proto), proto))
	}
	fmt.Fprintf(w, "         legend: %s (*=overlap)\n", strings.Join(legend, "  "))
}
