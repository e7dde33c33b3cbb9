package fresh

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/trace"
)

// Edge is one configured propagation edge.
type Edge struct {
	From, To model.SiteID
}

// Canonical is the determinism-safe freshness summary: two same-seed
// runs must produce byte-identical Canonical documents, so it carries
// only schedule-derived facts — the protocol, the seed, the configured
// propagation topology, the fixed segment schema, and the certificate
// coverage (100 by construction: every read path issues a certificate).
// Timing distributions deliberately live elsewhere (Summary): wall-clock
// durations vary between same-seed runs and would break the byte
// comparison the freshness smoke performs.
type Canonical struct {
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Sites    int    `json:"sites"`
	// Eager marks protocols whose reads observe the primary copy by
	// construction (zero read staleness, e.g. PSL).
	Eager    bool     `json:"eager"`
	Segments []string `json:"segments"`
	// Edges lists the configured propagation edges as "s<from>->s<to>",
	// sorted — the topology updates travel, independent of timing.
	Edges       []string `json:"edges"`
	CoveragePct float64  `json:"coverage_pct"`
}

// NewCanonical assembles the canonical summary from schedule-derived
// inputs.
func NewCanonical(protocol string, seed int64, sites int, eager bool, edges []Edge, coveragePct float64) Canonical {
	c := Canonical{
		Protocol:    protocol,
		Seed:        seed,
		Sites:       sites,
		Eager:       eager,
		Segments:    append([]string(nil), trace.SegmentNames...),
		CoveragePct: coveragePct,
	}
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	for _, e := range sorted {
		c.Edges = append(c.Edges, fmt.Sprintf("s%d->s%d", e.From, e.To))
	}
	return c
}

// Encode writes the canonical summary as stable indented JSON followed
// by a newline; same inputs always give the same bytes. HTML escaping is
// off so the edges read as written ("s0->s1", no > escapes).
func (c Canonical) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
