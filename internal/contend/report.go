// Console renderings of the abort breakdown and the heat table.
package contend

import (
	"fmt"
	"sort"
	"time"
)

// FormatAborts renders a breakdown one reason per line, descending count
// then name, e.g. "lock_timeout  42".
func FormatAborts(aborts map[string]uint64) []string {
	type rc struct {
		reason string
		n      uint64
	}
	rows := make([]rc, 0, len(aborts))
	for r, n := range aborts {
		rows = append(rows, rc{r, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].reason < rows[j].reason
	})
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprintf("%-14s %d", r.reason, r.n)
	}
	return lines
}

// FormatHeat renders the heat table for consoles, hottest first.
func FormatHeat(heat []HeatEntry) []string {
	lines := make([]string, 0, len(heat)+1)
	lines = append(lines, "item      wait_total   wait_max  waited  acq    t/o  ddl  wnd  qpeak  sites")
	for _, h := range heat {
		lines = append(lines, fmt.Sprintf("%-8d %10s %10s  %6d  %-5d %4d %4d %4d  %5d  %5d",
			h.Item,
			time.Duration(h.WaitNS).Round(time.Microsecond),
			time.Duration(h.MaxWaitNS).Round(time.Microsecond),
			h.Waited, h.Acquired, h.Timeouts, h.Deadlocks, h.Wounds, h.QueuePeak, h.Sites))
	}
	return lines
}
