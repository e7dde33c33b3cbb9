// Package obs is a miniature of the repository's live-metric handles for
// the obscomplete analyzer's type matching.
package obs

type Counter struct{}

func (c *Counter) Inc()          {}
func (c *Counter) Add(n float64) {}

type Gauge struct{}

func (g *Gauge) Set(v float64) {}

type Histogram struct{}

func (h *Histogram) Observe(v float64) {}
