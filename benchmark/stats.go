package main

import "sort"

// Percentiles are written in thousandths (p99 is 990) so that ranks are
// whole-number arithmetic: 0.99*1000 in floating point is not 990.
const (
	p50  = 500
	p90  = 900
	p95  = 950
	p99  = 990
	p999 = 999
)

// tailLadder lists the percentiles a timing may be reported at, lowest
// first.
var tailLadder = []int{p50, p90, p95, p99, p999}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the value is set by a handful of outliers and does not
// repeat.
const minBeyond = 10

// rank returns the 1-based nearest rank of the p-thousandths quantile
// among n samples.
func rank(n, p int) int { return (n*p + 999) / 1000 }

// supportedTail returns the highest ladder percentile that n samples
// support, i.e. the highest with at least minBeyond samples beyond it.
// With too few samples even for the median it returns p50: a median of
// few samples is still the best single number there is.
func supportedTail(n int) int {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// cappedTail returns the percentile to report when want is asked of n
// samples: want itself when the samples support it, else the highest
// supported one below it.
func cappedTail(want, n int) int {
	return min(want, supportedTail(n))
}

// percentile returns the nearest-rank p-thousandths quantile of sorted
// (ascending). It returns 0 for an empty slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := rank(len(sorted), p) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// midMean returns the mean of the middle half of sorted, the samples
// between the quartiles. Where two populations meet near the median (a
// fast path and a lock wait, say) the median jumps from one to the other
// between runs; the middle half's mean moves in proportion instead.
func midMean(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	mid := sorted[n/4 : n-n/4]
	var sum int64
	for _, v := range mid {
		sum += v
	}
	return float64(sum) / float64(len(mid))
}

// tailMean returns the mean of the samples beyond the p-thousandths
// quantile of sorted, p demoted to what the sample count supports. It is
// the tail measure that stays steady where the quantile itself sits on
// the edge between two populations.
func tailMean(sorted []int64, p int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	tail := sorted[min(rank(n, cappedTail(p, n)), n-1):]
	var sum int64
	for _, v := range tail {
		sum += v
	}
	return float64(sum) / float64(len(tail))
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}
