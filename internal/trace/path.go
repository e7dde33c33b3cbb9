package trace

import (
	"sort"
	"time"

	"repro/internal/model"
)

// PropDelays extracts the commit-to-replica propagation-delay samples
// from an event stream, grouped by protocol: every SecondaryApplied
// contributes (apply time − commit time) of its transaction. Commits and
// applies are matched per (protocol, TID) so concatenated traces from
// different runs do not cross-contaminate.
func PropDelays(events []Event) map[uint8][]time.Duration {
	type key struct {
		proto uint8
		tid   model.TxnID
	}
	commits := make(map[key]int64)
	for _, ev := range events {
		if ev.Kind == TxnCommit && !ev.TID.Zero() {
			if _, ok := commits[key{ev.Proto, ev.TID}]; !ok {
				commits[key{ev.Proto, ev.TID}] = ev.T
			}
		}
	}
	out := make(map[uint8][]time.Duration)
	for _, ev := range events {
		if ev.Kind != SecondaryApplied || ev.TID.Zero() {
			continue
		}
		if ct, ok := commits[key{ev.Proto, ev.TID}]; ok && ev.T >= ct {
			out[ev.Proto] = append(out[ev.Proto], time.Duration(ev.T-ct))
		}
	}
	return out
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the samples; 0 for an
// empty set. The single-sample case returns that sample for every q.
func Quantile(ds []time.Duration, q float64) time.Duration {
	switch len(ds) {
	case 0:
		return 0
	case 1:
		return ds[0]
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
