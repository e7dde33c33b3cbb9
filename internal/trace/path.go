package trace

import (
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
