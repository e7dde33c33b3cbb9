package core

import (
	"testing"

	"repro/internal/watch"
)

// TestQuiescent holds the quiescence predicate to its cases, each a pair
// of successive reads of a three-site cluster.
func TestQuiescent(t *testing.T) {
	// balanced: s0 forwarded 4 to s1, which consumed them and forwarded 2
	// to s2, which consumed those.
	balanced := func() []watch.Status {
		return []watch.Status{
			{Site: 0, Forwarded: 4},
			{Site: 1, Forwarded: 2, Consumed: 4},
			{Site: 2, Consumed: 2},
		}
	}
	with := func(site int, f func(*watch.Status)) []watch.Status {
		sts := balanced()
		f(&sts[site])
		return sts
	}
	// hopped is balanced after one more hop: s1 forwarded to s2, which
	// consumed it.
	hopped := func() []watch.Status {
		sts := balanced()
		sts[1].Forwarded++
		sts[2].Consumed++
		return sts
	}
	rows := []struct {
		name          string
		first, second []watch.Status
		want          bool
	}{
		{"balanced and settled", balanced(), balanced(), true},
		{"an open forward",
			with(0, func(st *watch.Status) { st.Forwarded++ }),
			with(0, func(st *watch.Status) { st.Forwarded++ }), false},
		{"a participant taken but not yet settled",
			with(1, func(st *watch.Status) { st.Unsettled = 1 }),
			with(1, func(st *watch.Status) { st.Unsettled = 1 }), false},
		{"a participant unsettled in the second read only",
			balanced(), with(1, func(st *watch.Status) { st.Unsettled = 1 }), false},
		{"a down site",
			with(2, func(st *watch.Status) { st.Down = true }),
			with(2, func(st *watch.Status) { st.Down = true }), false},
		{"a site down in the first read only",
			with(2, func(st *watch.Status) { st.Down = true }), balanced(), false},
		// The hop happens between the reads: the first saw neither its
		// forward nor its consume, the second both.
		{"a forward and its consume between the reads", balanced(), hopped(), false},
		{"a forward and its consume before the reads", hopped(), hopped(), true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := Quiescent(row.first, row.second); got != row.want {
				t.Errorf("Quiescent = %v, want %v\nfirst  %+v\nsecond %+v", got, row.want, row.first, row.second)
			}
		})
	}
}
