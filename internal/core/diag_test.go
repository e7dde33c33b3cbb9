package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestDiagAbortSources is a diagnostic (run with -v) that reproduces a
// harness point inside the core package so the lock-manager statistics
// are visible: it reports how many aborts are local deadlock timeouts vs
// backedge-wait timeouts.
func TestDiagAbortSources(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	wl := workload.Default()
	wl.TxnsPerThread = 25
	wl.BackedgeProb = 0.0
	p, err := wl.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.OpCost = 50 * time.Microsecond
	s := buildSystem(t, BackEdge, p, params, 150*time.Microsecond)

	var wg sync.WaitGroup
	var mu sync.Mutex
	commits, aborts, backedgeAborts := 0, 0, 0
	for site := 0; site < wl.Sites; site++ {
		for th := 0; th < wl.ThreadsPerSite; th++ {
			wg.Add(1)
			go func(site, th int) {
				defer wg.Done()
				gen := workload.NewTxnGen(wl, p, model.SiteID(site), int64(site*100+th))
				for i := 0; i < wl.TxnsPerThread; i++ {
					err := s.engines[site].Execute(gen.Next())
					mu.Lock()
					if err == nil {
						commits++
					} else if errors.Is(err, txn.ErrAborted) {
						aborts++
						if errStr := err.Error(); len(errStr) > 0 && containsStr(errStr, "backedge round-trip") {
							backedgeAborts++
						}
					}
					mu.Unlock()
				}
			}(site, th)
		}
	}
	wg.Wait()
	s.quiesce(t)
	var timeouts, waits, acquired uint64
	var waitTime time.Duration
	for _, e := range s.engines {
		var st = lockStats(e)
		timeouts += st.Timeouts
		waits += st.Waited
		acquired += st.Acquired
		waitTime += st.WaitTime
	}
	rep := s.collector.Snapshot(wl.Sites)
	t.Logf("commits=%d aborts=%d (backedge-wait=%d, lock-timeout=%d)", commits, aborts, backedgeAborts, aborts-backedgeAborts)
	t.Logf("locks: acquired=%d waits=%d timeouts=%d avgWait=%v", acquired, waits, timeouts, time.Duration(int64(waitTime)/int64(max64(waits, 1))))
	t.Logf("report: %v  prop mean/max=%v/%v retries=%d", rep, rep.MeanPropDelay, rep.MaxPropDelay, rep.Retries)
}

func lockStats(e Engine) lock.Stats {
	return e.(interface{ lockStats() lock.Stats }).lockStats()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
