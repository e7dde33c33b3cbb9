package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestEnginesDoNotRetainPrograms holds every engine to the program
// generator's buffer contract: a program slice belongs to the engine only
// until Execute returns. Each client overwrites its program's operations
// as soon as Execute returns, turning reads into writes of a poison value,
// so an engine that still reads the slice afterwards — a parked BackEdge
// origin, a PSL remote read, a late count — sees a different program. The
// recorded history must stay serializable, the replicas must converge
// where the engine propagates, and the reads the engines counted must be
// the programs' read operations: exactly, when nothing aborted, and one
// read certificate per counted read in any case.
func TestEnginesDoNotRetainPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const poison = -1
	for _, pc := range []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.PSL, 0.2},
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.5},
		{core.NaiveLazy, 0},
	} {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.BackedgeProb = pc.backedge
			wl.TxnsPerThread = 30
			registry := obs.NewRegistry()
			c, err := New(Config{
				Workload: wl,
				Protocol: pc.proto,
				Params:   fastParams(),
				Latency:  100 * time.Microsecond,
				Record:   true,
				Obs:      registry,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c.Start()
			defer c.Stop()

			var (
				mu                           sync.Mutex
				committedReads, abortedReads uint64
				aborts                       int
				wg                           sync.WaitGroup
			)
			for s := 0; s < wl.Sites; s++ {
				for th := 0; th < wl.ThreadsPerSite; th++ {
					wg.Add(1)
					go func(site model.SiteID, thread int) {
						defer wg.Done()
						gen := workload.NewTxnGen(wl, c.Placement, site, wl.ClientSeed(site, thread))
						var committed, aborted uint64
						var n int
						for i := 0; i < wl.TxnsPerThread; i++ {
							ops := gen.Next()
							var reads uint64
							for _, op := range ops {
								if op.Kind == model.OpRead {
									reads++
								}
							}
							err := c.Engine(site).Execute(ops)
							for j := range ops {
								if ops[j].Kind == model.OpRead {
									ops[j].Kind = model.OpWrite
								} else {
									ops[j].Kind = model.OpRead
								}
								ops[j].Value = poison
							}
							switch {
							case err == nil:
								committed += reads
							case errors.Is(err, txn.ErrAborted):
								aborted += reads
								n++
							default:
								t.Errorf("s%d program %d: %v", site, i, err)
								return
							}
						}
						mu.Lock()
						committedReads += committed
						abortedReads += aborted
						aborts += n
						mu.Unlock()
					}(model.SiteID(s), th)
				}
			}
			wg.Wait()
			if err := c.Quiesce(time.Minute); err != nil {
				t.Fatal(err)
			}
			if committedReads == 0 {
				t.Fatal("no committed program read anything")
			}
			if pc.proto.Serializable() {
				if err := c.CheckSerializable(); err != nil {
					t.Errorf("serializability violated: %v", err)
				}
				if pc.proto.Propagates() {
					if err := c.CheckConvergence(); err != nil {
						t.Errorf("convergence violated: %v", err)
					}
				}
			}
			counted := uint64(familySum(registry.Snapshot(), "repl_txn_reads_total"))
			if aborts == 0 && counted != committedReads {
				t.Errorf("repl_txn_reads_total = %d, want the programs' %d read ops", counted, committedReads)
			}
			// An aborted program's reads count up to the one that failed.
			if counted < committedReads || counted > committedReads+abortedReads {
				t.Errorf("repl_txn_reads_total = %d, want %d committed read ops plus at most %d aborted ones (%d aborts)",
					counted, committedReads, abortedReads, aborts)
			}
			if certs := c.FreshSummary().Reads(); certs != counted {
				t.Errorf("%d read certificates for %d counted reads", certs, counted)
			}
			t.Logf("%d reads counted, %d aborts", counted, aborts)
		})
	}
}
