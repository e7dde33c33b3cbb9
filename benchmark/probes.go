package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fresh"
	"repro/internal/graph"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/ts"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Layer probes time calls into one package's public functions from a
// single goroutine (two where the thing measured is a handoff), with
// fixed iteration counts so that the counts among them repeat exactly.
// scale divides every iteration count; the smoke test runs at 100.

// sink keeps measured results alive so the compiler cannot drop the
// calls that produced them.
var sink int64

// timeOps runs fn iters times and returns the mean wall time per call in
// nanoseconds and the mean heap allocations per call.
func timeOps(iters int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

func scaled(n, scale int) int {
	if n /= scale; n < 1 {
		return 1
	}
	return n
}

// runProbes runs every layer probe once and returns name → value for the
// probe metrics in perLayer.
func runProbes(scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	dir, err := os.MkdirTemp("", "replbenchmark-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, p := range []func(map[string]float64, int, string) error{
		probeLock, probeStorageTxn, probeWAL, probeCodec, probeTransports,
		probeTwoPC, probeSmall, probeInstruments,
	} {
		if err := p(out, scale, dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeLock(out map[string]float64, scale int, _ string) error {
	lm := lock.NewManager(false)
	owner := model.TxnID{Site: 0, Seq: 1}
	var lockErr error
	ns, allocs := timeOps(scaled(400_000, scale), func(i int) {
		if err := lm.Acquire(owner, model.ItemID(i&63), lock.Exclusive, time.Second); err != nil {
			lockErr = err
		}
		lm.ReleaseAll(owner)
	})
	if lockErr != nil {
		return fmt.Errorf("lock probe: %w", lockErr)
	}
	out["lock.acquire_release_ns"] = ns
	out["lock.allocs_per_acquire"] = allocs

	// Handoff: a holds an exclusive lock and b is queued for it; the time
	// from a's release to b's Acquire returning is one handoff. Each side
	// releases only once the manager counts the other as waiting (every
	// round adds exactly two waits), so each handoff wakes a parked
	// goroutine and none is an uncontended grant.
	rounds := scaled(20_000, scale)
	a, b := model.TxnID{Site: 0, Seq: 2}, model.TxnID{Site: 0, Seq: 3}
	const item = model.ItemID(1000)
	if err := lm.Acquire(a, item, lock.Exclusive, time.Second); err != nil {
		return fmt.Errorf("lock probe: %w", err)
	}
	base := lm.Stats().Waited
	untilWaited := func(n uint64) {
		for lm.Stats().Waited < base+n {
			runtime.Gosched()
		}
	}
	acquired := make(chan time.Time)
	errs := make(chan error, 1)
	go func() {
		var first error
		for i := 0; i < rounds; i++ {
			if err := lm.Acquire(b, item, lock.Exclusive, 10*time.Second); err != nil && first == nil {
				first = err
			}
			acquired <- time.Now()
			untilWaited(uint64(2*i + 2)) // a is queued again
			lm.ReleaseAll(b)
		}
		errs <- first
	}()
	var d time.Duration
	for i := 0; i < rounds; i++ {
		untilWaited(uint64(2*i + 1)) // b is queued
		released := time.Now()
		lm.ReleaseAll(a)
		d += (<-acquired).Sub(released)
		if err := lm.Acquire(a, item, lock.Exclusive, 10*time.Second); err != nil {
			return fmt.Errorf("lock probe: %w", err)
		}
	}
	lm.ReleaseAll(a)
	if err := <-errs; err != nil {
		return fmt.Errorf("lock probe: %w", err)
	}
	out["lock.handoff_us"] = float64(d) / float64(rounds) / 1e3
	return nil
}

func probeStorageTxn(out map[string]float64, scale int, _ string) error {
	st := storage.NewStore()
	const items = 64
	for i := 0; i < items; i++ {
		if err := st.Create(model.ItemID(i), 0); err != nil {
			return fmt.Errorf("storage probe: %w", err)
		}
	}
	writer := model.TxnID{Site: 0, Seq: 1}
	var opErr error
	out["storage.read_ns"], _ = timeOps(scaled(2_000_000, scale), func(i int) {
		v, err := st.Read(model.ItemID(i & (items - 1)))
		if err != nil {
			opErr = err
		}
		sink += v.Value
	})
	out["storage.apply_ns"], _ = timeOps(scaled(2_000_000, scale), func(i int) {
		if _, err := st.Apply(model.ItemID(i&(items-1)), int64(i), writer); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("storage probe: %w", opErr)
	}

	// One 10-operation transaction as §5.2 generates them: 7 reads and 3
	// writes, begin to commit, on one site with no log and no contention.
	tm := txn.NewManager(0, st, lock.NewManager(false), 50*time.Millisecond, nil)
	ns, allocs := timeOps(scaled(100_000, scale), func(i int) {
		t := tm.Begin(model.TxnID{Site: 0, Seq: uint64(i + 10)})
		for k := 0; k < 7; k++ {
			v, err := t.Read(model.ItemID((i + k) & (items - 1)))
			if err != nil {
				opErr = err
			}
			sink += v
		}
		for k := 7; k < 10; k++ {
			if err := t.Write(model.ItemID((i+k)&(items-1)), int64(i)); err != nil {
				opErr = err
			}
		}
		if err := t.Commit(); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("txn probe: %w", opErr)
	}
	out["txn.rw10_commit_ns"] = ns
	out["txn.rw10_allocs"] = allocs
	return nil
}

// walRecord is an origin commit of three writes, what an update
// transaction of the Table 1 workload logs on average.
func walRecord(seq uint64) wal.Record {
	return wal.Record{
		Kind: wal.KindApply,
		TID:  model.TxnID{Site: 0, Seq: seq},
		Role: wal.RoleOrigin,
		Writes: []model.WriteOp{
			{Item: model.ItemID(seq % 8), Value: int64(seq)},
			{Item: model.ItemID((seq + 1) % 8), Value: int64(seq)},
			{Item: model.ItemID((seq + 2) % 8), Value: int64(seq)},
		},
	}
}

func walCounter(reg *obs.Registry, family string) float64 {
	return float64(reg.Counter(family, obs.Label{Key: "site", Value: "0"}).Value())
}

func probeWAL(out map[string]float64, scale int, dir string) error {
	items := make([]model.ItemID, 8)
	for i := range items {
		items[i] = model.ItemID(i)
	}
	open := func(sub string, flush time.Duration, reg *obs.Registry) (*wal.SiteLog, error) {
		// Snapshots off: replay below must read every record back.
		return wal.Open(filepath.Join(dir, sub), wal.Options{
			FlushInterval: flush, SnapshotBytes: -1, Items: items, Obs: reg,
		})
	}

	// Append cost, and replay of what was appended.
	reg := obs.NewRegistry()
	lg, err := open("append", 0, reg)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	appended := scaled(10_000, scale)
	bytes0, appends0 := walCounter(reg, "repl_wal_bytes_total"), walCounter(reg, "repl_wal_appends_total")
	var opErr error
	ns, allocs := timeOps(appended, func(i int) {
		if err := lg.Append(walRecord(uint64(i + 1))); err != nil {
			opErr = err
		}
	})
	if opErr == nil {
		opErr = lg.Sync()
	}
	if opErr != nil {
		return fmt.Errorf("wal probe: append: %w", opErr)
	}
	out["wal.append_ns"] = ns
	out["wal.append_allocs"] = allocs
	out["wal.bytes_per_record"] = (walCounter(reg, "repl_wal_bytes_total") - bytes0) /
		(walCounter(reg, "repl_wal_appends_total") - appends0)
	// Records appended after the last Sync were never acknowledged; the
	// fence drops them as a crash would, so replay sees only durable bytes.
	for i := 0; i < 10; i++ {
		if err := lg.Append(walRecord(uint64(appended + i + 1))); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
	}
	lg.Fence()
	if err := lg.Close(); err != nil {
		return fmt.Errorf("wal probe: close: %w", err)
	}
	start := time.Now()
	lg, err = open("append", 0, nil)
	if err != nil {
		return fmt.Errorf("wal probe: reopen: %w", err)
	}
	out["wal.replay_us_per_krec"] = float64(time.Since(start)) / 1e3 / (float64(appended) / 1000)
	rec := lg.Recovered()
	for i := 1; i <= appended; i++ {
		if !rec.Applied[model.TxnID{Site: 0, Seq: uint64(i)}] {
			return fmt.Errorf("wal probe: acknowledged record %d of %d is missing after replay", i, appended)
		}
	}
	// Every record writes three of eight items round-robin, so the version
	// counters must add up to three per acknowledged record.
	var versions uint64
	for _, it := range rec.Items {
		versions += it.Num
	}
	if want := uint64(3 * appended); versions != want {
		return fmt.Errorf("wal probe: replay rebuilt %d item versions, want %d", versions, want)
	}
	if err := lg.Close(); err != nil {
		return fmt.Errorf("wal probe: close: %w", err)
	}

	// One committer: append, then wait for the group-commit flusher.
	lg, err = open("sync", walFlushInterval, nil)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	ns, _ = timeOps(scaled(400, scale), func(i int) {
		if err := lg.Append(walRecord(uint64(i + 1))); err != nil {
			opErr = err
		}
		if err := lg.Sync(); err != nil {
			opErr = err
		}
	})
	if err := lg.Close(); err != nil && opErr == nil {
		opErr = err
	}
	if opErr != nil {
		return fmt.Errorf("wal probe: sync: %w", opErr)
	}
	out["wal.sync_us"] = ns / 1e3

	// Eight committers sharing the flusher: fsyncs per append says how
	// much the window actually groups.
	reg = obs.NewRegistry()
	lg, err = open("group", walFlushInterval, reg)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	fsyncs0, appends0 := walCounter(reg, "repl_wal_fsyncs_total"), walCounter(reg, "repl_wal_appends_total")
	const committers = 8
	per := scaled(200, scale)
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := lg.Append(walRecord(uint64(c*per + i + 1))); err != nil {
					errs[c] = err
					return
				}
				if err := lg.Sync(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("wal probe: group commit: %w", err)
		}
	}
	out["wal.group_fsyncs_per_append"] = (walCounter(reg, "repl_wal_fsyncs_total") - fsyncs0) /
		(walCounter(reg, "repl_wal_appends_total") - appends0)
	if err := lg.Close(); err != nil {
		return fmt.Errorf("wal probe: close: %w", err)
	}
	return nil
}

// shippedSecondary returns a message the program itself sent: the
// secondary subtransaction a DAG(WT) site ships to a replica site after
// one committed transaction of three writes. core's payload types are
// unexported, so the probe takes the message off a two-site cluster's
// transport on its way to the replica's engine.
func shippedSecondary() (comm.Message, error) {
	const items = 3
	placement := model.NewPlacement(2, items)
	ops := make([]model.Op, items)
	for i := 0; i < items; i++ {
		placement.Replicas[i] = []model.SiteID{1} // primaries default to site 0
		ops[i] = model.Op{Kind: model.OpWrite, Item: model.ItemID(i), Value: 1 << (40 + i)}
	}
	if err := placement.Finish(); err != nil {
		return comm.Message{}, err
	}
	c, err := cluster.New(cluster.Config{
		Workload:  workload.Default(),
		Protocol:  core.DAGWT,
		Params:    core.DefaultParams(),
		Placement: placement,
	})
	if err != nil {
		return comm.Message{}, err
	}
	shipped := make(chan comm.Message, 1) // the one message the one transaction sends
	replica := c.Engine(1)
	c.Transport().Register(1, func(m comm.Message) {
		select {
		case shipped <- m:
		default:
		}
		replica.Handle(m)
	})
	c.Start()
	defer c.Stop()
	if err := c.Engine(0).Execute(ops); err != nil {
		return comm.Message{}, err
	}
	if err := c.Quiesce(quiesceTimeout); err != nil {
		return comm.Message{}, err
	}
	select {
	case m := <-shipped:
		return m, nil
	default:
		return comm.Message{}, fmt.Errorf("the transaction shipped no message")
	}
}

// probeCodec times the wire format of the TCP transport
// (comm.MsgWriter/MsgReader) on a real secondary. No workload of this
// benchmark encodes a message (the in-process transport passes values),
// so these probes are the only place a codec change shows.
func probeCodec(out map[string]float64, scale int, _ string) error {
	msg, err := shippedSecondary()
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	core.RegisterPayloads()
	n := scaled(50_000, scale)
	var buf bytes.Buffer
	w := comm.NewMsgWriter(&buf)
	// The first message on a gob stream also carries the type
	// descriptors; it is written (and later read) outside the timing.
	if _, err := w.WriteMsg(msg); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	var opErr error
	var wire int
	encNS, encAllocs := timeOps(n, func(int) {
		sz, err := w.WriteMsg(msg)
		if err != nil {
			opErr = err
		}
		wire += sz
	})
	r := comm.NewMsgReader(&buf)
	first, err := r.ReadMsg()
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if !reflect.DeepEqual(first.Payload, msg.Payload) {
		return fmt.Errorf("codec probe: payload %+v decoded as %+v", msg.Payload, first.Payload)
	}
	decNS, decAllocs := timeOps(n, func(int) {
		m, err := r.ReadMsg()
		if err != nil {
			opErr = err
		}
		sink += int64(m.To)
	})
	if opErr != nil {
		return fmt.Errorf("codec probe: %w", opErr)
	}
	out["comm.encode_ns"] = encNS
	out["comm.decode_ns"] = decNS
	out["comm.codec_allocs"] = encAllocs + decAllocs
	out["comm.bytes_per_secondary"] = float64(wire) / float64(n)
	return nil
}

// oneWay measures the mean time from Send on tr to the receiving
// handler running, one message in flight at a time.
func oneWay(tr comm.Transport, n int) (float64, error) {
	got := make(chan struct{}, 1)
	tr.Register(1, func(comm.Message) {})
	tr.Register(2, func(comm.Message) { got <- struct{}{} })
	var opErr error
	ns, _ := timeOps(n, func(int) {
		if err := tr.Send(comm.Message{From: 1, To: 2, Kind: 1}); err != nil {
			opErr = err
			return
		}
		<-got
	})
	return ns / 1e3, opErr
}

func probeTransports(out map[string]float64, scale int, _ string) error {
	n := scaled(50_000, scale)
	mem := comm.NewMemTransport(0)
	us, err := oneWay(mem, n)
	_ = mem.Close() // in-memory transport: Close only stops goroutines
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	out["comm.mem_send_overhead_us"] = us

	rel := comm.NewReliable(comm.NewMemTransport(0), comm.ReliableConfig{})
	us, err = oneWay(rel, n)
	_ = rel.Close()
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	out["comm.reliable_send_overhead_us"] = us

	mem = comm.NewMemTransport(0)
	defer mem.Close()
	caller, callee := comm.NewRPC(1, mem), comm.NewRPC(2, mem)
	mem.Register(1, caller.HandleResponse)
	mem.Register(2, func(m comm.Message) { callee.Reply(m, struct{}{}) })
	var opErr error
	ns, _ := timeOps(n, func(int) {
		if _, err := caller.Call(2, 1, struct{}{}, time.Second); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("rpc probe: %w", opErr)
	}
	out["comm.rpc_roundtrip_us"] = ns / 1e3
	return nil
}

func probeTwoPC(out map[string]float64, scale int, _ string) error {
	table := twopc.NewTable()
	var opErr error
	out["twopc.table_begin_finish_ns"], _ = timeOps(scaled(500_000, scale), func(i int) {
		tid := model.TxnID{Site: 0, Seq: uint64(i + 1)}
		if err := table.Begin(tid); err != nil {
			opErr = err
		}
		table.Prepare(tid)
		table.Finish(tid, true)
		if err := table.Forget(tid); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("twopc probe: %w", opErr)
	}

	// A full round as BackEdge runs it: the coordinator (site 0) asks two
	// participants over RPC to prepare, logs the decision, and delivers
	// it, over a zero-latency transport.
	const (
		kindPrepare  = 1
		kindDecision = 2
	)
	mem := comm.NewMemTransport(0)
	defer mem.Close()
	coord := comm.NewRPC(0, mem)
	mem.Register(0, coord.HandleResponse)
	for _, p := range []model.SiteID{1, 2} {
		rpc, tbl := comm.NewRPC(p, mem), twopc.NewTable()
		mem.Register(p, func(m comm.Message) {
			tid := m.Payload.(model.TxnID)
			if m.Kind == kindPrepare {
				_ = tbl.Begin(tid) // fresh id per round, cannot collide
				rpc.Reply(m, tbl.Prepare(tid))
				return
			}
			tbl.Finish(tid, true)
			_ = tbl.Forget(tid)
			rpc.Reply(m, true)
		})
	}
	c := twopc.Coordinator{
		Prepare: func(p model.SiteID, tid model.TxnID, _ model.SpanContext) (bool, error) {
			v, err := coord.Call(p, kindPrepare, tid, time.Second)
			if err != nil {
				return false, err
			}
			return v.(bool), nil
		},
		Decide: func(p model.SiteID, tid model.TxnID, _ bool, _ model.SpanContext) error {
			_, err := coord.Call(p, kindDecision, tid, time.Second)
			return err
		},
		Log: twopc.NewDecisionLog(),
	}
	participants := []model.SiteID{1, 2}
	ns, _ := timeOps(scaled(20_000, scale), func(i int) {
		ok, err := twopc.Run(model.TxnID{Site: 0, Seq: uint64(i + 1)}, participants, c, model.SpanContext{})
		if err != nil {
			opErr = err
		} else if !ok {
			opErr = fmt.Errorf("round %d aborted", i)
		}
	})
	if opErr != nil {
		return fmt.Errorf("twopc probe: %w", opErr)
	}
	out["twopc.round_us"] = ns / 1e3
	return nil
}

// probeSmall covers the layers with one hot function each.
func probeSmall(out map[string]float64, scale int, _ string) error {
	// Timestamps as DAG(T) compares them: same epoch, five tuples, equal
	// until the last.
	a, b := ts.New(0), ts.New(0)
	for s := 1; s < 5; s++ {
		a = a.Append(ts.Tuple{Site: model.SiteID(s), LTS: 7})
		b = b.Append(ts.Tuple{Site: model.SiteID(s), LTS: 7})
	}
	b = b.BumpLast()
	out["ts.compare_ns"], _ = timeOps(scaled(5_000_000, scale), func(int) {
		sink += int64(a.Compare(b))
	})

	wl := workload.Default()
	wl.BackedgeProb = 0
	placement, err := wl.GeneratePlacement()
	if err != nil {
		return fmt.Errorf("graph probe: %w", err)
	}
	g := graph.FromPlacement(placement)
	var opErr error
	ns, _ := timeOps(scaled(5_000, scale), func(int) {
		t, err := graph.BuildTree(g)
		if err != nil {
			opErr = err
			return
		}
		sink += int64(t.Depth(0))
	})
	if opErr != nil {
		return fmt.Errorf("graph probe: %w", opErr)
	}
	out["graph.tree_build_us"] = ns / 1e3

	gen := workload.NewTxnGen(wl, placement, 0, 7)
	out["workload.gen_ns"], _ = timeOps(scaled(1_000_000, scale), func(int) {
		sink += int64(len(gen.Next()))
	})
	return nil
}

// probeInstruments prices the observation hooks the engines call on
// their hot paths, each attached and recording.
func probeInstruments(out map[string]float64, scale int, _ string) error {
	rec := trace.NewRecorder()
	tid := model.TxnID{Site: 1, Seq: 9}
	ns, allocs := timeOps(scaled(200_000, scale), func(i int) {
		rec.RecordSpan(trace.SecondaryApplied, model.SiteID(i&7), 0, tid, 1, 5, 4)
	})
	out["trace.record_ns"] = ns
	out["trace.record_allocs"] = allocs

	ctr := obs.NewRegistry().Counter("probe_total")
	out["obs.counter_inc_ns"], _ = timeOps(scaled(20_000_000, scale), func(int) { ctr.Inc() })

	col := metrics.NewCollector(false)
	out["metrics.phase_sample_ns"], _ = timeOps(scaled(5_000_000, scale), func(i int) {
		col.PhaseSample(metrics.PhaseLockWait, time.Duration(i))
	})

	tr := fresh.New(9)
	const items = 64
	for i := 0; i < items; i++ {
		tr.NoteCommit(model.ItemID(i))
	}
	out["fresh.certify_read_ns"], _ = timeOps(scaled(2_000_000, scale), func(i int) {
		sink += int64(tr.CertifyRead(1, model.ItemID(i&(items-1)), 0).Versions)
	})
	out["fresh.note_apply_ns"], _ = timeOps(scaled(2_000_000, scale), func(i int) {
		tr.NoteApply(model.SiteID(1+i&7), model.ItemID(i&(items-1)))
	})
	return nil
}
