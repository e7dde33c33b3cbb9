package fault

import (
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

func newFaulty(t *testing.T, cfg Config) (*Transport, *comm.MemTransport) {
	t.Helper()
	mem := comm.NewMemTransport(0)
	ft, err := New(mem, cfg, Lifecycle{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ft.Close() })
	return ft, mem
}

// collect registers a recording handler for site and returns the ordered
// kinds received plus a way to read them.
func collect(ft *Transport, site model.SiteID) func() []int {
	var mu sync.Mutex
	var got []int
	ft.Register(site, func(m comm.Message) {
		mu.Lock()
		got = append(got, m.Kind)
		mu.Unlock()
	})
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
}

func TestZeroFaultsPassThroughFIFO(t *testing.T) {
	ft, _ := newFaulty(t, Config{Seed: 1})
	read := collect(ft, 1)
	const n = 200
	for i := 0; i < n; i++ {
		if err := ft.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read()) == n })
	for i, k := range read() {
		if k != i {
			t.Fatalf("reordered at %d: got %d", i, k)
		}
	}
}

func TestDropDeterminismPerEdge(t *testing.T) {
	run := func() []int {
		ft, _ := newFaulty(t, Config{Seed: 42, Faults: Faults{Drop: 0.3}})
		read := collect(ft, 1)
		for i := 0; i < 300; i++ {
			if err := ft.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
				t.Fatal(err)
			}
		}
		// Zero-latency inner transport: quiesce by waiting for stability.
		var last []int
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			cur := read()
			if len(cur) == len(last) && len(cur) > 0 {
				return cur
			}
			last = cur
		}
		return read()
	}
	a, b := run(), run()
	if len(a) == 300 || len(a) == 0 {
		t.Fatalf("drop rate 0.3 delivered %d/300", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDuplicationCountsAndDelivers(t *testing.T) {
	reg := obs.NewRegistry()
	ft, _ := newFaulty(t, Config{Seed: 7, Faults: Faults{Duplicate: 1}})
	ft.SetObs(reg)
	read := collect(ft, 1)
	for i := 0; i < 10; i++ {
		if err := ft.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read()) == 20 })
	if got := reg.Snapshot()["repl_fault_duplicated_total"]; got != 10 {
		t.Errorf("duplicated counter = %d, want 10", got)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	reg := obs.NewRegistry()
	ft, _ := newFaulty(t, Config{Seed: 1})
	ft.SetObs(reg)
	read := collect(ft, 1)
	ft.Partition(0, 1)
	for i := 0; i < 5; i++ {
		_ = ft.Send(comm.Message{From: 0, To: 1, Kind: i})
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(read()); n != 0 {
		t.Fatalf("partitioned edge delivered %d messages", n)
	}
	ft.Heal(0, 1)
	_ = ft.Send(comm.Message{From: 0, To: 1, Kind: 99})
	waitFor(t, func() bool { return len(read()) == 1 })
	snap := reg.Snapshot()
	if snap[`repl_fault_dropped_total{reason="partition"}`] != 5 {
		t.Errorf("partition drops = %d, want 5", snap[`repl_fault_dropped_total{reason="partition"}`])
	}
	if snap["repl_fault_partition_cuts_total"] != 1 || snap["repl_fault_partition_heals_total"] != 1 {
		t.Errorf("cut/heal counters wrong: %v", snap)
	}
}

func TestCrashDropsBothDirectionsAndInFlight(t *testing.T) {
	mem := comm.NewMemTransport(50 * time.Millisecond)
	ft, err := New(mem, Config{Seed: 1}, Lifecycle{})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	reg := obs.NewRegistry()
	ft.SetObs(reg)
	read := collect(ft, 1)
	ft.Register(0, func(comm.Message) {})

	// In flight toward site 1 when it crashes: dropped at delivery.
	_ = ft.Send(comm.Message{From: 0, To: 1, Kind: 1})
	ft.Crash(1)
	// Sent while down, in both directions: dropped at send.
	_ = ft.Send(comm.Message{From: 0, To: 1, Kind: 2})
	_ = ft.Send(comm.Message{From: 1, To: 0, Kind: 3})
	time.Sleep(100 * time.Millisecond)
	if n := len(read()); n != 0 {
		t.Fatalf("crashed site received %d messages", n)
	}
	ft.Restart(1)
	_ = ft.Send(comm.Message{From: 0, To: 1, Kind: 4})
	waitFor(t, func() bool { return len(read()) == 1 })
	if got := read(); got[0] != 4 {
		t.Fatalf("post-restart message = %d, want 4", got[0])
	}
	snap := reg.Snapshot()
	if snap[`repl_fault_dropped_total{reason="crash"}`] != 3 {
		t.Errorf("crash drops = %d, want 3", snap[`repl_fault_dropped_total{reason="crash"}`])
	}
}

func TestDelayHoldsMessage(t *testing.T) {
	reg := obs.NewRegistry()
	ft, _ := newFaulty(t, Config{Seed: 1, Faults: Faults{Delay: 1, DelayMin: 40 * time.Millisecond, DelayMax: 60 * time.Millisecond}})
	ft.SetObs(reg)
	read := collect(ft, 1)
	start := time.Now()
	_ = ft.Send(comm.Message{From: 0, To: 1, Kind: 1})
	waitFor(t, func() bool { return len(read()) == 1 })
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Errorf("delayed message arrived after %v, want >= ~40ms", d)
	}
	if reg.Snapshot()["repl_fault_delayed_total"] != 1 {
		t.Errorf("delayed counter = %d, want 1", reg.Snapshot()["repl_fault_delayed_total"])
	}
}

// TestDelayedDropReason: a held message whose endpoint crashes, or whose
// edge is cut, before its delay ends is dropped under that reason and
// traced as a FaultDrop, like a drop at send.
func TestDelayedDropReason(t *testing.T) {
	for _, row := range []struct {
		reason string
		block  func(*Transport)
	}{
		{"crash", func(ft *Transport) { ft.Crash(1) }},
		{"partition", func(ft *Transport) { ft.Partition(0, 1) }},
	} {
		t.Run(row.reason, func(t *testing.T) {
			reg, rec := obs.NewRegistry(), trace.NewRecorder()
			ft, _ := newFaulty(t, Config{Seed: 1, Faults: Faults{Delay: 1, DelayMin: 40 * time.Millisecond, DelayMax: 40 * time.Millisecond}})
			ft.SetObs(reg)
			ft.SetTrace(rec)
			read := collect(ft, 1)
			_ = ft.Send(comm.Message{From: 0, To: 1, Kind: 1})
			row.block(ft)
			drops := func() (n int) {
				for _, ev := range rec.Snapshot() {
					if ev.Kind == trace.FaultDrop {
						n++
					}
				}
				return n
			}
			waitFor(t, func() bool { return drops() > 0 })
			snap := reg.Snapshot()
			for _, reason := range []string{"crash", "partition"} {
				want := int64(0)
				if reason == row.reason {
					want = 1
				}
				if got := snap[`repl_fault_dropped_total{reason="`+reason+`"}`]; got != want {
					t.Errorf("reason=%q drops = %d, want %d", reason, got, want)
				}
			}
			if n := drops(); n != 1 {
				t.Errorf("FaultDrop events = %d, want 1", n)
			}
			if n := len(read()); n != 0 {
				t.Errorf("blocked site received %d messages", n)
			}
		})
	}
}

func TestScheduleGenerateReproducible(t *testing.T) {
	a := Generate(123, 8, time.Second)
	b := Generate(123, 8, time.Second)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if a.String() == Generate(124, 8, time.Second).String() {
		t.Fatalf("different seeds produced identical schedules")
	}
	if len(a) != 6 {
		t.Fatalf("schedule has %d events, want 6:\n%s", len(a), a)
	}
	// The schedule must contain a cut+heal pair and a crash+restart pair,
	// each action after its counterpart.
	times := map[Op]time.Duration{}
	for _, e := range a {
		if _, ok := times[e.Op]; !ok {
			times[e.Op] = e.At
		}
	}
	if !(times[OpCut] < times[OpHeal]) || !(times[OpCrash] < times[OpRestart]) {
		t.Fatalf("schedule ordering wrong:\n%s", a)
	}
}

func TestPlayAppliesSchedule(t *testing.T) {
	ft, _ := newFaulty(t, Config{Seed: 1})
	ft.Register(1, func(comm.Message) {})
	s := Schedule{
		{At: 0, Op: OpCrash, A: 1},
		{At: 30 * time.Millisecond, Op: OpRestart, A: 1},
	}
	done := make(chan struct{})
	go func() { ft.Play(s); close(done) }()
	time.Sleep(10 * time.Millisecond)
	if !ft.Crashed(1) {
		t.Error("site 1 should be down after OpCrash")
	}
	<-done
	if ft.Crashed(1) {
		t.Error("site 1 should be up after OpRestart")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
