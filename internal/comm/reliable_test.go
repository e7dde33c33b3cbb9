package comm_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/obs"
)

// collector records delivered message kinds in arrival order.
type collector struct {
	mu  sync.Mutex
	got []int
}

func (c *collector) handler(m comm.Message) {
	c.mu.Lock()
	c.got = append(c.got, m.Kind)
	c.mu.Unlock()
}

func (c *collector) snapshot() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.got...)
}

func (c *collector) waitLen(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(c.snapshot()) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("only %d/%d delivered in %v", len(c.snapshot()), n, timeout)
}

func reliableOverFaults(t *testing.T, f fault.Faults, seed int64) (*comm.Reliable, *fault.Transport, *obs.Registry) {
	t.Helper()
	mem := comm.NewMemTransport(0)
	ft, err := fault.New(mem, fault.Config{Seed: seed, Faults: f}, fault.Lifecycle{})
	if err != nil {
		t.Fatal(err)
	}
	rel := comm.NewReliable(ft, comm.ReliableConfig{RTO: 10 * time.Millisecond})
	reg := obs.NewRegistry()
	rel.SetStats(obs.NewReliableStats(reg))
	t.Cleanup(func() { rel.Close() })
	return rel, ft, reg
}

func TestReliableExactlyOnceFIFOUnderChaos(t *testing.T) {
	rel, _, reg := reliableOverFaults(t, fault.Faults{
		Drop: 0.2, Duplicate: 0.1, Delay: 0.2,
		DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
	}, 99)
	var c collector
	rel.Register(1, c.handler)
	rel.Register(0, func(comm.Message) {})
	const n = 300
	for i := 0; i < n; i++ {
		if err := rel.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	c.waitLen(t, n, 30*time.Second)
	got := c.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d messages, want exactly %d (duplicates leaked?)", len(got), n)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("order broken at %d: got %d", i, k)
		}
	}
	snap := reg.Snapshot()
	if snap[`repl_reliable_retransmits_total{from="0",to="1"}`] == 0 {
		t.Error("expected retransmissions under 20% drop")
	}
}

func TestReliableDedupsPureDuplication(t *testing.T) {
	rel, _, reg := reliableOverFaults(t, fault.Faults{Duplicate: 1}, 3)
	var c collector
	rel.Register(1, c.handler)
	rel.Register(0, func(comm.Message) {})
	const n = 50
	for i := 0; i < n; i++ {
		if err := rel.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	c.waitLen(t, n, 10*time.Second)
	time.Sleep(50 * time.Millisecond) // give duplicates time to arrive (and be dropped)
	if got := c.snapshot(); len(got) != n {
		t.Fatalf("delivered %d, want exactly %d", len(got), n)
	}
	if reg.Snapshot()[`repl_reliable_dup_dropped_total{from="0",to="1"}`] == 0 {
		t.Error("expected duplicate drops under 100% duplication")
	}
}

func TestReliableSurvivesPartitionAndHeal(t *testing.T) {
	rel, ft, _ := reliableOverFaults(t, fault.Faults{}, 1)
	var c collector
	rel.Register(1, c.handler)
	rel.Register(0, func(comm.Message) {})
	ft.Partition(0, 1)
	for i := 0; i < 10; i++ {
		if err := rel.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := len(c.snapshot()); n != 0 {
		t.Fatalf("%d messages crossed a partitioned edge", n)
	}
	ft.Heal(0, 1)
	c.waitLen(t, 10, 10*time.Second)
	for i, k := range c.snapshot() {
		if k != i {
			t.Fatalf("post-heal order broken at %d: got %d", i, k)
		}
	}
}

func TestReliableSurvivesCrashRestart(t *testing.T) {
	rel, ft, _ := reliableOverFaults(t, fault.Faults{}, 1)
	var c collector
	rel.Register(1, c.handler)
	rel.Register(0, func(comm.Message) {})
	ft.Crash(1)
	for i := 0; i < 10; i++ {
		if err := rel.Send(comm.Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	ft.Restart(1)
	c.waitLen(t, 10, 10*time.Second)
	for i, k := range c.snapshot() {
		if k != i {
			t.Fatalf("post-restart order broken at %d: got %d", i, k)
		}
	}
}

func TestReliablePassesThroughNonEnvelopedMessages(t *testing.T) {
	mem := comm.NewMemTransport(0)
	rel := comm.NewReliable(mem, comm.ReliableConfig{})
	defer rel.Close()
	var c collector
	rel.Register(1, c.handler)
	// A message injected beneath the sublayer (no envelope) still reaches
	// the handler: mixed deployments degrade gracefully.
	if err := mem.Send(comm.Message{From: 0, To: 1, Kind: 7}); err != nil {
		t.Fatal(err)
	}
	c.waitLen(t, 1, 5*time.Second)
	if c.snapshot()[0] != 7 {
		t.Fatalf("got %v", c.snapshot())
	}
}

func TestReliableSendAfterClose(t *testing.T) {
	rel := comm.NewReliable(comm.NewMemTransport(0), comm.ReliableConfig{})
	rel.Register(1, func(comm.Message) {})
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rel.Send(comm.Message{From: 0, To: 1}); !errors.Is(err, comm.ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if err := rel.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReliableRPCOverLossyEdge(t *testing.T) {
	rel, _, _ := reliableOverFaults(t, fault.Faults{Drop: 0.3}, 17)
	server := comm.NewRPC(1, rel)
	client := comm.NewRPC(0, rel)
	rel.Register(1, func(m comm.Message) {
		if m.IsResp {
			server.HandleResponse(m)
			return
		}
		server.Reply(m, m.Payload.(int)*2)
	})
	rel.Register(0, func(m comm.Message) {
		if m.IsResp {
			client.HandleResponse(m)
		}
	})
	// With 30% drop an unprotected RPC fails often; over Reliable every
	// call must make it (retransmission outruns the generous timeout).
	for i := 0; i < 20; i++ {
		resp, err := client.Call(1, 5, i, 10*time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.(int) != i*2 {
			t.Fatalf("call %d: got %v", i, resp)
		}
	}
}
