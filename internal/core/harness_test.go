package core

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/watch"
)

// testParams are Table 1 parameters scaled for test speed.
func testParams() Params {
	return Params{
		LockTimeout:    20 * time.Millisecond,
		PrepareTimeout: 250 * time.Millisecond,
		EpochPeriod:    5 * time.Millisecond,
		DummyPeriod:    3 * time.Millisecond,
		OpCost:         0,
		RPCTimeout:     100 * time.Millisecond,
	}
}

// system is a hand-assembled mini-cluster for driving engines directly.
type system struct {
	placement *model.Placement
	topo      *Topology
	engines   []Engine
	transport *comm.MemTransport
	recorder  *history.Recorder
	collector *metrics.Collector
	registry  *obs.Registry
	tracer    *trace.Recorder
	tr        comm.Transport // what the engines send on
}

// topology derives proto's topology over p with params, failing the test
// on error.
func topology(t *testing.T, proto Protocol, p *model.Placement, params Params, shape Shape) *Topology {
	t.Helper()
	topo, err := NewTopology(proto, p, params, shape)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// placement builds a model.Placement from primaries and replica lists.
func placement(t *testing.T, sites int, primary []model.SiteID, replicas [][]model.SiteID) *model.Placement {
	t.Helper()
	p := model.NewPlacement(sites, len(primary))
	copy(p.Primary, primary)
	for i, r := range replicas {
		p.Replicas[i] = r
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildSystem wires engines exactly the way the cluster package does
// (ID-order chain, order backedges) but under test control.
func buildSystem(t *testing.T, proto Protocol, p *model.Placement, params Params, latency time.Duration) *system {
	t.Helper()
	return buildSystemFull(t, proto, p, params, latency, Shape{}, nil, nil)
}

// buildSystemFull additionally shapes the topology, lets a test interpose
// on the transport the engines see (wrap non-nil), e.g. to drop selected
// messages, and gives sites redo logs (logs[s] for site s).
func buildSystemFull(t *testing.T, proto Protocol, p *model.Placement, params Params, latency time.Duration, shape Shape, wrap func(comm.Transport) comm.Transport, logs map[model.SiteID]*wal.SiteLog) *system {
	t.Helper()
	s := &system{
		placement: p,
		topo:      topology(t, proto, p, params, shape),
		transport: comm.NewMemTransport(latency),
		recorder:  history.NewRecorder(),
		collector: metrics.NewCollector(true),
		registry:  obs.NewRegistry(),
		tracer:    trace.NewRecorder(),
	}
	s.collector.Begin()
	s.tr = s.transport
	if wrap != nil {
		s.tr = wrap(s.transport)
	}
	for i := 0; i < p.NumSites; i++ {
		id := model.SiteID(i)
		e, err := New(proto, s.topo, s.site(id, logs[id]), s.tr)
		if err != nil {
			t.Fatal(err)
		}
		s.engines = append(s.engines, e)
	}
	// Start only once every site's handler is registered: a started DAG(T)
	// source sends dummies within a DummyPeriod, which can beat the
	// construction of the sites after it.
	for _, e := range s.engines {
		e.Start()
	}
	t.Cleanup(func() {
		for _, e := range s.engines {
			e.Stop()
		}
		_ = s.transport.Close()
	})
	return s
}

// site is the per-site input of site id over lg (nil for no log), with
// the system's sinks.
func (s *system) site(id model.SiteID, lg *wal.SiteLog) Site {
	return Site{ID: id, Log: lg, Sinks: Sinks{
		Recorder: s.recorder, Metrics: s.collector, Obs: s.registry, Trace: s.tracer,
	}}
}

// statuses reads every site's engine.
func (s *system) statuses() []watch.Status {
	out := make([]watch.Status, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Status()
	}
	return out
}

// quiesce waits, as the cluster's Quiesce does, until Quiescent holds
// over two successive reads of every site.
func (s *system) quiesce(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		first := s.statuses()
		if Quiescent(first, s.statuses()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("propagation did not quiesce: %+v", first)
		}
		time.Sleep(time.Millisecond)
	}
}

// value reads the committed store value of item at site (bypassing
// concurrency control; use on quiet copies only).
func (s *system) value(t *testing.T, site model.SiteID, item model.ItemID) int64 {
	t.Helper()
	type snapshotter interface {
		Snapshot() map[model.ItemID]int64
	}
	return s.engines[site].(snapshotter).Snapshot()[item]
}

// waitValue polls until the copy of item at site reaches want.
func (s *system) waitValue(t *testing.T, site model.SiteID, item model.ItemID, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.value(t, site, item) == want {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("s%d copy of item %d never reached %d (have %d)", site, item, want, s.value(t, site, item))
}

// example11Placement is the data layout of Example 1.1: item 0 ("a")
// primary at s0 with replicas at s1 and s2; item 1 ("b") primary at s1
// with a replica at s2.
func example11Placement(t *testing.T) *model.Placement {
	return placement(t, 3,
		[]model.SiteID{0, 1},
		[][]model.SiteID{{1, 2}, {2}})
}

// example41Placement is the layout of Example 4.1: item 0 ("a") primary
// at s0 replicated at s1; item 1 ("b") primary at s1 replicated at s0 —
// a two-site cycle in the copy graph.
func example41Placement(t *testing.T) *model.Placement {
	return placement(t, 2,
		[]model.SiteID{0, 1},
		[][]model.SiteID{{1}, {0}})
}

func r(item model.ItemID) model.Op { return model.Op{Kind: model.OpRead, Item: item} }
func w(item model.ItemID, v int64) model.Op {
	return model.Op{Kind: model.OpWrite, Item: item, Value: v}
}
