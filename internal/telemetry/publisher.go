package telemetry

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/watch"
)

const (
	// interval is the publish period.
	interval = 250 * time.Millisecond
	// spanBuffer caps the span-event ring between cycles. Overflow drops
	// the oldest events and counts them, so a stalled aggregator degrades
	// span federation, never the publishing process.
	spanBuffer = 8192
)

// Options configures a Publisher: where it sends, and the sources each
// cycle's Frame is read from. Every source is optional; an absent one
// leaves its Frame field nil. Probes run on the publish goroutine and
// must return absolute state (frames carry state, not deltas, so replay
// is harmless).
type Options struct {
	// Proc is this process's stable name (Frame.Proc); each publisher in
	// a cluster needs a distinct one.
	Proc string
	// Addr is the aggregator's TCP address. The publisher owns the
	// connection: it dials lazily, and after a send failure it redials on
	// the next cycle and resends a full (non-delta) state.
	Addr string
	// Protocol and Sites are announced in every frame.
	Protocol string
	Sites    []model.SiteID
	// Obs is the registry whose snapshots are delta-shipped; the
	// publisher registers its own repl_telemetry_* series into it.
	Obs *obs.Registry
	// Watch is the watchdog whose active alerts are shipped.
	Watch *watch.Watchdog
	// Report supplies the process's metrics.Report, whose phase-latency
	// summaries are shipped.
	Report func() metrics.Report
	// Heat supplies the process's merged per-item heat table
	// (contend.BuildHeat over its sites).
	Heat func() []contend.HeatEntry
}

// pubObs holds the publisher's own health series, registered into the
// same registry it snapshots — so telemetry overhead and loss are
// visible through the plane itself.
type pubObs struct {
	frames *obs.Counter // repl_telemetry_frames_total
	errs   *obs.Counter // repl_telemetry_send_errors_total
	drops  *obs.Counter // repl_telemetry_events_dropped_total
}

// Publisher streams one process's observability state, one Frame per
// cycle. Install Ingest with trace.Recorder.AddSink so span-carrying
// events reach it, then Start. All methods are safe for concurrent use.
type Publisher struct {
	opts Options
	po   pubObs

	// pubMu serializes publish cycles (ticker vs. explicit Flush) and
	// guards the connection and delta state; mu guards the event ring and
	// is never held across a send or a probe of another subsystem.
	pubMu sync.Mutex
	mu    sync.Mutex

	conn *Conn            // repl:guardedby(pubMu)
	last map[string]int64 // registry as of the last delivered cycle // repl:guardedby(pubMu)
	seq  uint64           // repl:guardedby(pubMu)
	// send, when set, replaces the wire: in-package tests deliver frames
	// straight into an aggregator.
	send func(Frame) error

	buf      []trace.Event // repl:guardedby(mu)
	bufStart int           // repl:guardedby(mu)
	bufN     int           // repl:guardedby(mu)
	dropped  uint64        // repl:guardedby(mu)

	stop chan struct{}
	done chan struct{}
}

// NewPublisher returns a stopped publisher.
//
//lint:allow guardedby construction is single-threaded; the publish loop and trace sinks that share the ring only exist after Start
func NewPublisher(o Options) (*Publisher, error) {
	if o.Proc == "" {
		return nil, fmt.Errorf("telemetry: Options.Proc is required")
	}
	if o.Addr == "" {
		return nil, fmt.Errorf("telemetry: Options.Addr is required")
	}
	o.Sites = append([]model.SiteID(nil), o.Sites...)
	return &Publisher{
		opts: o,
		po: pubObs{
			frames: o.Obs.Counter("repl_telemetry_frames_total"),
			errs:   o.Obs.Counter("repl_telemetry_send_errors_total"),
			drops:  o.Obs.Counter("repl_telemetry_events_dropped_total"),
		},
		buf: make([]trace.Event, spanBuffer),
	}, nil
}

// Ingest buffers one span-carrying trace event for the next cycle.
// Install it with rec.AddSink(p.Ingest) — alongside, not instead of, the
// watchdog's sink. Span-less events (phase latencies, watchdog alerts)
// are skipped: phases ship as Frame.Phases and alerts as Frame.Alerts.
func (p *Publisher) Ingest(ev trace.Event) {
	if p == nil || ev.Span == 0 {
		return
	}
	p.mu.Lock()
	if p.bufN == len(p.buf) {
		p.bufStart = (p.bufStart + 1) % len(p.buf)
		p.bufN--
		p.dropped++
		p.po.drops.Inc()
	}
	p.buf[(p.bufStart+p.bufN)%len(p.buf)] = ev
	p.bufN++
	p.mu.Unlock()
}

// Start launches the periodic publish loop.
func (p *Publisher) Start() {
	if p == nil || p.stop != nil {
		return
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
}

// Stop ends the loop, publishes one final cycle (so the last deltas and
// span events reach the aggregator), and closes the connection.
func (p *Publisher) Stop() {
	if p == nil {
		return
	}
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	//lint:allow senderr final flush on shutdown: the error is already counted in repl_telemetry_send_errors_total
	_ = p.Flush()
	p.pubMu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.pubMu.Unlock()
}

func (p *Publisher) loop() {
	defer close(p.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			//lint:allow senderr periodic publish: the error is counted and the next tick redials
			_ = p.Flush()
		case <-p.stop:
			return
		}
	}
}

// Flush runs one publish cycle synchronously. On a send failure the
// connection is discarded (the next cycle redials), the cycle's span
// events go back into the ring, the metrics delta stays measured
// against the last delivered cycle, and the error is returned after
// being counted.
func (p *Publisher) Flush() error {
	if p == nil {
		return nil
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	if p.send == nil && p.conn == nil {
		c, err := Dial(p.opts.Addr)
		if err != nil {
			p.po.errs.Inc()
			return err
		}
		// A fresh connection means a possibly fresh aggregator: resend the
		// whole registry, not a delta against state the old one saw.
		p.conn, p.last = c, nil
	}

	f, cur := p.frame()
	var err error
	if p.send != nil {
		err = p.send(f)
	} else {
		err = p.conn.SendFrame(f)
	}
	if err != nil {
		p.po.errs.Inc()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		// Newest events survive if the ring overflows meanwhile.
		for _, ev := range f.Events {
			p.Ingest(ev)
		}
		return err
	}
	p.po.frames.Inc()
	p.last = cur
	return nil
}

// frame assembles one cycle's Frame from the sources, draining the event
// ring, and returns it with the full registry snapshot its delta was
// taken against. Sources are read outside p.mu: the registry and
// watchdog have their own locks. Caller holds p.pubMu.
func (p *Publisher) frame() (Frame, map[string]int64) {
	o := p.opts
	p.seq++
	f := Frame{Proc: o.Proc, Seq: p.seq, Protocol: o.Protocol, Sites: o.Sites}
	var cur map[string]int64
	if o.Obs != nil {
		cur = o.Obs.Snapshot()
		for k, v := range cur {
			if old, ok := p.last[k]; !ok || old != v {
				if f.Metrics == nil {
					f.Metrics = make(map[string]int64)
				}
				f.Metrics[k] = v
			}
		}
	}
	if o.Report != nil {
		f.Phases = o.Report().Phases
	}
	f.Alerts = o.Watch.Active()
	if o.Heat != nil {
		f.Heat = o.Heat()
	}

	p.mu.Lock()
	if p.bufN > 0 {
		f.Events = make([]trace.Event, 0, p.bufN)
		for i := 0; i < p.bufN; i++ {
			f.Events = append(f.Events, p.buf[(p.bufStart+i)%len(p.buf)])
		}
		p.bufN, p.bufStart = 0, 0
	}
	f.Dropped = p.dropped
	p.mu.Unlock()
	return f, cur
}
