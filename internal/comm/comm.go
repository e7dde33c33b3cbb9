// Package comm provides the inter-site messaging substrate. The paper's
// prototype ran sites over 10 Mbit ethernet using TCP sockets (§5); the
// protocols only require that the network "delivers messages reliably and
// in FIFO order between any two sites" (§1.1). Two transports implement
// that contract:
//
//   - MemTransport: in-process delivery with configurable per-edge latency
//     (default 0.15 ms, the paper's measured ethernet latency), used by
//     the simulation harness;
//   - TCPTransport: real sockets with length-prefixed gob frames, used by
//     cmd/replnode for multi-process deployments.
//
// An RPC helper layers request/reply (needed by the PSL protocol's remote
// reads and the BackEdge protocol's two-phase commit) on top of the
// one-way transport.
package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/model"
)

// Message is one unit of inter-site communication.
type Message struct {
	From, To model.SiteID
	Kind     int    // protocol-defined discriminator
	ReqID    uint64 // nonzero for RPC requests/responses
	IsResp   bool
	// Span is the causal span context of the sending work; the zero
	// value means unattributed (docs/OBSERVABILITY.md).
	Span model.SpanContext
	// SentAt, when non-zero, is the sender's wall-clock send stamp;
	// receivers turn it into a transport-phase latency sample
	// (metrics.PhaseTransport). Engines stamp it only on one-way
	// propagation traffic — RPC round trips are attributed as whole
	// phases (vote/decision/remote read) instead.
	SentAt  time.Time
	Payload any
}

// Handler consumes delivered messages. Handlers must not block for long:
// blocking work (lock waits, transaction execution) belongs in queues or
// spawned goroutines, or FIFO delivery from the sender stalls.
type Handler func(Message)

// Transport delivers messages reliably and in FIFO order between each
// ordered pair of sites.
type Transport interface {
	// Send enqueues msg for delivery to msg.To. It does not wait for the
	// receiver's handler to run, but it may block while the transport has
	// no room for msg: MemTransport holds at most 4096 undelivered messages
	// per ordered site pair and blocks the sender beyond that, returning
	// ErrClosed if the transport closes meanwhile; TCPTransport waits for
	// the socket write.
	Send(msg Message) error
	// Register installs the handler for a site. Must be called for every
	// site before any Send targets it.
	Register(site model.SiteID, h Handler)
	// Close shuts the transport down; pending messages may be dropped.
	Close() error
}

// ErrClosed is returned by a Send that starts after Close, or that is still
// waiting for room when Close runs.
var ErrClosed = errors.New("comm: transport closed")

// Stats observes transport activity for the live metrics registry.
// Implementations must be safe for concurrent use and cheap: the
// callbacks run on the send path and the delivery goroutines. A nil
// Stats disables observation.
type Stats interface {
	// CommSent is called once per message handed to the transport, with
	// the message's wire size in bytes (exact for TCP, approximated via
	// PayloadSizer for the in-process transport).
	CommSent(from, to model.SiteID, bytes int)
	// CommLatency reports one per-edge latency sample: transit latency
	// (send to handler invocation) on the in-process transport, local
	// send latency (encode + write) on TCP. Negative means unknown.
	CommLatency(from, to model.SiteID, d time.Duration)
}

// PayloadSizer lets protocol payloads report their approximate wire size
// so the in-process transport can account bytes without serializing.
type PayloadSizer interface{ WireSize() int }

// Per-message envelope overhead (From/To/Kind/ReqID/IsResp plus framing),
// and the fallback payload estimate for payloads that do not implement
// PayloadSizer (all such payloads are small fixed-size structs).
const (
	msgHeaderSize      = 32
	defaultPayloadSize = 48
	// spanWireSize is the extra envelope cost of a non-zero span context
	// (txn id + parent span + hop count, gob-framed).
	spanWireSize = 24
)

func msgWireSize(m Message) int {
	n := msgHeaderSize
	if !m.Span.Zero() {
		n += spanWireSize
	}
	if s, ok := m.Payload.(PayloadSizer); ok {
		return n + s.WireSize()
	}
	return n + defaultPayloadSize
}

// sleepFloor is the shortest delay worth sleeping for; see deliver.
const sleepFloor = 500 * time.Microsecond

// edgeBound is how many messages MemTransport holds undelivered on one
// ordered site pair before Send blocks: the transport's only flow control,
// so a fast sender runs at most this many messages ahead of a slow handler.
const edgeBound = 4096

type pair struct{ from, to model.SiteID }

type timedMsg struct {
	msg  Message
	sent time.Time
	due  time.Time
}

// MemTransport is the in-process transport. Each ordered site pair gets a
// dedicated delivery goroutine reading a FIFO inbox of at most edgeBound
// messages; a message becomes deliverable Latency after it was sent, and
// deliveries pipeline (latency delays each message but does not serialize
// throughput). Send blocks while its pair's inbox is full.
type MemTransport struct {
	mu       sync.Mutex
	handlers map[model.SiteID]Handler
	edges    map[pair]*Inbox[timedMsg]
	latency  time.Duration
	jitter   time.Duration
	edgeLat  map[pair]time.Duration
	rng      *rand.Rand
	stats    Stats
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewMemTransport returns an in-process transport with the given default
// one-way latency.
func NewMemTransport(latency time.Duration) *MemTransport {
	return &MemTransport{
		handlers: make(map[model.SiteID]Handler),
		edges:    make(map[pair]*Inbox[timedMsg]),
		latency:  latency,
		edgeLat:  make(map[pair]time.Duration),
		rng:      rand.New(rand.NewSource(1)),
		done:     make(chan struct{}),
	}
}

// SetEdgeLatency overrides the latency of one directed edge; tests use it
// to force message races (e.g. reproducing Example 1.1).
func (t *MemTransport) SetEdgeLatency(from, to model.SiteID, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.edgeLat[pair{from, to}] = d
}

// SetJitter adds a uniform random extra delay in [0, j) to every message.
// Per-pair FIFO order is preserved regardless: each delivery goroutine
// consumes its queue in send order and only ever delays, never reorders.
func (t *MemTransport) SetJitter(j time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jitter = j
}

// SetSeed reseeds the jitter RNG (the default seed is 1). The jitter
// stream is drawn under the transport lock in Send order, so a fixed seed
// yields the same delay sequence whenever the send order is the same —
// deterministic for single-sender tests, best-effort for concurrent ones.
func (t *MemTransport) SetSeed(seed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rng = rand.New(rand.NewSource(seed))
}

// delayFor computes one message's delivery delay on edge p: the edge
// override if present (else the default latency), plus one jitter draw.
// The caller holds t.mu — the single RNG stream is part of the seeded
// determinism contract above.
func (t *MemTransport) delayFor(p pair) time.Duration {
	lat := t.latency
	if d, ok := t.edgeLat[p]; ok {
		lat = d
	}
	if t.jitter > 0 {
		lat += time.Duration(t.rng.Int63n(int64(t.jitter)))
	}
	return lat
}

// SetStats installs the transport activity observer (nil disables). Call
// before traffic starts.
func (t *MemTransport) SetStats(s Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = s
}

// Register implements Transport.
func (t *MemTransport) Register(site model.SiteID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[site] = h
}

// Send implements Transport. It blocks while edgeBound messages from
// msg.From to msg.To are undelivered, and returns ErrClosed if Close runs
// first.
func (t *MemTransport) Send(msg Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	p := pair{msg.From, msg.To}
	in, ok := t.edges[p]
	if !ok {
		in = NewInbox[timedMsg](edgeBound)
		t.edges[p] = in
		t.wg.Add(1)
		go t.deliver(p, in)
	}
	lat := t.delayFor(p)
	stats := t.stats
	t.mu.Unlock()
	if stats != nil {
		stats.CommSent(msg.From, msg.To, msgWireSize(msg))
	}
	now := time.Now()
	// Block if the inbox is full (reliable delivery, never drop), but give
	// up if the transport shuts down meanwhile.
	if !in.Push(timedMsg{msg: msg, sent: now, due: now.Add(lat)}, t.done) {
		return ErrClosed
	}
	return nil
}

func (t *MemTransport) deliver(p pair, in *Inbox[timedMsg]) {
	defer t.wg.Done()
	for {
		tm, ok := in.Next(t.done)
		if !ok {
			return
		}
		// time.Sleep/After have a millisecond-scale floor on many kernels,
		// which would inflate the paper's 0.15 ms ethernet latency ~8x and
		// distort every protocol's messaging cost. Sub-floor delays are
		// therefore approximated by the goroutine handoff itself (~0.1 ms
		// on a loaded box); only delays that a sleep can actually resolve
		// are slept.
		if d := time.Until(tm.due); d > sleepFloor {
			select {
			case <-time.After(d):
			case <-t.done:
				return
			}
		}
		t.mu.Lock()
		h := t.handlers[p.to]
		stats := t.stats
		t.mu.Unlock()
		if h == nil {
			panic(fmt.Sprintf("comm: no handler registered for site %d", p.to))
		}
		if stats != nil {
			stats.CommLatency(p.from, p.to, time.Since(tm.sent))
		}
		h(tm.msg)
	}
}

// Close implements Transport. In-flight messages are dropped.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
