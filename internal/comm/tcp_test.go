package comm

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

type tcpPayload struct{ N int }

func init() { RegisterPayload(tcpPayload{}) }

// tcpPair starts two TCP transports on loopback and returns them.
func tcpPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	// Bootstrap: bind both listeners on port 0, then teach each the
	// other's real address.
	addrs := map[model.SiteID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(1, addrs)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.addrs = map[model.SiteID]string{0: a.Addr(), 1: b.Addr()}
	b.addrs = map[model.SiteID]string{0: a.Addr(), 1: b.Addr()}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan Message, 1)
	b.Register(1, func(m Message) { got <- m })
	a.Register(0, func(Message) {})
	if err := a.Send(Message{From: 0, To: 1, Kind: 3, Payload: tcpPayload{N: 9}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != 3 || m.Payload.(tcpPayload).N != 9 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestTCPFIFO(t *testing.T) {
	a, b := tcpPair(t)
	const n = 200
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	b.Register(1, func(m Message) {
		mu.Lock()
		got = append(got, m.Payload.(tcpPayload).N)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	a.Register(0, func(Message) {})
	for i := 0; i < n; i++ {
		if err := a.Send(Message{From: 0, To: 1, Payload: tcpPayload{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d delivered", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered at %d: %d", i, v)
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := tcpPair(t)
	fromA := make(chan Message, 1)
	fromB := make(chan Message, 1)
	a.Register(0, func(m Message) { fromB <- m })
	b.Register(1, func(m Message) { fromA <- m })
	_ = a.Send(Message{From: 0, To: 1, Payload: tcpPayload{N: 1}})
	_ = b.Send(Message{From: 1, To: 0, Payload: tcpPayload{N: 2}})
	select {
	case <-fromA:
	case <-time.After(2 * time.Second):
		t.Fatal("a->b lost")
	}
	select {
	case <-fromB:
	case <-time.After(2 * time.Second):
		t.Fatal("b->a lost")
	}
}

func TestTCPSendToUnknownSite(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send(Message{From: 0, To: 9}); err == nil {
		t.Error("send to unknown site succeeded")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	addrs := map[model.SiteID]string{0: "127.0.0.1:0"}
	tr, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Close()
	if err := tr.Send(Message{From: 0, To: 0}); err != ErrClosed {
		t.Errorf("want ErrClosed, got %v", err)
	}
}

// killInbound closes every raw connection currently accepted by tr,
// breaking its peers' outbound streams mid-run.
func killInbound(tr *TCPTransport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, c := range tr.raws {
		c.Close()
		n++
	}
	return n
}

// reconCounter records reconnect events (implements Stats + ReconnectStats).
type reconCounter struct {
	mu sync.Mutex
	n  int
}

func (r *reconCounter) CommSent(model.SiteID, model.SiteID, int)              {}
func (r *reconCounter) CommLatency(model.SiteID, model.SiteID, time.Duration) {}
func (r *reconCounter) CommReconnect(model.SiteID, model.SiteID) {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}
func (r *reconCounter) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func TestTCPReconnectAfterKilledConnection(t *testing.T) {
	a, b := tcpPair(t)
	var rc reconCounter
	a.SetStats(&rc)
	var mu sync.Mutex
	var got []int
	b.Register(1, func(m Message) {
		mu.Lock()
		got = append(got, m.Payload.(tcpPayload).N)
		mu.Unlock()
	})
	a.Register(0, func(Message) {})
	if err := a.Send(Message{From: 0, To: 1, Payload: tcpPayload{N: 0}}); err != nil {
		t.Fatal(err)
	}
	// Message 0's delivery proves b accepted the connection (serve starts
	// after accept records it), so there is a connection to kill.
	for first := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(first) {
			t.Fatal("message 0 never delivered")
		}
	}
	if killInbound(b) == 0 {
		t.Fatal("no inbound connection to kill")
	}
	// Keep sending: the first write(s) into the dead socket surface an
	// error inside Send, which re-dials and re-encodes. Later messages
	// must flow again.
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; rc.count() == 0 && time.Now().Before(deadline); i++ {
		_ = a.Send(Message{From: 0, To: 1, Payload: tcpPayload{N: i}})
		time.Sleep(5 * time.Millisecond)
	}
	if rc.count() == 0 {
		t.Fatal("no reconnect observed after killing the connection")
	}
	// Post-reconnect the edge works: a fresh sentinel must arrive.
	if err := a.Send(Message{From: 0, To: 1, Payload: tcpPayload{N: 999999}}); err != nil {
		t.Fatal(err)
	}
	okBy := time.Now().Add(5 * time.Second)
	for time.Now().Before(okBy) {
		mu.Lock()
		n := len(got)
		last := -1
		if n > 0 {
			last = got[n-1]
		}
		mu.Unlock()
		if last == 999999 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("edge dead after reconnect: sentinel never delivered")
}

// TestReliableOverTCPSurvivesKilledConnection is the no-loss guarantee:
// TCP reconnection restores the edge, and the Reliable sublayer's
// retransmission recovers the messages that died with the old socket, so
// the receiver observes every message exactly once, in order.
func TestReliableOverTCPSurvivesKilledConnection(t *testing.T) {
	RegisterReliablePayloads()
	a, b := tcpPair(t)
	a.SetTimeouts(time.Second, time.Second, 2*time.Second)
	ra := NewReliable(a, ReliableConfig{RTO: 30 * time.Millisecond})
	rb := NewReliable(b, ReliableConfig{RTO: 30 * time.Millisecond})
	t.Cleanup(func() { ra.Close(); rb.Close() })

	const n = 200
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	rb.Register(1, func(m Message) {
		mu.Lock()
		got = append(got, m.Payload.(tcpPayload).N)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	ra.Register(0, func(Message) {})

	for i := 0; i < n; i++ {
		if i == n/2 {
			killInbound(b) // the stream dies mid-run, in-flight bytes and all
		}
		if err := ra.Send(Message{From: 0, To: 1, Payload: tcpPayload{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d delivered after killed connection", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d, want exactly %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered or lost at %d: got %d", i, v)
		}
	}
}

// TestTCPSendDuringCloseNeverSucceedsAfterClose audits every Send path
// against Close: once Close returns, every Send must yield ErrClosed —
// including Sends parked in the redial backoff for a down peer.
func TestTCPSendDuringCloseNeverSucceedsAfterClose(t *testing.T) {
	// A dead peer: listener opened and immediately closed, so dials fail.
	deadLn, err := NewTCPTransport(1, map[model.SiteID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr()
	deadLn.Close()

	tr, err := NewTCPTransport(0, map[model.SiteID]string{0: "127.0.0.1:0", 1: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTimeouts(100*time.Millisecond, 0, 30*time.Second)
	tr.Register(0, func(Message) {})

	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		// Parks in the redial backoff loop (the peer is down and the
		// reconnect budget is huge); Close must eject it with ErrClosed.
		result <- tr.Send(Message{From: 0, To: 1})
	}()
	<-started
	time.Sleep(50 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-result:
		if err != ErrClosed {
			t.Errorf("in-flight Send during Close: want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after Close")
	}
	if err := tr.Send(Message{From: 0, To: 1}); err != ErrClosed {
		t.Errorf("Send after Close: want ErrClosed, got %v", err)
	}
}

func TestTCPRegisterWrongSitePanics(t *testing.T) {
	a, _ := tcpPair(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Register(5, func(Message) {})
}
