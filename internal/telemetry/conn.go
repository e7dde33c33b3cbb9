package telemetry

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/comm"
)

// Conn is one TCP connection from a publisher to an aggregator,
// carrying telemetry envelopes in the comm message framing.
// It is deliberately dumb — no buffering, no retry. A failed send means
// the connection is dead; the Publisher closes it and redials on its
// next cycle, resending full (non-delta) state.
type Conn struct {
	mu sync.Mutex
	c  net.Conn
	w  *comm.MsgWriter
}

// Dial connects to an aggregator.
func Dial(addr string) (*Conn, error) {
	RegisterPayloads()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("telemetry: dial %s: %w", addr, err)
	}
	return &Conn{c: c, w: comm.NewMsgWriter(c)}, nil
}

// SendFrame writes one envelope to the wire.
func (c *Conn) SendFrame(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.c == nil {
		return fmt.Errorf("telemetry: connection closed")
	}
	_ = c.c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.w.WriteMsg(envelope(f)); err != nil {
		return fmt.Errorf("telemetry: send frame %d: %w", f.Seq, err)
	}
	return nil
}

// Close closes the connection; closing twice is harmless.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.c == nil {
		return nil
	}
	err := c.c.Close()
	c.c = nil
	return err
}
