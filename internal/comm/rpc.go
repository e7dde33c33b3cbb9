package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// ErrRPCTimeout is returned by Call when no response arrives in time.
var ErrRPCTimeout = errors.New("comm: rpc timed out")

// RemoteError carries an application-level failure back to the caller.
type RemoteError struct{ Msg string }

func (e RemoteError) Error() string { return "comm: remote error: " + e.Msg }

// RPC layers request/reply on top of a Transport for one site. The owner
// must route every incoming message with IsResp==true to HandleResponse;
// requests are handled by the owner's normal message dispatch, which
// answers them with Reply.
type RPC struct {
	site model.SiteID
	tr   Transport

	next    atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan Message
	late    func(from model.SiteID, kind int)
}

// NewRPC returns an RPC endpoint for site over tr.
func NewRPC(site model.SiteID, tr Transport) *RPC {
	return &RPC{site: site, tr: tr, pending: make(map[uint64]chan Message)}
}

// SetLateHook installs an observer called once per response that arrives
// after its caller gave up (nil disables). Call before traffic starts.
func (r *RPC) SetLateHook(fn func(from model.SiteID, kind int)) {
	r.mu.Lock()
	r.late = fn
	r.mu.Unlock()
}

func (r *RPC) noteLate(from model.SiteID, kind int) {
	r.mu.Lock()
	fn := r.late
	r.mu.Unlock()
	if fn != nil {
		fn(from, kind)
	}
}

// Call sends a request and waits for the matching response or the
// timeout. A response whose payload is a RemoteError is unwrapped into an
// error return.
func (r *RPC) Call(to model.SiteID, kind int, payload any, timeout time.Duration) (any, error) {
	return r.CallSpan(to, kind, payload, timeout, model.SpanContext{})
}

// CallSpan is Call with a causal span context stamped on the request
// (and, via Reply, echoed on the response).
func (r *RPC) CallSpan(to model.SiteID, kind int, payload any, timeout time.Duration, sc model.SpanContext) (any, error) {
	id := r.next.Add(1)
	ch := make(chan Message, 1)
	r.mu.Lock()
	r.pending[id] = ch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		// HandleResponse sends into ch only while holding r.mu, so after
		// the delete nothing more arrives: a response it buffered after the
		// timer fired is here now. Drain it so it is counted late rather
		// than silently vanishing.
		select {
		case resp := <-ch:
			r.noteLate(resp.From, resp.Kind)
		default:
		}
	}()

	err := r.tr.Send(Message{From: r.site, To: to, Kind: kind, ReqID: id, Span: sc, Payload: payload})
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if re, ok := resp.Payload.(RemoteError); ok {
			return nil, re
		}
		return resp.Payload, nil
	case <-timer.C:
		return nil, fmt.Errorf("%w: kind %d to s%d", ErrRPCTimeout, kind, to)
	}
}

// CallRetry is Call with up to attempts tries, re-sending on timeout with
// the same per-attempt timeout. Only use it for idempotent requests: a
// timed-out attempt may still have been executed by the callee, so a
// retry can execute it again. Non-timeout failures (transport error,
// RemoteError) are returned immediately — retrying cannot fix those.
func (r *RPC) CallRetry(to model.SiteID, kind int, payload any, timeout time.Duration, attempts int) (any, error) {
	return r.CallRetrySpan(to, kind, payload, timeout, attempts, model.SpanContext{})
}

// CallRetrySpan is CallRetry with a causal span context on each attempt.
func (r *RPC) CallRetrySpan(to model.SiteID, kind int, payload any, timeout time.Duration, attempts int, sc model.SpanContext) (any, error) {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		var resp any
		resp, err = r.CallSpan(to, kind, payload, timeout, sc)
		if err == nil || !errors.Is(err, ErrRPCTimeout) {
			return resp, err
		}
	}
	return nil, fmt.Errorf("comm: %d attempts: %w", attempts, err)
}

// Reply answers a request message. The response reuses the request's kind
// with IsResp set. A reply that externalizes a logged transition must
// follow that record's fsync; the engines route such replies through a
// sink marked for the waldiscipline analyzer (docs/DURABILITY.md).
func (r *RPC) Reply(req Message, payload any) {
	if req.ReqID == 0 {
		panic("comm: Reply to a non-request message")
	}
	// The response inherits the request's span context, so the reply leg
	// is attributed to the same causal parent as the request.
	//lint:allow senderr a lost reply is indistinguishable from a dropped response; the caller times out and retries
	_ = r.tr.Send(Message{
		From: r.site, To: req.From, Kind: req.Kind,
		ReqID: req.ReqID, IsResp: true, Span: req.Span, Payload: payload,
	})
}

// ReplyError answers a request with an application-level error.
func (r *RPC) ReplyError(req Message, err error) {
	r.Reply(req, RemoteError{Msg: err.Error()})
}

// HandleResponse routes a response message to its waiting caller. Late
// responses (caller already timed out and removed its pending entry) are
// dropped and reported through the late hook; so are extra responses to a
// request that was already answered (possible when a retried idempotent
// call draws two replies).
//
// The send happens under r.mu, so it cannot fall between the caller's
// removal of its entry and its drain of the channel; the channel holds
// one response and the send never blocks.
func (r *RPC) HandleResponse(msg Message) {
	delivered := false
	r.mu.Lock()
	if ch := r.pending[msg.ReqID]; ch != nil {
		select {
		case ch <- msg:
			delivered = true
		default:
		}
	}
	r.mu.Unlock()
	if !delivered {
		r.noteLate(msg.From, msg.Kind)
	}
}
