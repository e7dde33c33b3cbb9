// Package twopc implements the distributed atomic-commit protocol the
// BackEdge protocol uses in step 3 of §4.1: a primary subtransaction and
// its backedge subtransactions, spread over several sites and all holding
// their locks, must commit atomically. The coordinator (the transaction's
// origin site) runs classic two-phase commit; participants are the
// backedge sites, which have already executed and therefore vote yes
// unless they were aborted in the meantime.
//
// The package is transport-agnostic: the engine supplies Prepare/Decide
// callbacks that speak its RPC layer. A participant-side state table
// enforces the legal transitions and is shared by tests.
package twopc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/model"
)

// ErrNoVote marks an atomic-commit round that decided abort because some
// participant voted no (or its vote was lost and counted as no). Engines
// wrap it into the abort error they surface, so the contention
// observatory's root-cause taxonomy can tell a 2PC abort from a lock
// timeout without parsing message text.
var ErrNoVote = errors.New("twopc: participant voted no")

// Coordinator supplies the per-participant communication callbacks. The
// span context of the coordinating work is passed through to each
// callback so every vote and decision message joins the originating
// transaction's causal tree.
type Coordinator struct {
	// Prepare asks a participant to prepare tid and returns its vote.
	// An error (timeout, site unreachable) counts as a no vote.
	Prepare func(p model.SiteID, tid model.TxnID, sc model.SpanContext) (bool, error)
	// Decide delivers the decision to a participant and waits for its ack.
	Decide func(p model.SiteID, tid model.TxnID, commit bool, sc model.SpanContext) error
	// Log, if non-nil, durably records the decision before phase 2 begins,
	// so participants that miss the decision can recover by inquiry.
	Log *DecisionLog
}

// DecisionLog is the coordinator's stable decision record: the commit or
// abort outcome of every transaction it has decided, written before any
// participant learns it. A participant stuck in the prepared state after
// losing the phase-2 message (network fault, coordinator crash between
// the decision and its delivery) resolves by asking the coordinator,
// which answers from this log, and classic 2PC requires the log to
// survive a coordinator crash. Over a write-ahead log it does through the
// sink (SetSink): a restarted site builds a fresh DecisionLog and seeds
// it with the decisions the redo log recovered (Seed). Without a
// write-ahead log a crash wipes no state, so the in-heap map itself
// survives the outage and stands in for the disk.
//
// Entries are retained for the life of the log: the coordinator can never
// know that no participant will inquire again, and a missing entry must
// keep meaning "not decided yet", never "decided and forgotten".
type DecisionLog struct {
	mu   sync.Mutex
	m    map[model.TxnID]bool                     // repl:guardedby(mu)
	sink func(tid model.TxnID, commit bool) error // repl:guardedby(mu)
}

// NewDecisionLog returns an empty decision log.
func NewDecisionLog() *DecisionLog {
	return &DecisionLog{m: make(map[model.TxnID]bool)}
}

// SetSink installs the persistence hook Record drives: typically a
// closure appending the decision to the site's write-ahead log and
// waiting for the group commit. With a sink installed, the in-memory map
// caches what the sink made durable; without one the map itself is the
// log (the pre-WAL in-process stand-in).
func (l *DecisionLog) SetSink(sink func(tid model.TxnID, commit bool) error) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = sink
	l.mu.Unlock()
}

// Seed pre-loads a recovered decision without driving the sink — it is
// already durable; that is where it was recovered from.
func (l *DecisionLog) Seed(tid model.TxnID, commit bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if _, ok := l.m[tid]; !ok {
		l.m[tid] = commit
	}
	l.mu.Unlock()
}

// Record writes tid's decision, driving the persistence sink first when
// one is installed. The first successful record wins; a decision, once
// logged, never changes. An error means the decision is NOT durable and
// must not be acted on (the coordinator's site is crashing).
func (l *DecisionLog) Record(tid model.TxnID, commit bool) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.m[tid]; ok {
		return nil
	}
	if l.sink != nil {
		if err := l.sink(tid, commit); err != nil {
			return err
		}
	}
	l.m[tid] = commit
	return nil
}

// Lookup returns tid's decision and whether one has been recorded.
func (l *DecisionLog) Lookup(tid model.TxnID) (commit, known bool) {
	if l == nil {
		return false, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	commit, known = l.m[tid]
	return commit, known
}

// Run executes two-phase commit for tid over the participants, stamping
// sc on every callback. It returns whether the transaction committed,
// plus the first decision-delivery error. The decision itself stands
// regardless of delivery errors: it is recorded in c.Log before phase 2
// starts, and a participant that missed it recovers by asking the
// coordinator, which answers from that log (see DecisionLog).
func Run(tid model.TxnID, participants []model.SiteID, c Coordinator, sc model.SpanContext) (bool, error) {
	if len(participants) == 0 {
		return true, nil
	}
	// Phase 1: collect votes in parallel.
	votes := make([]bool, len(participants))
	var wg sync.WaitGroup
	for i, p := range participants {
		wg.Add(1)
		go func(i int, p model.SiteID) {
			defer wg.Done()
			ok, err := c.Prepare(p, tid, sc)
			votes[i] = ok && err == nil
		}(i, p)
	}
	wg.Wait()
	commit := true
	for _, v := range votes {
		if !v {
			commit = false
			break
		}
	}
	// The decision point: log it before any participant can learn it, so
	// an inquiry after a lost phase-2 message (or a coordinator crash and
	// restart) always finds the recorded outcome. If the record cannot be
	// made durable the decision never happened — report abort and skip
	// phase 2; participants resolve by inquiry, which finds no decision
	// and presumes abort.
	if err := c.Log.Record(tid, commit); err != nil {
		return false, fmt.Errorf("twopc: decision record: %w", err)
	}
	// Phase 2: deliver the decision in parallel.
	errs := make([]error, len(participants))
	for i, p := range participants {
		wg.Add(1)
		go func(i int, p model.SiteID) {
			defer wg.Done()
			errs[i] = c.Decide(p, tid, commit, sc)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return commit, fmt.Errorf("twopc: decision delivery: %w", err)
		}
	}
	return commit, nil
}

// State is a participant-side transaction state.
type State int

const (
	// StateWorking means the subtransaction is executing (locks being
	// acquired, writes buffered).
	StateWorking State = iota
	// StatePrepared means the participant voted yes and awaits a decision.
	StatePrepared
	// StateCommitted is terminal.
	StateCommitted
	// StateAborted is terminal.
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateWorking:
		return "working"
	case StatePrepared:
		return "prepared"
	case StateCommitted:
		return "committed"
	default:
		return "aborted"
	}
}

// Table tracks participant-side transaction states and validates
// transitions. All methods are safe for concurrent use.
type Table struct {
	mu sync.Mutex
	m  map[model.TxnID]State // repl:guardedby(mu)
}

// NewTable returns an empty state table.
func NewTable() *Table {
	return &Table{m: make(map[model.TxnID]State)}
}

// Begin registers tid as working. Registering a known tid is an error.
func (t *Table) Begin(tid model.TxnID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[tid]; ok {
		return fmt.Errorf("twopc: %v already %v", tid, s)
	}
	t.m[tid] = StateWorking
	return nil
}

// Prepare moves tid from working to prepared and returns the yes vote;
// if tid was already aborted (a racing abort won) — or was never
// registered at all, which after a participant crash means its execution
// was wiped with the heap — the vote is no. Voting yes for an unknown
// tid would promise an installation this site cannot deliver.
func (t *Table) Prepare(tid model.TxnID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[tid]
	if !ok {
		return false
	}
	switch s {
	case StateWorking:
		t.m[tid] = StatePrepared
		return true
	default:
		return false
	}
}

// Finish moves tid to its terminal state and reports whether the caller
// should act (install or roll back); a second Finish is a no-op.
func (t *Table) Finish(tid model.TxnID, commit bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.m[tid]
	if s == StateCommitted || s == StateAborted {
		return false
	}
	if commit {
		t.m[tid] = StateCommitted
	} else {
		t.m[tid] = StateAborted
	}
	return true
}

// State returns tid's current state and whether it is known.
func (t *Table) State(tid model.TxnID) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[tid]
	return s, ok
}

// Aborted reports whether tid has been aborted.
func (t *Table) Aborted(tid model.TxnID) bool {
	s, ok := t.State(tid)
	return ok && s == StateAborted
}

// Len returns how many transactions the table holds, live or terminal.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Forget drops a terminal tid from the table (bounding memory in long
// runs). Forgetting a live transaction is an error.
func (t *Table) Forget(tid model.TxnID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.m[tid] {
	case StateCommitted, StateAborted:
		delete(t.m, tid)
		return nil
	default:
		return fmt.Errorf("twopc: cannot forget live %v", tid)
	}
}
