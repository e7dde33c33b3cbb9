// Package twopc implements the distributed atomic-commit protocol the
// BackEdge protocol uses in step 3 of §4.1: a primary subtransaction and
// its backedge subtransactions, spread over several sites and all holding
// their locks, must commit atomically. The coordinator (the transaction's
// origin site) runs classic two-phase commit; participants are the
// backedge sites, which have already executed and therefore vote yes
// unless they were aborted in the meantime.
//
// The package is transport-agnostic: the engine supplies Prepare/Decide
// callbacks that speak its RPC layer. The participant side is one state
// machine per transaction: Next holds its legal transitions, and the
// BackEdge engine's participant records and Table both move by it.
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
// survive a coordinator crash. It does through the sink (SetSink): a
// restarted site builds a fresh DecisionLog and seeds it with the
// decisions the redo log recovered (Seed). A site without a write-ahead
// log never crashes.
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
// caches what the sink made durable; without one (a site with no
// write-ahead log) the map is all there is.
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
	// StateNone, the zero State, is the state of a transaction with no
	// record: never seen, or forgotten.
	StateNone State = iota
	// StateWorking means the subtransaction has executed, holding its
	// locks, and has not voted yet.
	StateWorking
	// StatePrepared means the participant voted yes and awaits a decision.
	StatePrepared
	// StateCommitted is terminal.
	StateCommitted
	// StateAborted is terminal. Entered before the subtransaction ever
	// executed, it is a tombstone: the execution, when it comes, is refused.
	StateAborted
)

func (s State) String() string {
	return [...]string{"none", "working", "prepared", "committed", "aborted"}[s]
}

// Event is one input to a participant's state machine.
type Event int

const (
	// Execute: the subtransaction executed, holding its locks.
	Execute Event = iota
	// Vote: the coordinator asks for the participant's vote.
	Vote
	// Abort: the origin aborted the transaction before 2PC began. It
	// tombstones a transaction not yet executed here.
	Abort
	// Commit: the decision is commit, from phase 2 or an inquiry answer.
	Commit
	// Rollback: the decision is abort, from phase 2 or an inquiry answer.
	Rollback
	// Forget: the participant has settled; its record goes.
	Forget
)

func (ev Event) String() string {
	return [...]string{"execute", "vote", "abort", "commit", "rollback", "forget"}[ev]
}

// refused marks an illegal move in the transition table.
const refused State = -1

// transitions is the participant's transition table, the one place its
// legal moves are written: transitions[s][ev] is the state ev moves s to,
// or refused, which changes nothing. A decision (Commit, Rollback) acts
// only on a live record, and a terminal state absorbs every event but
// Forget: a transaction resolves once, by whichever resolution arrives
// first. Commit is legal from working because a participant restored
// from its redo log lost its vote with its heap.
var transitions = [...][Forget + 1]State{
	// Execute, Vote, Abort, Commit, Rollback, Forget
	StateNone:      {StateWorking, refused, StateAborted, refused, refused, refused},
	StateWorking:   {refused, StatePrepared, StateAborted, StateCommitted, StateAborted, refused},
	StatePrepared:  {refused, refused, StateAborted, StateCommitted, StateAborted, refused},
	StateCommitted: {refused, refused, refused, refused, refused, StateNone},
	StateAborted:   {refused, refused, refused, refused, refused, StateNone},
}

// Next returns the state ev moves s to, and whether the move is legal. A
// refused event leaves s as it is.
func Next(s State, ev Event) (State, bool) {
	if next := transitions[s][ev]; next != refused {
		return next, true
	}
	return s, false
}

// Table tracks participant-side transaction states, moving each by Next.
// All methods are safe for concurrent use.
type Table struct {
	mu sync.Mutex
	m  map[model.TxnID]State // repl:guardedby(mu)
}

// NewTable returns an empty state table.
func NewTable() *Table {
	return &Table{m: make(map[model.TxnID]State)}
}

// apply moves tid by ev and reports whether the move was legal.
func (t *Table) apply(tid model.TxnID, ev Event) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	next, ok := Next(t.m[tid], ev)
	switch {
	case !ok:
	case next == StateNone:
		delete(t.m, tid)
	default:
		t.m[tid] = next
	}
	return ok
}

// Begin registers tid as working. Registering a known tid is an error.
func (t *Table) Begin(tid model.TxnID) error {
	if !t.apply(tid, Execute) {
		return fmt.Errorf("twopc: %v already known", tid)
	}
	return nil
}

// Prepare moves tid from working to prepared and returns the yes vote;
// if tid was already aborted (a racing abort won) — or was never
// registered at all, which after a participant crash means its execution
// was wiped with the heap — the vote is no. Voting yes for an unknown
// tid would promise an installation this site cannot deliver.
func (t *Table) Prepare(tid model.TxnID) bool { return t.apply(tid, Vote) }

// Finish applies the decision (commit) or the origin's abort (!commit) to
// tid and reports whether the caller should act (install or roll back); a
// second Finish is a no-op.
func (t *Table) Finish(tid model.TxnID, commit bool) bool {
	if commit {
		return t.apply(tid, Commit)
	}
	return t.apply(tid, Abort)
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

// Forget drops a terminal tid from the table (bounding memory in long
// runs). Forgetting a live transaction is an error.
func (t *Table) Forget(tid model.TxnID) error {
	if !t.apply(tid, Forget) {
		return fmt.Errorf("twopc: cannot forget %v: not terminal", tid)
	}
	return nil
}
