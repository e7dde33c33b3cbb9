package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/twopc"
	"repro/internal/watch"
)

// This file explores one BackEdge participant exhaustively: Example 4.1's
// placement, where s1's write of item 1 runs the eager arm through its
// backedge target s0. The participant at s0 meets the events of its
// record — its execution, the coordinator's vote request, the origin's
// abort, the phase-2 decisions and the inquirer's answer — in every
// order, and the participant loop applies its queued events in every
// interleaving with them.

// The participant's events, one letter each in a schedule.
const (
	peExec     = 'X' // the backedge delivery executes at s0; its special comes home to s1
	peVote     = 'V' // s1 asks s0 for its vote
	peAbort    = 'A' // the origin's abort notification reaches s0
	peCommit   = 'C' // the phase-2 commit decision reaches s0
	peRollback = 'R' // the phase-2 abort decision reaches s0
	peAnswer   = 'I' // the inquirer posts the coordinator's answer
	peLoop     = 'L' // the participant loop applies its oldest queued event
)

// peCase is one set of arrivals: the events, the outcome the coordinator
// logged (what an inquiry answers), and for each event the one it must
// follow.
type peCase struct {
	name   string
	events string
	commit bool
	after  map[byte]byte
}

var peCases = []peCase{
	// A commit needs the vote, which needs the execution; the logged
	// outcome an inquiry reads is there only after the vote too.
	{"2PC commit", "XVCI", true, map[byte]byte{peVote: peExec, peCommit: peVote, peAnswer: peVote}},
	{"2PC abort", "XVRI", false, map[byte]byte{peVote: peExec, peAnswer: peExec}},
	{"origin abort", "XAI", false, map[byte]byte{peAnswer: peExec}},
	// Every event at once, contradictory decisions included: the first
	// resolution applied after the execution wins.
	{"every event", "XACRI", true, map[byte]byte{peAnswer: peExec}},
}

// peSchedules returns every schedule of c's arrivals and loop steps: each
// arrival once, after the one it must follow, and a loop step whenever an
// applied arrival is queued. The inquirer only asks about an executed
// record, so an answer always follows the execution.
func peSchedules(c peCase) []string {
	var out []string
	var rec func(prefix string, queued int)
	rec = func(prefix string, queued int) {
		if queued > 0 {
			rec(prefix+string(rune(peLoop)), queued-1)
		}
		done := true
		for i := 0; i < len(c.events); i++ {
			ev := c.events[i]
			if strings.IndexByte(prefix, ev) >= 0 {
				continue
			}
			done = false
			if pre, ok := c.after[ev]; ok && strings.IndexByte(prefix, pre) < 0 {
				continue
			}
			q := queued
			if ev != peExec && ev != peVote {
				q++
			}
			rec(prefix+string(rune(ev)), q)
		}
		if done && queued == 0 {
			out = append(out, prefix)
		}
	}
	rec("", 0)
	return out
}

// peOracle computes, independently of the transition table, what a
// schedule must leave: whether the participant installs, and for each
// vote request whether it is answered yes. The participant executes
// unless the origin's abort was applied first; then the first resolution
// applied after the execution decides.
func peOracle(c peCase, schedule string) (install bool, votes []bool) {
	var queue []byte
	executed, decided, commit := false, false, false
	resolve := func(ev byte) {
		switch {
		case decided:
		case ev == peAbort:
			decided = true // a tombstone before the execution, a discard after
		case !executed:
		case ev == peCommit || (ev == peAnswer && c.commit):
			decided, commit = true, true
		default:
			decided = true
		}
	}
	for i := 0; i < len(schedule); i++ {
		switch ev := schedule[i]; ev {
		case peExec:
			executed = !decided
		case peVote:
			votes = append(votes, executed && !decided)
		case peLoop:
			resolve(queue[0])
			queue = queue[1:]
		default:
			queue = append(queue, ev)
		}
	}
	return commit, votes
}

// peWorld is one fresh instance: s0, the participant, and s1, its origin,
// unstarted over a capture transport, so the schedule is the only
// scheduler.
type peWorld struct {
	tr     *captureTransport
	s0, s1 *backedgeEngine
	tid    model.TxnID
	reqs   uint64
}

func newPEWorld(t *testing.T) *peWorld {
	t.Helper()
	topo := topology(t, BackEdge, example41Placement(t), testParams(), Shape{})
	tr := newCaptureTransport()
	sinks := Sinks{Recorder: history.NewRecorder()}
	return &peWorld{
		tr:  tr,
		s0:  newBackEdge(topo, Site{ID: 0, Sinks: sinks}, tr),
		s1:  newBackEdge(topo, Site{ID: 1, Sinks: sinks}, tr),
		tid: model.TxnID{Site: 1, Seq: 1},
	}
}

// request delivers one 2PC request from s1 to s0.
func (w *peWorld) request(kind int, payload any) {
	w.reqs++
	w.s0.Handle(comm.Message{From: 1, To: 0, Kind: kind, ReqID: w.reqs, Payload: payload})
}

// replies pops s0's responses of kind from the captured edge to s1.
func (w *peWorld) replies(kind int) []any {
	var out []any
	for {
		m, ok := w.tr.pop(capturePair{0, 1})
		if !ok {
			return out
		}
		if !m.IsResp || m.Kind != kind {
			panic(fmt.Sprintf("explorer: unexpected message %+v from s0", m))
		}
		out = append(out, m.Payload)
	}
}

// run plays schedule and returns the vote s0 gave each vote request and
// the number of decisions it acknowledged.
func (w *peWorld) run(c peCase, schedule string) (votes []bool, acks int) {
	for i := 0; i < len(schedule); i++ {
		switch schedule[i] {
		case peExec:
			sp := specialPayload{TID: w.tid, Origin: 1, Writes: []model.WriteOp{{Item: 1, Value: 42}}}
			w.s1.ship(0, kindBackedgeExec, model.SpanContext{TID: w.tid}, sp)
			msg, _ := w.tr.pop(capturePair{1, 0})
			w.s0.execBackedge(msg)
			if special, ok := w.tr.pop(capturePair{0, 1}); ok {
				w.s1.onSpecial(special)
			}
		case peVote:
			w.request(kindPrepare, preparePayload{TID: w.tid})
			for _, r := range w.replies(kindPrepare) {
				votes = append(votes, r.(prepareResp).Vote)
			}
		case peAbort:
			w.s0.Handle(comm.Message{From: 1, To: 0, Kind: kindBackedgeAbort, Payload: abortPayload{TID: w.tid}})
		case peCommit, peRollback:
			w.request(kindDecision, decisionPayload{TID: w.tid, Commit: schedule[i] == peCommit})
		case peAnswer:
			w.s0.post(resolution{msg: comm.Message{From: 1}, tid: w.tid, ev: decision[c.commit]})
		case peLoop:
			r, _ := w.s0.inbox.Pop()
			w.s0.resolve(r)
			acks += len(w.replies(kindDecision))
		}
	}
	return votes, acks
}

// TestExhaustiveBackEdgeParticipant drives one participant through every
// arrival order of its events, at two levels. First the transition
// function alone, over every order of execute, abort, commit, rollback
// and an inquiry answer of either outcome: the first resolution fixes the
// state, every later event but Forget is refused, and Forget then ends
// the record. Then the engine, over every schedule of each case's
// arrivals and loop steps: each must leave s0's replica of item 1
// installed or untouched as the oracle says, answer every vote as it
// says, acknowledge every decision, hold no record once the inquiry
// sweep has expired the tombstones of late aborts (and no other record
// before it), and read Quiescent over two Status reads.
func TestExhaustiveBackEdgeParticipant(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	orders := 0
	for _, answer := range []twopc.Event{twopc.Commit, twopc.Rollback} {
		for _, order := range permutations([]twopc.Event{twopc.Execute, twopc.Abort, twopc.Commit, twopc.Rollback, answer}) {
			orders++
			checkTransitions(t, order)
		}
	}

	schedules := 0
	for _, c := range peCases {
		for _, schedule := range peSchedules(c) {
			schedules++
			checkParticipant(t, c, schedule)
		}
	}
	t.Logf("transition function: %d orders; engine: %d schedules over %d cases", orders, schedules, len(peCases))
}

// checkTransitions applies order to the transition function from no
// record, and fails t unless the record ends as the first resolution
// after the execution (or an abort before it) made it, every event after
// that was refused, and Forget then takes it to no record.
func checkTransitions(t *testing.T, order []twopc.Event) {
	t.Helper()
	s, executed, want := twopc.StateNone, false, twopc.StateNone
	for _, ev := range order {
		switch {
		case want != twopc.StateNone:
		case ev == twopc.Abort:
			want = twopc.StateAborted
		case ev == twopc.Execute:
			executed = true
		case !executed:
		case ev == twopc.Commit:
			want = twopc.StateCommitted
		case ev == twopc.Rollback:
			want = twopc.StateAborted
		}
		terminal := s == twopc.StateCommitted || s == twopc.StateAborted
		next, ok := twopc.Next(s, ev)
		if terminal && ok {
			t.Fatalf("order %v: %v moved the resolved %v record to %v", order, ev, s, next)
		}
		s = next
	}
	if s != want {
		t.Fatalf("order %v: the record ends %v, want %v", order, s, want)
	}
	if next, ok := twopc.Next(s, twopc.Forget); !ok || next != twopc.StateNone {
		t.Fatalf("order %v: Forget on the %v record gives %v (legal %v), want none", order, s, next, ok)
	}
}

// checkParticipant plays schedule of c on a fresh world and fails t
// unless it ends as peOracle says, with nothing left behind.
func checkParticipant(t *testing.T, c peCase, schedule string) {
	t.Helper()
	w := newPEWorld(t)
	defer w.s0.Stop()
	defer w.s1.Stop()
	votes, acks := w.run(c, schedule)
	install, wantVotes := peOracle(c, schedule)
	where := fmt.Sprintf("%s %s", c.name, schedule)

	want := int64(0)
	if install {
		want = 42
	}
	if got := w.s0.Snapshot()[1]; got != want {
		t.Fatalf("%s: s0's replica of item 1 = %d, want %d", where, got, want)
	}
	if fmt.Sprint(votes) != fmt.Sprint(wantVotes) {
		t.Fatalf("%s: votes %v, want %v", where, votes, wantVotes)
	}
	if decisions := strings.Count(c.events, string(rune(peCommit))) + strings.Count(c.events, string(rune(peRollback))); acks != decisions {
		t.Fatalf("%s: %d decisions acknowledged, want %d", where, acks, decisions)
	}
	w.s0.mu.Lock()
	for tid, p := range w.s0.parts {
		if p.t != nil {
			t.Errorf("%s: %v left its %v record holding its transaction", where, tid, p.state)
		}
	}
	w.s0.mu.Unlock()
	if stuck := w.s0.overdue(time.Now().Add(time.Hour)); len(stuck) > 0 {
		t.Fatalf("%s: %d participants still await a decision", where, len(stuck))
	}
	if n := records(w.s0); n != 0 {
		t.Fatalf("%s: %d participant records left after the sweep", where, n)
	}
	statuses := func() []watch.Status { return []watch.Status{w.s0.Status(), w.s1.Status()} }
	if first := statuses(); !Quiescent(first, statuses()) {
		t.Fatalf("%s: not quiescent: %+v", where, first)
	}
}

// permutations returns every ordering of evs.
func permutations(evs []twopc.Event) [][]twopc.Event {
	if len(evs) <= 1 {
		return [][]twopc.Event{append([]twopc.Event(nil), evs...)}
	}
	var out [][]twopc.Event
	for i := range evs {
		rest := append(append([]twopc.Event(nil), evs[:i]...), evs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]twopc.Event{evs[i]}, p...))
		}
	}
	return out
}
