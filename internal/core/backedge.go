package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ts"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/watch"
)

// backedgeEngine implements the BackEdge protocol (§4.1), the hybrid that
// makes arbitrary (cyclic) copy graphs serializable, as the paper defines
// it: DAG(WT) plus an eager edge set. It embeds the DAG(WT) engine and so
// behaves exactly like it for transactions whose updates stay inside the
// DAG — the queue, the applier, the lazy apply and the fan-out are all
// inherited. This file adds only the eager arm, run by a transaction that
// must propagate along backedges, i.e. to replica sites that are its tree
// *ancestors*:
//
//  1. keep the primary's locks; send a backedge subtransaction directly to
//     the farthest ancestor replica site si1;
//  2. si1 executes it (holding locks, not committing) and relays a
//     "special" secondary subtransaction down the tree path toward the
//     origin; every backedge site on the path executes it the same way,
//     every other path site just forwards it, all in FIFO queue order;
//  3. when the special reaches the origin behind all earlier secondaries,
//     the primary and all backedge subtransactions commit atomically via
//     two-phase commit;
//  4. only then do the remaining (descendant) replicas receive normal lazy
//     DAG(WT) secondaries.
//
// Global deadlocks (Example 4.1) surface as the origin waiting too long
// for its special to come home; after PrepareTimeout the origin aborts,
// notifying the backedge sites so they release their locks.
type backedgeEngine struct {
	*dagwtEngine

	// decisions is this site's coordinator-side stable decision record:
	// every 2PC outcome (and every unilateral pre-2PC abort) for
	// transactions originating here, written before participants learn it.
	// Participants stuck in prepared after a lost decision message or a
	// coordinator crash recover by inquiring against it (§4.1 step 3's
	// atomic commitment, completed with the recovery path classic 2PC
	// requires once sites can actually crash).
	decisions *twopc.DecisionLog
	// inbox holds the participant loop's events in arrival order: abort
	// notifications, phase-2 decisions and inquiry answers.
	inbox *comm.Inbox[resolution]

	mu sync.Mutex
	// parts holds one record per eager subtransaction this site takes
	// part in, from its execution (or the abort that pre-empts it) until
	// it is forgotten.
	parts   map[model.TxnID]*participant // repl:guardedby(mu)
	waiters map[model.TxnID]*originState // origin-side transactions awaiting their special // repl:guardedby(mu)
}

// participant is this site's record of one eager subtransaction: its
// state, moved only by twopc.Next (executed → prepared → committed |
// aborted → forgotten), and when the record was made, to know when
// waiting has gone on suspiciously long. Once executed it holds the live
// transaction with its locks, and the coordinator to ask if the decision
// goes missing. A tombstone — aborted before it executed — holds none of
// these.
type participant struct {
	state  twopc.State
	since  time.Time
	t      *txn.Txn
	origin model.SiteID
	// sc is the causal context the subtransaction executed under; the
	// decision events are attributed to it no matter which path (phase 2
	// or inquiry recovery) delivers the outcome.
	sc model.SpanContext
	// writes is the full payload write set: the commit-decision redo
	// record carries it, and while the record exists a read-only program
	// reading any of its items takes S locks instead of a snapshot
	// (pinDisjoint).
	writes []model.WriteOp
}

// awaiting reports whether p holds its locks awaiting a decision.
func (p *participant) awaiting() bool {
	return p.t != nil && (p.state == twopc.StateWorking || p.state == twopc.StatePrepared)
}

// resolution is one event for the participant loop: the origin's abort
// or a phase-2 decision, both with the message that carried it, or an
// inquiry answer, with only the coordinator in From.
type resolution struct {
	msg comm.Message
	tid model.TxnID
	ev  twopc.Event
}

// decision maps a 2PC outcome (commit or not) to its participant event.
var decision = map[bool]twopc.Event{true: twopc.Commit, false: twopc.Rollback}

// originState synchronizes the origin's Execute goroutine with the FIFO
// applier: the applier signals arrival of the special and then blocks
// until the origin resolves the transaction, preserving the FIFO commit
// order of §2 across the eager commit.
type originState struct {
	arrived chan struct{}
	done    chan struct{}
}

func newBackEdge(topo *Topology, site Site, tr comm.Transport) *backedgeEngine {
	e := &backedgeEngine{
		dagwtEngine: buildDAGWT(topo, BackEdge, site, tr),
		decisions:   twopc.NewDecisionLog(),
		inbox:       comm.NewInbox[resolution](inboxBound),
		parts:       make(map[model.TxnID]*participant),
		waiters:     make(map[model.TxnID]*originState),
	}
	e.special, e.enqueue, e.snapshot = e.onSpecial, e.dispatch, e.pinDisjoint
	e.recover()
	return e
}

// Status adds the eager arm to the DAG(WT) status, read from the
// participant records after the kernel's consumed count, as Quiescent
// requires: the participants holding locks awaiting a decision, the
// oldest of them (a hung decision shows up as its age climbing), the
// unsettled ones (those plus any whose decision is being installed or
// discarded), and the parked origins. A tombstone counts in none of them.
func (e *backedgeEngine) Status() watch.Status {
	st := e.dagwtEngine.Status()
	e.mu.Lock()
	defer e.mu.Unlock()
	st.Parked = len(e.waiters)
	for tid, p := range e.parts {
		if p.t != nil {
			st.Unsettled++
		}
		if p.awaiting() {
			st.Prepared++
			if st.OldestSince.IsZero() || p.since.Before(st.OldestSince) {
				st.Oldest, st.OldestSince = tid, p.since
			}
		}
	}
	return st
}

// step moves tid's record by ev, making it on its first event and
// deleting it once forgotten, and returns the record and whether the move
// was legal. The caller holds e.mu.
func (e *backedgeEngine) step(tid model.TxnID, ev twopc.Event) (*participant, bool) {
	p := e.parts[tid]
	var s twopc.State // StateNone
	if p != nil {
		s = p.state
	}
	next, ok := twopc.Next(s, ev)
	switch {
	case !ok:
	case next == twopc.StateNone:
		delete(e.parts, tid)
	case p == nil:
		//lint:allow nodeterminism since drives the wall-clock inquiry sweep, not protocol ordering
		p = &participant{state: next, since: time.Now()}
		e.parts[tid] = p
	default:
		p.state = next
	}
	return p, ok
}

// enroll moves tid's record by executed: t, holding the locks of its
// local writes, becomes a live participant. The caller holds e.mu.
func (e *backedgeEngine) enroll(t *txn.Txn, sp specialPayload, sc model.SpanContext) bool {
	p, ok := e.step(sp.TID, twopc.Execute)
	if ok {
		p.t, p.origin, p.sc, p.writes = t, sp.Origin, sc, sp.Writes
	}
	return ok
}

// recover rebuilds the BackEdge protocol state the disk knows, in
// dependency order: durable decisions first (inquiries answer from
// them), then in-doubt prepared entries (re-executed holding locks,
// unsettled until a decision resolves them), then eager dispatches (an
// undecided one is presumed aborted — made durable so participant
// inquiries find it; a decided-commit one whose local apply is missing
// is redone), then the kernel's replay — unmarked forwards, then
// unconsumed receipts through dispatch.
func (e *backedgeEngine) recover() {
	if e.wal == nil {
		return
	}
	e.decisions.SetSink(func(tid model.TxnID, commit bool) error {
		return e.walAppendSync(wal.Record{Kind: wal.KindDecision, TID: tid, Commit: commit})
	})
	rec := e.wal.Recovered()
	for tid, commit := range rec.Decisions {
		e.decisions.Seed(tid, commit)
	}
	for tid, pe := range rec.Prepared {
		t, wait := e.tm.BeginSecondary(tid), -1
		if e.lockSecondary(t, pe.Writes, &wait, false) != nil {
			continue // unreachable: the lock manager is fresh
		}
		e.mu.Lock()
		e.enroll(t, specialPayload{TID: tid, Origin: pe.Origin, Writes: pe.Writes}, pe.Span)
		e.mu.Unlock()
	}
	for tid, ee := range rec.Eager {
		commit, known := rec.Decisions[tid]
		switch {
		case !known:
			// Presumed abort: the origin crashed before deciding. A sink
			// failure here can only mean the fresh log is itself broken;
			// inquiries then still see "undecided", which reads as abort.
			_ = e.decisions.Record(tid, false)
		case commit:
			e.redoEager(tid, ee)
		}
	}
	e.replay()
}

// redoEager re-runs a decided-commit eager origin commit whose local
// apply was lost with the heap: commit the writes as a primary
// transaction under the original id, logging the apply first like every
// install, and re-send the lazy fan-out. The participants commit their
// halves on the durable decision; this is the origin's half of that
// atomicity, finished by recovery instead of the crashed goroutine.
func (e *backedgeEngine) redoEager(tid model.TxnID, ee wal.EagerEntry) {
	t := e.tm.Begin(tid)
	for _, w := range ee.Writes {
		if !e.store.Has(w.Item) {
			continue
		}
		if t.Write(w.Item, w.Value) != nil {
			return // unreachable: no other transaction holds a primary item yet
		}
	}
	e.armDurable(t, wal.Record{
		Kind: wal.KindApply, TID: tid, Role: wal.RoleOrigin,
		Writes: ee.Writes, Forwards: len(ee.Writes) > 0, Span: ee.Span,
	})
	if t.Commit() != nil {
		return
	}
	e.propagate(ee.Span, ts.Timestamp{}, ee.Writes)
}

func (e *backedgeEngine) Start() {
	e.dagwtEngine.Start()
	go e.inquirer()
	go e.participants()
}

// backedgeTargets returns the replica sites of the written items that are
// tree ancestors of this site — the sites si1..sij of §4.1 — ordered
// farthest-first (si1 has the smallest tree depth).
func (e *backedgeEngine) backedgeTargets(writes []model.WriteOp) []model.SiteID {
	seen := make(map[model.SiteID]bool)
	var out []model.SiteID
	for _, w := range writes {
		for _, r := range e.topo.Placement.ReplicaSites(w.Item) {
			if !seen[r] && e.topo.Tree.IsAncestor(r, e.id) {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return e.topo.Tree.Depth(out[i]) < e.topo.Tree.Depth(out[j]) })
	return out
}

// Execute runs a primary subtransaction through the kernel's prologue and
// commit; a transaction with backedge targets runs the eager arm between
// the two, holding its locks.
func (e *backedgeEngine) Execute(ops []model.Op) error {
	octx, start := e.beginOrigin()
	t := e.tm.Begin(octx.TID)
	if err := e.runOrigin(t, ops); err != nil {
		return err
	}
	tid := octx.TID
	writes := t.Writes()
	targets := e.backedgeTargets(writes)
	if len(targets) == 0 {
		// Pure DAG(WT) path (§4.1: such transactions execute exactly as
		// they would under DAG(WT)).
		return e.finish(t, octx, start, writes)
	}

	// Eager arm. The dispatch must be durable before the execute message
	// can exist: at recovery an undecided eager start is presumed aborted
	// (made durable for participant inquiries), and a decided-commit one
	// whose local apply is missing is redone from this record.
	if werr := e.walAppendSync(wal.Record{
		Kind: wal.KindEagerStart, TID: tid, Writes: writes, Span: octx,
	}); werr != nil {
		t.Abort()
		e.emit(abortSlot(contend.ReasonWALFence), model.NoSite, octx, 0)
		return fmt.Errorf("core: %v aborted: %w: %w", tid, txn.ErrAborted, werr)
	}

	// Register for the special's homecoming, then launch the backedge
	// subtransaction at the farthest ancestor.
	st := &originState{arrived: make(chan struct{}), done: make(chan struct{})}
	e.mu.Lock()
	e.waiters[tid] = st
	e.mu.Unlock()
	defer close(st.done)
	// unpark ends the round trip, on every path out of it.
	unpark := func() {
		e.mu.Lock()
		delete(e.waiters, tid)
		e.mu.Unlock()
	}

	// While parked on the round-trip this transaction is the designated
	// deadlock victim: if a secondary subtransaction blocks on one of its
	// locks it is wounded and aborts instead of stalling the site's FIFO
	// queue — §2's fair victim selection, and exactly how Example 4.1
	// resolves (the waiting primary is the one aborted).
	wound := make(chan struct{}, 1)
	e.locks.SetVulnerable(tid, func() {
		select {
		case wound <- struct{}{}:
		default:
		}
	})

	e.ship(targets[0], kindBackedgeExec, octx, specialPayload{TID: tid, Origin: e.id, Writes: writes})

	abortEager := func(why string, reason contend.AbortReason) error {
		e.locks.ClearVulnerable(tid)
		unpark()
		// Log the unilateral abort first: a backedge site whose abort
		// notification goes missing will inquire, and must find it. A sink
		// failure means the site is crashing — recovery then finds the
		// undecided eager start and records the same presumed abort.
		_ = e.decisions.Record(tid, false)
		t.Abort()
		e.abortBackedges(octx, targets)
		e.emit(abortSlot(reason), model.NoSite, octx, 0)
		return fmt.Errorf("core: %v aborted %s: %w", tid, why, txn.ErrAborted)
	}

	timer := time.NewTimer(e.topo.Params.PrepareTimeout)
	defer timer.Stop()
	select {
	case <-st.arrived:
		e.locks.ClearVulnerable(tid)
	case <-wound:
		return abortEager("as global-deadlock victim (wounded by a secondary)", contend.ReasonWound)
	case <-timer.C:
		// Global deadlock suspicion (Example 4.1): abort and release.
		return abortEager("waiting for backedge round-trip", contend.ReasonDeadlock)
	case <-e.stop:
		e.locks.ClearVulnerable(tid)
		unpark()
		t.Abort()
		// The site was stopped (chaos crash or shutdown) with the txn
		// parked on its round trip — an abort with a cause of its own,
		// previously invisible to the abort accounting.
		e.emit(abortSlot(contend.ReasonCrash), model.NoSite, octx, 0)
		return fmt.Errorf("core: engine stopped: %w", txn.ErrAborted)
	}

	// The special is home and every earlier secondary has committed.
	// Commit the primary and all backedge subtransactions atomically.
	e.emit(prepares, targets[0], octx, 0)
	committed, runErr := twopc.Run(tid, targets, twopc.Coordinator{
		Prepare: func(p model.SiteID, id model.TxnID, sc model.SpanContext) (bool, error) {
			voteStart := e.phaseClock()
			resp, err := e.rpc.CallSpan(p, kindPrepare, preparePayload{TID: id}, e.topo.Params.RPCTimeout, sc)
			e.phaseSince(metrics.PhaseVote, p, id, voteStart)
			if err != nil {
				return false, err
			}
			return resp.(prepareResp).Vote, nil
		},
		Decide: func(p model.SiteID, id model.TxnID, commit bool, sc model.SpanContext) error {
			decStart := e.phaseClock()
			_, err := e.rpc.CallSpan(p, kindDecision, decisionPayload{TID: id, Commit: commit}, e.topo.Params.RPCTimeout, sc)
			e.phaseSince(metrics.PhaseDecision, p, id, decStart)
			return err
		},
		Log: e.decisions,
	}, octx.Fork(e.id))
	unpark()
	if runErr != nil {
		// The decision is logged and durable; only its delivery failed.
		// The participant's inquiry sweep will recover it, but the miss
		// must be visible: a climbing counter here means decision
		// deliveries are being lost, not merely delayed.
		e.bank[undelivered].Inc()
	}
	if !committed {
		t.Abort()
		e.emit(abortSlot(contend.ReasonNoVote), model.NoSite, octx, 0)
		return fmt.Errorf("core: %v aborted by 2PC: %w: %w", tid, twopc.ErrNoVote, txn.ErrAborted)
	}
	e.emit(decided, targets[0], octx, 0)
	// The kernel's commit: only now do the remaining (descendant) replicas
	// receive normal lazy DAG(WT) secondaries.
	return e.finish(t, octx, start, writes)
}

// abortBackedges tombstones the transaction at every backedge site so
// executed subtransactions roll back and late-arriving specials relay
// without executing.
func (e *backedgeEngine) abortBackedges(sc model.SpanContext, targets []model.SiteID) {
	out := sc.Fork(e.id)
	for _, p := range targets {
		e.send(comm.Message{
			From: e.id, To: p, Kind: kindBackedgeAbort, Span: out,
			Payload: abortPayload{TID: sc.TID},
		})
	}
}

func (e *backedgeEngine) Handle(msg comm.Message) {
	if msg.IsResp {
		e.rpc.HandleResponse(msg)
		return
	}
	switch msg.Kind {
	case kindSecondary, kindSpecial:
		// Specials queue behind every earlier secondary (§4.1 step 2).
		e.admit(msg)
	case kindBackedgeExec:
		if !e.logReceipt(msg) {
			return // fenced mid-crash: dropped unacknowledged, retransmitted
		}
		e.phaseSince(metrics.PhaseTransport, msg.From, msg.Span.TID, msg.SentAt)
		e.dispatch(queuedMsg{msg: msg})
	case kindBackedgeAbort:
		e.post(resolution{msg: msg, tid: msg.Payload.(abortPayload).TID, ev: twopc.Abort})
	case kindPrepare:
		p := msg.Payload.(preparePayload)
		e.emit(prepares, msg.From, msg.Span, 0)
		e.mu.Lock()
		_, vote := e.step(p.TID, twopc.Vote)
		e.mu.Unlock()
		//lint:allow waldiscipline the vote's Prepared record was appended and synced by executeHolding before the special was relayed, so the coordinator can only reach this prepare after the registration is durable
		e.reply(msg, prepareResp{Vote: vote})
	case kindDecision:
		d := msg.Payload.(decisionPayload)
		e.post(resolution{msg: msg, tid: d.TID, ev: decision[d.Commit]})
	case kindInquiry:
		// Coordinator side of decision recovery: answer from the stable
		// decision log. Unknown means "not decided yet" — the participant
		// keeps waiting.
		q := msg.Payload.(inquiryPayload)
		commit, known := e.decisions.Lookup(q.TID)
		//lint:allow waldiscipline inquiry answers only from the durable decision log: the Decision record was appended and synced before any participant could learn the outcome and start inquiring
		e.reply(msg, inquiryResp{Known: known, Commit: commit})
	default:
		panic("core: BackEdge received unexpected message kind")
	}
}

// dispatch is BackEdge's ordering of a durably received message, fresh or
// replayed. A backedge execution runs immediately and concurrently (§4.1
// step 1: sent "directly ... to be executed"), on a goroutine of its own:
// it may wait on a lock for up to PrepareTimeout, and no other
// transaction's execution or decision waits behind it. Secondaries and
// specials take the inherited FIFO queue.
func (e *backedgeEngine) dispatch(q queuedMsg) {
	if q.msg.Kind == kindBackedgeExec {
		go e.execBackedge(q.msg)
		return
	}
	e.push(q)
}

// beExec classifies the outcome of executing a backedge/special
// subtransaction: relay onward, consume without relaying, or leave the
// receipt unconsumed for recovery (engine stopping or redo log fenced).
type beExec int

const (
	beExecOK      beExec = iota // executed, pure relay, or aborted: relay + consume
	beExecFailed                // duplicate: consume, no relay
	beExecStopped               // stopping/fenced: recovery inherits the receipt
)

// execBackedge runs a backedge subtransaction at the farthest ancestor
// site: execute holding locks, then relay the special down the tree. The
// receipt is released only once its consumption is durable; a
// stopped/fenced execution leaves it to recovery.
func (e *backedgeEngine) execBackedge(msg comm.Message) {
	p, sc := msg.Payload.(specialPayload), msg.Span
	res := e.executeHolding(p, sc)
	if res == beExecOK {
		e.relaySpecial(p, sc)
	}
	if res != beExecStopped { // a stopped one's receipt stays unconsumed, to recovery
		e.consumeAndDone(msg.From, sc)
	}
}

// executeHolding acquires this site's locks for the subtransaction's
// local writes, buffering them until the 2PC decision. On beExecOK the
// caller relays onward, and the subtransaction holds its locks unless the
// origin had aborted it first; on beExecFailed it was already resolved
// and holds nothing; on beExecStopped nothing is held and nothing may be
// consumed. A delivery that meets its tombstone forgets it and travels
// on like a pure relay, so every later backedge site on its path consumes
// its own delivery and drops its own tombstone; the origin consumes a
// special that no transaction waits for.
func (e *backedgeEngine) executeHolding(p specialPayload, sc model.SpanContext) beExec {
	if e.wasApplied(p.TID) {
		// A crash-recovery re-send duplicated this delivery and the
		// subtransaction is already resolved here. The relay preceded the
		// prepare, so it already went out too: consume without relaying.
		return beExecFailed
	}
	e.mu.Lock()
	rec := e.parts[p.TID]
	restored := rec != nil && rec.t != nil
	e.mu.Unlock()
	if restored {
		// Recovery restored the prepared entry from disk; relay again so
		// the special still comes home (downstream sites and the origin
		// deduplicate).
		return beExecOK
	}
	if !slices.ContainsFunc(p.Writes, func(w model.WriteOp) bool { return e.store.Has(w.Item) }) {
		// Pure relay site (no replica of any written item): nothing to
		// execute, not a 2PC participant.
		if e.stopping() {
			return beExecStopped
		}
		return beExecOK
	}
	t, wait := e.tm.BeginSecondary(p.TID), -1
	for {
		if e.stopping() {
			return beExecStopped
		}
		// Each attempt ends in one step on the record under e.mu. With its
		// locks held and writes buffered the subtransaction enrols as a
		// live participant, unless an abort came first; an abort can
		// therefore never miss an enrolled subtransaction. A tombstone (a
		// record with no transaction: the origin aborted first) ends a
		// blocked attempt too, and is forgotten, since this delivery was
		// the last thing it guarded. Enrolment precedes the relay, which is
		// where the subtransaction takes its place in this site's order.
		err := e.lockSecondary(t, p.Writes, &wait, false)
		e.mu.Lock()
		enrolled := err == nil && e.enroll(t, p, sc)
		rec = e.parts[p.TID]
		skip := !enrolled && rec != nil && rec.t == nil
		if skip {
			e.step(p.TID, twopc.Forget)
		}
		e.mu.Unlock()
		switch {
		case skip:
			t.Abort()
			return beExecOK
		case err != nil:
			e.resubmit(t, err)
			continue
		case !enrolled:
			t.Abort()
			return beExecFailed
		}
		// The prepared state must be durable before the relay (and later
		// the YES vote) can externalize it: a recovered participant has to
		// find the entry, re-execute it, and resolve it by inquiry. On a
		// fence, roll the record back and forget it — nothing reached disk,
		// so recovery re-processes the still-unconsumed receipt from scratch.
		if e.walAppendSync(wal.Record{
			Kind: wal.KindPrepared, TID: p.TID, Origin: p.Origin,
			Writes: p.Writes, Span: sc,
		}) != nil {
			e.decide(p.TID, twopc.Rollback, model.NoSite)
			return beExecStopped
		}
		return beExecOK
	}
}

// relaySpecial forwards the special secondary subtransaction one hop down
// the tree toward the origin, atomically with respect to local commits so
// downstream sites see a consistent order.
func (e *backedgeEngine) relaySpecial(p specialPayload, sc model.SpanContext) {
	next := e.topo.Tree.NextHopDown(e.id, p.Origin)
	e.commitMu.Lock()
	e.ship(next, kindSpecial, sc, p)
	e.commitMu.Unlock()
}

// participants is the participant loop: it applies every abort,
// decision and inquiry answer in the order they arrived, one at a time.
func (e *backedgeEngine) participants() {
	for {
		r, ok := e.inbox.Next(e.stop)
		if !ok {
			return
		}
		e.resolve(r)
	}
}

// post queues one resolution for the participant loop. If the engine
// stops first it is dropped: a decision then goes unacknowledged, and
// recovery resolves the participant by inquiry.
func (e *backedgeEngine) post(r resolution) { e.inbox.Push(r, e.stop) }

// resolve is one step of the participant loop: apply the event to its
// record, then acknowledge a decision.
func (e *backedgeEngine) resolve(r resolution) {
	e.decide(r.tid, r.ev, r.msg.From)
	if r.msg.Kind == kindDecision {
		e.reply(r.msg, decisionResp{})
	}
}

// reply answers a 2PC request: a prepare vote, a decision
// acknowledgement, a decision inquiry. Each answer externalizes a logged
// transition (the prepared registration, the decision's apply or
// resolution, the decision log), so the record must be fsynced before the
// reply leaves; the waldiscipline analyzer checks every call.
//
// repl:durable sync
func (e *backedgeEngine) reply(msg comm.Message, payload any) { e.rpc.Reply(msg, payload) }

// decide moves tid's record by ev — an abort, a commit or a rollback —
// and, if that ended a live participant, installs or discards it, with
// from the site the outcome came from. A refused event changes nothing:
// a duplicate (phase 2 and an inquiry both deliver the outcome), or a
// decision for a subtransaction this site has already forgotten.
func (e *backedgeEngine) decide(tid model.TxnID, ev twopc.Event, from model.SiteID) {
	e.mu.Lock()
	p, legal := e.step(tid, ev)
	e.mu.Unlock()
	switch {
	case !legal || p.t == nil:
	case ev == twopc.Commit:
		e.install(p, from)
	default:
		e.discard(p)
	}
}

// install commits a decided subtransaction with the decision's redo
// record, reports the commit decided by coordinator from, then settles
// it. A fenced log (crash in progress) fails the Commit with nothing
// installed: the prepared entry and the coordinator's decision are both
// durable, so recovery restores the subtransaction in doubt and resolves
// it again by inquiry.
func (e *backedgeEngine) install(p *participant, from model.SiteID) {
	e.armDurable(p.t, wal.Record{
		Kind: wal.KindApply, TID: p.t.ID, Role: wal.RoleResolve,
		Writes: p.writes, Span: p.sc,
	})
	if p.t.Commit() == nil {
		e.emit(decided, from, p.sc, 0)
		e.emit(metrics.Secondaries, model.NoSite, p.sc, 0)
	}
	e.settle(p.t.ID)
}

// discard aborts and settles a decided subtransaction, then logs its
// resolution. On a fenced log recovery restores the entry and resolves
// it again by inquiry: the coordinator logs every abort before a
// participant can learn it.
func (e *backedgeEngine) discard(p *participant) {
	p.t.Abort()
	e.settle(p.t.ID)
	_ = e.walAppendSync(wal.Record{Kind: wal.KindResolved, TID: p.t.ID})
}

// settle forgets a decided participant's record. It runs only once the
// transaction has finished, so its writes are installed (or will never
// be): a reader that pinDisjoint admits afterwards pins at or after the
// install and never reads a version the subtransaction supersedes at
// this site.
func (e *backedgeEngine) settle(tid model.TxnID) {
	e.mu.Lock()
	e.step(tid, twopc.Forget)
	e.mu.Unlock()
}

// pinDisjoint is BackEdge's snapshot policy (lazyEngine.snapshot): a
// read-only program pins the install point unless an executed
// participant's record, not yet forgotten, writes one of its items, and
// otherwise takes S locks and waits for that decision. The check and the
// pin are one step under e.mu, which enrolment and settle also take, so
// no reader of a subtransaction's items pins between its execution and
// its install (DESIGN.md §6).
func (e *backedgeEngine) pinDisjoint(ops []model.Op) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.parts {
		for _, w := range p.writes {
			for _, op := range ops {
				if op.Item == w.Item {
					return 0, false
				}
			}
		}
	}
	return e.store.Pin(), true
}

// inquirer is the participant side of decision recovery: it periodically
// looks for subtransactions that have sat prepared past PrepareTimeout —
// meaning the phase-2 message was lost or the coordinator crashed after
// deciding — and asks each one's coordinator for the logged decision.
// Prepared means locks held, so a stuck participant blocks every
// conflicting transaction at this site until this loop resolves it.
func (e *backedgeEngine) inquirer() {
	tick := time.NewTicker(max(e.topo.Params.PrepareTimeout/2, 5*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
		}
		//lint:allow nodeterminism the inquiry sweep is wall-clock-driven recovery by design
		e.inquireStuck(time.Now().Add(-e.topo.Params.PrepareTimeout))
	}
}

// inquireStuck sends one decision inquiry per overdue participant and
// posts each known answer to the participant loop. Every overdue
// participant holds locks: working ones whose prepare or abort
// notification was lost, prepared ones whose decision was lost.
// Inquiring about a working subtransaction is safe: its vote is still
// outstanding, so the only decision the coordinator can have logged is
// an abort. The inquiry is idempotent (the coordinator only reads its
// log), so it retries through the RPC layer and tolerates asking again on
// the next sweep — including the whole time the coordinator is crashed,
// until a restart brings its log back online.
func (e *backedgeEngine) inquireStuck(cutoff time.Time) {
	for _, p := range e.overdue(cutoff) {
		if e.stopping() {
			return
		}
		e.emit(inquiries, p.origin, p.sc, 0)
		resp, err := e.rpc.CallRetrySpan(p.origin, kindInquiry, inquiryPayload{TID: p.t.ID}, e.topo.Params.RPCTimeout, 2, p.sc.Fork(e.id))
		if err != nil {
			continue // coordinator unreachable; the next sweep retries
		}
		if r := resp.(inquiryResp); r.Known {
			e.post(resolution{msg: comm.Message{From: p.origin}, tid: p.t.ID, ev: decision[r.Commit]})
		}
	}
}

// overdue returns the participants made before cutoff that still await
// their decision, in TxnID order so retransmission traffic is replayable,
// and forgets the tombstones made before it. A tombstone only spares a
// late delivery from executing and holding its locks until an inquiry
// resolves it. A delivery that comes after its tombstone went does just
// that (the origin logged the abort before announcing it); and the
// tombstone of an abort that arrived after an inquiry had resolved the
// participant guards a delivery that already came.
func (e *backedgeEngine) overdue(cutoff time.Time) []*participant {
	var out []*participant
	e.mu.Lock()
	for tid, p := range e.parts {
		switch {
		case !p.since.Before(cutoff):
		case p.t == nil:
			e.step(tid, twopc.Forget)
		case p.awaiting():
			out = append(out, p)
		}
	}
	e.mu.Unlock()
	slices.SortFunc(out, func(a, b *participant) int {
		return cmp.Or(cmp.Compare(a.t.ID.Site, b.t.ID.Site), cmp.Compare(a.t.ID.Seq, b.t.ID.Seq))
	})
	return out
}

// onSpecial is the inherited applier's dispatch hook: a special
// subtransaction has reached the head of the FIFO queue, behind every
// earlier secondary.
func (e *backedgeEngine) onSpecial(msg comm.Message) {
	if msg.Payload.(specialPayload).Origin == e.id {
		e.specialHome(msg)
	} else {
		// Intermediate (possibly backedge) site: execute holding locks if
		// we replicate any written item, then relay.
		e.execBackedge(msg)
	}
}

// specialHome hands the arrived special to the waiting origin transaction
// and blocks until that transaction resolves, so later queue entries
// commit after it — the FIFO commit order of §2 spans the eager commit.
func (e *backedgeEngine) specialHome(msg comm.Message) {
	p := msg.Payload.(specialPayload)
	e.mu.Lock()
	st := e.waiters[p.TID]
	// Remove the waiter on first arrival: a crash-recovery duplicate of
	// the special must not close(arrived) twice.
	delete(e.waiters, p.TID)
	e.mu.Unlock()
	if !e.consumeAndDone(msg.From, msg.Span) {
		return // fenced: receipt unconsumed, left to recovery
	}
	if st == nil {
		return // origin already aborted (PrepareTimeout), or duplicate
	}
	close(st.arrived)
	select {
	case <-st.done:
	case <-e.stop:
	}
}
