package core

import (
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

	table *twopc.Table
	// decisions is this site's coordinator-side stable decision record:
	// every 2PC outcome (and every unilateral pre-2PC abort) for
	// transactions originating here, written before participants learn it.
	// Participants stuck in prepared after a lost decision message or a
	// coordinator crash recover by inquiring against it (§4.1 step 3's
	// atomic commitment, completed with the recovery path classic 2PC
	// requires once sites can actually crash).
	decisions *twopc.DecisionLog

	mu       sync.Mutex
	prepared map[model.TxnID]*pendingBE   // executed backedge subtxns awaiting the decision // repl:guardedby(mu)
	waiters  map[model.TxnID]*originState // origin-side transactions awaiting their special // repl:guardedby(mu)
	// writing counts, per item, the registered subtransactions that write
	// it and have not yet been settled: a read-only program reading any of
	// these items takes S locks instead of a snapshot (pinDisjoint).
	writing map[model.ItemID]int // repl:guardedby(mu)
	// unsettled counts the registered subtransactions not yet settled:
	// the prepared ones plus those taken whose decision is still landing.
	unsettled int // repl:guardedby(mu)
}

// pendingBE is a participant-side executed backedge subtransaction
// holding its locks until the 2PC decision: the live transaction, the
// coordinator to ask if the decision goes missing, and when it was
// registered (to know when waiting has gone on suspiciously long).
type pendingBE struct {
	t      *txn.Txn
	origin model.SiteID
	since  time.Time
	// sc is the causal context the subtransaction executed under; the
	// decision events are attributed to it no matter which path (phase 2
	// or inquiry recovery) delivers the outcome.
	sc model.SpanContext
	// writes is the full payload write set, kept so the commit-decision
	// redo record carries what recovery needs to replay it.
	writes []model.WriteOp
}

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
		table:       twopc.NewTable(),
		decisions:   twopc.NewDecisionLog(),
		prepared:    make(map[model.TxnID]*pendingBE),
		waiters:     make(map[model.TxnID]*originState),
		writing:     make(map[model.ItemID]int),
	}
	e.special, e.enqueue, e.snapshot = e.onSpecial, e.dispatch, e.pinDisjoint
	e.recover()
	return e
}

// Status adds the eager arm to the DAG(WT) status: how many executed
// backedge subtransactions sit holding locks awaiting a decision, the
// oldest of them (a hung decision shows up as its age climbing), how
// many are registered and not yet settled, and the parked origins. The
// unsettled count is read after the kernel's consumed count, as
// Quiescent requires.
func (e *backedgeEngine) Status() watch.Status {
	st := e.dagwtEngine.Status()
	e.mu.Lock()
	defer e.mu.Unlock()
	st.Prepared, st.Parked, st.Unsettled = len(e.prepared), len(e.waiters), e.unsettled
	for tid, p := range e.prepared {
		if st.OldestSince.IsZero() || p.since.Before(st.OldestSince) {
			st.Oldest, st.OldestSince = tid, p.since
		}
	}
	return st
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
		t := e.tm.BeginSecondary(tid)
		held := true
		for _, w := range pe.Writes {
			if !e.store.Has(w.Item) {
				continue
			}
			if err := t.Write(w.Item, w.Value); err != nil {
				held = false // unreachable: the lock manager is fresh
				break
			}
		}
		if !held {
			t.Abort()
			continue
		}
		_ = e.table.Begin(tid)
		//lint:allow nodeterminism since drives the wall-clock inquiry sweep, not protocol ordering
		p := &pendingBE{t: t, origin: pe.Origin, since: time.Now(), sc: pe.Span, writes: pe.Writes}
		e.mu.Lock()
		e.register(p)
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
// apply was lost with the heap: log the apply first, then install the
// writes, note each in the freshness tracker as the kernel commit does,
// and re-send the lazy fan-out. The participants commit their
// halves on the durable decision; this is the origin's half of that
// atomicity, finished by recovery instead of the crashed goroutine.
func (e *backedgeEngine) redoEager(tid model.TxnID, ee wal.EagerEntry) {
	rec := wal.Record{
		Kind: wal.KindApply, TID: tid, Role: wal.RoleOrigin,
		Writes: ee.Writes, Forwards: len(ee.Writes) > 0, Span: ee.Span,
	}
	if e.walAppendSync(rec) != nil {
		return
	}
	for _, w := range ee.Writes {
		if !e.store.Has(w.Item) {
			continue
		}
		ver, err := e.store.Apply(w.Item, w.Value, tid)
		if err != nil {
			continue
		}
		e.sinks.Recorder.Write(e.id, w.Item, ver.Num, tid)
		e.sinks.Fresh.NoteCommit(w.Item)
	}
	e.propagate(ee.Span, ts.Timestamp{}, ee.Writes)
}

func (e *backedgeEngine) Start() {
	e.dagwtEngine.Start()
	go e.inquirer()
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
		go e.handleAbort(msg.Payload.(abortPayload).TID)
	case kindPrepare:
		p := msg.Payload.(preparePayload)
		e.emit(prepares, msg.From, msg.Span, 0)
		//lint:allow waldiscipline the vote's Prepared record was appended and synced by executeHolding before the special was relayed, so the coordinator can only reach this prepare after the registration is durable
		e.reply(msg, prepareResp{Vote: e.table.Prepare(p.TID)})
	case kindDecision:
		// Decisions may take a lock-release step; keep the transport pair
		// goroutine free.
		go e.handleDecision(msg)
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
// step 1: sent "directly ... to be executed"), on a goroutine of its own;
// secondaries and specials take the inherited FIFO queue.
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
	switch e.executeHolding(p, sc) {
	case beExecOK:
		e.relaySpecial(p, sc)
		e.consumeAndDone(msg.From, sc)
	case beExecFailed:
		e.consumeAndDone(msg.From, sc)
	case beExecStopped:
		// Receipt stays unconsumed; recovery re-processes it.
	}
}

// executeHolding acquires this site's locks for the subtransaction's
// local writes, buffering them until the 2PC decision. On beExecOK the
// caller relays onward, and the subtransaction holds its locks unless the
// origin had aborted it (see skipAborted); on beExecFailed it was already
// resolved and holds nothing; on beExecStopped nothing is held and
// nothing may be consumed.
func (e *backedgeEngine) executeHolding(p specialPayload, sc model.SpanContext) beExec {
	if e.wasApplied(p.TID) {
		// A crash-recovery re-send duplicated this delivery and the
		// subtransaction is already resolved here. The relay preceded the
		// prepare, so it already went out too: consume without relaying.
		return beExecFailed
	}
	e.mu.Lock()
	_, restored := e.prepared[p.TID]
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
	t := e.tm.BeginSecondary(p.TID)
	wait := -1
	for {
		if e.stopping() {
			return beExecStopped
		}
		if e.table.Aborted(p.TID) {
			return e.skipAborted(p.TID)
		}
		if err := e.lockSecondary(t, p.Writes, &wait, false); err != nil {
			e.resubmit(t, err)
			continue
		}
		// Locks held, writes buffered. Register as a live participant —
		// unless an abort raced in, in which case roll back. Registration
		// and tombstone lookup are paired under e.mu so handleAbort can
		// never miss a registered subtransaction. Registration precedes the
		// relay, which is where the subtransaction takes its place in this
		// site's order.
		//lint:allow nodeterminism since drives the wall-clock inquiry sweep, not protocol ordering
		pe := &pendingBE{t: t, origin: p.Origin, since: time.Now(), sc: sc, writes: p.Writes}
		e.mu.Lock()
		err := e.table.Begin(p.TID)
		if err == nil {
			e.register(pe)
		}
		e.mu.Unlock()
		if err != nil {
			t.Abort()
			if e.table.Aborted(p.TID) {
				return e.skipAborted(p.TID)
			}
			return beExecFailed
		}
		// The prepared state must be durable before the relay (and later
		// the YES vote) can externalize it: a recovered participant has to
		// find the entry, re-execute it, and resolve it by inquiry. On a
		// fence, undo the registration entirely — nothing reached disk, so
		// recovery re-processes the still-unconsumed receipt from scratch.
		if e.walAppendSync(wal.Record{
			Kind: wal.KindPrepared, TID: p.TID, Origin: p.Origin,
			Writes: p.Writes, Span: sc,
		}) != nil {
			e.mu.Lock()
			owned := e.take(p.TID) != nil
			e.mu.Unlock()
			e.table.Finish(p.TID, false)
			if owned {
				e.discard(pe)
			}
			return beExecStopped
		}
		return beExecOK
	}
}

// skipAborted ends the delivery of a subtransaction whose origin aborted
// it before it could register here. That delivery was the last thing the
// abort's tombstone guarded at this site, so the tombstone goes; and the
// special still travels on like a pure relay, so every later backedge
// site on its path consumes its own delivery and drops its own tombstone.
// The origin consumes a special that no transaction waits for.
func (e *backedgeEngine) skipAborted(tid model.TxnID) beExec {
	_ = e.table.Forget(tid)
	return beExecOK
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

// handleAbort processes the origin's global-deadlock abort: mark the
// transaction aborted and roll back its executed subtransaction if any.
// A registered subtransaction has had its delivery, so its tombstone is
// forgotten with it; otherwise the tombstone stays until the delivery
// meets it in executeHolding.
func (e *backedgeEngine) handleAbort(tid model.TxnID) {
	e.mu.Lock()
	e.table.Finish(tid, false)
	p := e.take(tid)
	e.mu.Unlock()
	if p != nil {
		e.discard(p)
		_ = e.table.Forget(tid)
	}
}

// handleDecision applies the 2PC outcome to the prepared subtransaction.
func (e *backedgeEngine) handleDecision(msg comm.Message) {
	d := msg.Payload.(decisionPayload)
	e.finishDecision(d.TID, d.Commit, msg.From)
	e.reply(msg, decisionResp{})
}

// reply answers a 2PC request: a prepare vote, a decision
// acknowledgement, a decision inquiry. Each answer externalizes a logged
// transition (the prepared registration, the decision's apply or
// resolution, the decision log), so the record must be fsynced before the
// reply leaves; the waldiscipline analyzer checks every call.
//
// repl:durable sync
func (e *backedgeEngine) reply(msg comm.Message, payload any) { e.rpc.Reply(msg, payload) }

// finishDecision resolves a prepared backedge subtransaction with the 2PC
// outcome, whether the decision arrived from the coordinator's phase 2 or
// from a recovery inquiry; the two paths can race and the second is a
// no-op (the state table is the arbiter).
func (e *backedgeEngine) finishDecision(tid model.TxnID, commit bool, from model.SiteID) {
	e.mu.Lock()
	act := e.table.Finish(tid, commit)
	p := e.take(tid)
	e.mu.Unlock()
	if p != nil {
		if act && commit {
			e.install(p, from)
		} else {
			e.discard(p)
		}
	}
	_ = e.table.Forget(tid)
}

// register makes p a live participant: it enters the prepared map and
// counts as unsettled, and its items stop being readable by snapshot
// readers until settle releases them. The caller holds e.mu.
func (e *backedgeEngine) register(p *pendingBE) {
	e.prepared[p.t.ID] = p
	e.unsettled++
	for _, w := range p.writes {
		e.writing[w.Item]++
	}
}

// take removes tid's registered subtransaction from the prepared map and
// returns it, or nil if there is none. Whoever takes an entry settles it
// (install or discard), exactly once. The caller holds e.mu.
func (e *backedgeEngine) take(tid model.TxnID) *pendingBE {
	p := e.prepared[tid]
	delete(e.prepared, tid)
	return p
}

// install commits a taken subtransaction with the decision's redo record,
// reports the commit decided by coordinator from, then settles it. A
// fenced log (crash in progress) fails the Commit with nothing
// installed: the prepared entry and the coordinator's decision are both
// durable, so recovery restores the subtransaction in doubt and resolves
// it again by inquiry.
func (e *backedgeEngine) install(p *pendingBE, from model.SiteID) {
	e.armDurable(p.t, wal.Record{
		Kind: wal.KindApply, TID: p.t.ID, Role: wal.RoleResolve,
		Writes: p.writes, Span: p.sc,
	})
	if p.t.Commit() == nil {
		e.emit(decided, from, p.sc, 0)
		e.noteApplied(p.writes)
		e.emit(metrics.Secondaries, model.NoSite, p.sc, 0)
	}
	e.settle(p)
}

// discard aborts and settles a taken subtransaction, then logs its
// resolution. On a fenced log recovery restores the entry and resolves
// it again by inquiry: the coordinator logs every abort before a
// participant can learn it.
func (e *backedgeEngine) discard(p *pendingBE) {
	p.t.Abort()
	e.settle(p)
	_ = e.walAppendSync(wal.Record{Kind: wal.KindResolved, TID: p.t.ID})
}

// settle ends a registered subtransaction: it stops counting p as
// unsettled and releases p's items to snapshot readers. It
// runs only once p's transaction has finished, so its writes are
// installed (or will never be): a reader that pinDisjoint admits
// afterwards pins at or after the install and never reads a version p
// supersedes at this site.
func (e *backedgeEngine) settle(p *pendingBE) {
	e.mu.Lock()
	e.unsettled--
	for _, w := range p.writes {
		if e.writing[w.Item]--; e.writing[w.Item] == 0 {
			delete(e.writing, w.Item)
		}
	}
	e.mu.Unlock()
}

// pinDisjoint is BackEdge's snapshot policy (lazyEngine.snapshot): a
// read-only program pins the install point unless a registered
// subtransaction writes one of its items, and otherwise takes S locks and
// waits for that decision. The check and the pin are one step under e.mu,
// which registration and settle also take, so no reader of a
// subtransaction's items pins between its registration and its install
// (DESIGN.md §6).
func (e *backedgeEngine) pinDisjoint(ops []model.Op) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, op := range ops {
		if e.writing[op.Item] > 0 {
			return 0, false
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
	interval := e.topo.Params.PrepareTimeout / 2
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
		}
		e.inquireStuck()
	}
}

// inquireStuck sends one decision inquiry per overdue registered
// subtransaction (every prepared-map entry holds locks: working ones
// whose prepare or abort notification was lost, prepared ones whose
// decision was lost). Inquiring about a working subtransaction is safe:
// its vote is still outstanding, so the only decision the coordinator can
// have logged is an abort. The inquiry is idempotent (the coordinator
// only reads its log), so it retries through the RPC layer and tolerates
// asking again on the next sweep — including the whole time the
// coordinator is crashed, until a restart brings its log back online.
func (e *backedgeEngine) inquireStuck() {
	//lint:allow nodeterminism the inquiry sweep is wall-clock-driven recovery by design
	cutoff := time.Now().Add(-e.topo.Params.PrepareTimeout)
	type stuck struct {
		tid    model.TxnID
		origin model.SiteID
		sc     model.SpanContext
	}
	var overdue []stuck
	e.mu.Lock()
	for tid, p := range e.prepared {
		if p.since.Before(cutoff) {
			overdue = append(overdue, stuck{tid, p.origin, p.sc})
		}
	}
	e.mu.Unlock()
	// Inquire in TxnID order so retransmission traffic is replayable.
	sort.Slice(overdue, func(i, j int) bool {
		a, b := overdue[i].tid, overdue[j].tid
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Seq < b.Seq
	})
	for _, s := range overdue {
		if e.stopping() {
			return
		}
		e.emit(inquiries, s.origin, s.sc, 0)
		resp, err := e.rpc.CallRetrySpan(s.origin, kindInquiry, inquiryPayload{TID: s.tid}, e.topo.Params.RPCTimeout, 2, s.sc.Fork(e.id))
		if err != nil {
			continue // coordinator unreachable; the next sweep retries
		}
		if r := resp.(inquiryResp); r.Known {
			e.finishDecision(s.tid, r.Commit, s.origin)
		}
	}
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
