package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/txn"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]Protocol{
		"psl": PSL, "PSL": PSL,
		"dagwt": DAGWT, "DAG(WT)": DAGWT, "dag-wt": DAGWT,
		"dagt": DAGT, "DAG(T)": DAGT,
		"backedge": BackEdge, "BE": BackEdge,
		"naive": NaiveLazy, "NaiveLazy": NaiveLazy,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseProtocol("nonsense"); err == nil {
		t.Error("nonsense accepted")
	}
}

func TestProtocolStringRoundTrip(t *testing.T) {
	for _, p := range []Protocol{PSL, DAGWT, DAGT, BackEdge, NaiveLazy} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v, %v", p, got, err)
		}
	}
	if !strings.Contains(Protocol(99).String(), "99") {
		t.Error("unknown protocol String")
	}
}

func TestProtocolClassification(t *testing.T) {
	if PSL.Propagates() {
		t.Error("PSL does not propagate")
	}
	if !BackEdge.Propagates() || !DAGWT.Propagates() || !DAGT.Propagates() {
		t.Error("lazy protocols propagate")
	}
	if NaiveLazy.Serializable() {
		t.Error("NaiveLazy is not serializable")
	}
	if !PSL.Serializable() || !BackEdge.Serializable() {
		t.Error("PSL/BackEdge are serializable")
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := good
	bad.LockTimeout = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero LockTimeout accepted")
	}
	bad = good
	bad.RPCTimeout = good.LockTimeout / 2
	if err := bad.Validate(); err == nil {
		t.Error("RPCTimeout <= LockTimeout accepted")
	}
	bad = good
	bad.EpochPeriod = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero EpochPeriod accepted")
	}
}

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.LockTimeout != 50*time.Millisecond {
		t.Errorf("deadlock timeout = %v, Table 1 says 50ms", p.LockTimeout)
	}
}

// TestExecuteRejectsForeignWrites: a transaction may update only items
// whose primary copy lives at its origin site (§1.1).
func TestExecuteRejectsForeignWrites(t *testing.T) {
	p := example11Placement(t)
	for _, proto := range []Protocol{DAGWT, DAGT, PSL, NaiveLazy} {
		s := buildSystem(t, proto, p, testParams(), 0)
		// Item 1's primary is s1, not s0.
		err := s.engines[0].Execute([]model.Op{w(1, 5)})
		if err == nil || errors.Is(err, txn.ErrAborted) {
			t.Errorf("%v: foreign write not rejected: %v", proto, err)
		}
	}
}

// TestExecuteRejectsReadsWithoutCopy: reads must target items with a copy
// at the origin site.
func TestExecuteRejectsReadsWithoutCopy(t *testing.T) {
	p := placement(t, 2, []model.SiteID{0, 1}, [][]model.SiteID{nil, nil})
	s := buildSystem(t, DAGWT, p, testParams(), 0)
	if err := s.engines[0].Execute([]model.Op{r(1)}); err == nil {
		t.Error("read without a local copy accepted")
	}
}

// TestLocalDeadlockVictimAborts: two primaries at one site locking two
// items in opposite orders deadlock, and the lock timeout aborts them.
// Both can time out together — symmetric timeouts promise that nobody
// waits forever, not that somebody wins — so the caller retries each
// aborted transaction, the second writer backing off longer than a whole
// transaction takes, and both must commit into a serializable history.
func TestLocalDeadlockVictimAborts(t *testing.T) {
	p := placement(t, 1, []model.SiteID{0, 0}, [][]model.SiteID{nil, nil})
	params := testParams()
	params.OpCost = 5 * time.Millisecond
	s := buildSystem(t, DAGWT, p, params, 0)

	const attempts = 5
	programs := [][]model.Op{{w(0, 1), w(1, 1)}, {w(1, 2), w(0, 2)}}
	var wg sync.WaitGroup
	errs := make([]error, len(programs))
	for i, ops := range programs {
		wg.Add(1)
		go func(i int, ops []model.Op) {
			defer wg.Done()
			backoff := time.Duration(i) * 4 * params.LockTimeout
			for a := 1; ; a++ {
				errs[i] = s.engines[0].Execute(ops)
				if errs[i] == nil || !errors.Is(errs[i], txn.ErrAborted) || a == attempts {
					return
				}
				time.Sleep(time.Duration(a) * backoff)
			}
		}(i, ops)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d did not commit within %d attempts: %v", i, attempts, err)
		}
	}
	if err := s.recorder.CheckSerializable(); err != nil {
		t.Error(err)
	}
}

// TestAbortedPrimaryLeavesNoTrace: an aborted primary must not propagate
// anything or dirty any copy.
func TestAbortedPrimaryLeavesNoTrace(t *testing.T) {
	p := example11Placement(t)
	params := testParams()
	s := buildSystem(t, DAGWT, p, params, 0)

	// Hold an exclusive lock on item 0 at s0 via a slow conflicting txn.
	blocker := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := s.engines[0].(*dagwtEngine)
		tx := e.tm.Begin(e.newTxnID())
		if err := tx.Write(0, 99); err != nil {
			t.Errorf("blocker write: %v", err)
		}
		<-blocker
		tx.Abort()
	}()
	time.Sleep(10 * time.Millisecond)
	err := s.engines[0].Execute([]model.Op{w(0, 1)})
	if !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("expected timeout abort, got %v", err)
	}
	close(blocker)
	wg.Wait()
	s.quiesce(t)
	if got := s.value(t, 1, 0); got != 0 {
		t.Errorf("aborted write propagated to s1: %d", got)
	}
	rep := s.collector.Snapshot(3)
	if rep.Aborted == 0 {
		t.Error("abort not counted")
	}
}
