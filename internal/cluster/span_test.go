package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// artifactDir is where chaos tests persist post-mortem artifacts —
// flight-recorder dumps, trace JSONL, Perfetto exports. CI sets
// REPRO_ARTIFACT_DIR and uploads the directory when the chaos job
// fails; unset (the local default) means keep everything in TempDirs.
func artifactDir() string {
	return os.Getenv("REPRO_ARTIFACT_DIR")
}

// saveChaosArtifacts registers a cleanup that, if the test fails and
// REPRO_ARTIFACT_DIR is set, writes the recorded event stream next to
// any flight dumps as both trace JSONL and a Perfetto trace, so a CI
// failure ships the evidence instead of just the log.
func saveChaosArtifacts(t *testing.T, rec *trace.Recorder) {
	t.Cleanup(func() {
		dir := artifactDir()
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "_")
		if f, err := os.Create(filepath.Join(dir, name+".trace.jsonl")); err == nil {
			_ = rec.WriteJSONL(f)
			f.Close()
		}
		if f, err := os.Create(filepath.Join(dir, name+".perfetto.json")); err == nil {
			_ = trace.WriteChromeTrace(f, rec.Snapshot())
			f.Close()
		}
		t.Logf("artifacts: wrote %s.{trace.jsonl,perfetto.json} to %s", name, dir)
	})
}

// flightDirFor routes a test's flight-recorder dumps into the CI
// artifact directory when set, a TempDir otherwise.
func flightDirFor(t *testing.T) string {
	if dir := artifactDir(); dir != "" {
		sub := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".flight")
		if err := os.MkdirAll(sub, 0o755); err == nil {
			return sub
		}
	}
	return t.TempDir()
}

// spanWorkload is a deterministic single-threaded workload: with one
// client thread per site the TxnID↔program mapping is fixed, so two
// same-seed runs produce identical writes per transaction and therefore
// identical span-tree structures for every transaction committed in
// both.
func spanWorkload(backedgeProb float64) workload.Config {
	wl := smallWorkload()
	wl.ThreadsPerSite = 1
	wl.TxnsPerThread = 30
	wl.BackedgeProb = backedgeProb
	return wl
}

// spanChaosWindow is how long the span tests' fault schedule runs.
const spanChaosWindow = 800 * time.Millisecond

// structures returns the Structure rendering per transaction that
// committed (has a TxnCommit event) in the stream.
func structures(events []trace.Event) map[model.TxnID]string {
	committed := make(map[model.TxnID]bool)
	for _, ev := range events {
		if ev.Kind == trace.TxnCommit {
			committed[ev.TID] = true
		}
	}
	out := make(map[model.TxnID]string)
	for tid, tr := range trace.BuildSpanTrees(events) {
		if committed[tid] {
			out[tid] = tr.Structure()
		}
	}
	return out
}

// TestChaosSpanIntegrity runs the propagating protocols under the same
// seeded chaos as TestChaosAllProtocols — the crashed site rebuilt from
// its redo log, which runChaos checks by its WALRecover event — and
// asserts causal-span integrity: every span-carrying event — secondary applies and relays,
// retransmissions, acks, 2PC votes and decisions, fault attributions —
// resolves through recorded parents to the originating transaction's
// primary span, and the Perfetto export is valid JSON with monotone
// per-track timestamps.
func TestChaosSpanIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test")
	}
	protos := []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.2},
	}
	for _, pc := range protos {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			events := runChaos(t, pc.proto, spanWorkload(pc.backedge), spanChaosWindow, trace.NewRecorder())

			if problems := trace.VerifySpans(events); len(problems) != 0 {
				max := len(problems)
				if max > 10 {
					max = 10
				}
				t.Fatalf("%d span-integrity violations, first %d:\n%v",
					len(problems), max, problems[:max])
			}

			// Every committed transaction that forwarded work has applied
			// descendants under its root, and they really descend from the
			// primary commit span.
			trees := trace.BuildSpanTrees(events)
			applied := 0
			for _, tr := range trees {
				if tr.Root == nil {
					continue
				}
				for _, n := range tr.Nodes {
					if !n.Has(trace.SecondaryApplied) && !n.Has(trace.BackedgeCommit) {
						continue
					}
					applied++
					m := n
					for m.Parent != nil {
						m = m.Parent
					}
					if m != tr.Root {
						t.Fatalf("applied span %v at site %d does not reach the root", n.ID, n.Site)
					}
				}
			}
			if applied == 0 {
				t.Fatal("no applied spans recorded under chaos")
			}

			// Under ≥5% loss the reliable sublayer retransmitted, and those
			// retransmissions were attributed to transaction spans.
			retrans := 0
			for _, ev := range events {
				if ev.Kind == trace.RelRetransmit && ev.Span != 0 {
					retrans++
				}
			}
			if retrans == 0 {
				t.Error("no span-attributed retransmissions — chaos inert or attribution lost")
			}

			// Perfetto export: valid JSON, non-empty, monotone per track.
			var buf bytes.Buffer
			if err := trace.WriteChromeTrace(&buf, events); err != nil {
				t.Fatal(err)
			}
			var out struct {
				TraceEvents []struct {
					Ph  string `json:"ph"`
					Ts  int64  `json:"ts"`
					Pid int    `json:"pid"`
					Tid int    `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				t.Fatalf("Perfetto export is not valid JSON: %v", err)
			}
			if len(out.TraceEvents) < len(events) {
				t.Fatalf("export dropped events: %d < %d", len(out.TraceEvents), len(events))
			}
			last := make(map[[2]int]int64)
			for _, ev := range out.TraceEvents {
				if ev.Ph != "i" {
					continue
				}
				key := [2]int{ev.Pid, ev.Tid}
				if ts, ok := last[key]; ok && ev.Ts < ts {
					t.Fatalf("track %v timestamps not monotone", key)
				}
				last[key] = ev.Ts
			}
		})
	}
}

// TestChaosSpanStructureStable reruns the same seeded chaos twice and
// asserts the reconstructed propagation structure is byte-identical for
// every transaction committed in both runs: span derivation depends
// only on transaction identity and routing, never on timing, retry
// counts, or which of the decision/inquiry paths delivered a 2PC
// outcome.
func TestChaosSpanStructureStable(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test")
	}
	protos := []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.DAGWT, 0},
		{core.BackEdge, 0.2},
	}
	for _, pc := range protos {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			a := structures(runChaos(t, pc.proto, spanWorkload(pc.backedge), spanChaosWindow, trace.NewRecorder()))
			b := structures(runChaos(t, pc.proto, spanWorkload(pc.backedge), spanChaosWindow, trace.NewRecorder()))
			both := 0
			for tid, sa := range a {
				sb, ok := b[tid]
				if !ok {
					continue // committed in run A only (divergent abort timing)
				}
				both++
				if sa != sb {
					t.Fatalf("txn %v structure differs between same-seed runs:\nrun A:\n%srun B:\n%s", tid, sa, sb)
				}
			}
			if both == 0 {
				t.Fatal("no transaction committed in both runs — nothing compared")
			}
			t.Logf("%v: %d transactions committed in both runs, all structures byte-identical", pc.proto, both)
		})
	}
}
