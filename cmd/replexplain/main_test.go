package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// TestExplainGolden pins the fold against the output of the joins it
// replaced: testdata/multiproto.parent.json is what replexplain -json
// printed for testdata/multiproto.jsonl (BackEdge 2PC votes, an untagged
// abort, a relay hop, four protocols) before trace.Explain existed. The
// aborts and critical paths must be unchanged byte for byte, and every
// waterfall segment's count, mean and max (then whole microseconds, now
// nanoseconds) too; only waterfall percentiles moved, from log2 bucket
// bounds to exact nearest rank.
func TestExplainGolden(t *testing.T) {
	events, err := readEvents("testdata/multiproto.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report{Explanation: explain(events)}); err != nil {
		t.Fatal(err)
	}
	parentJSON, err := os.ReadFile("testdata/multiproto.parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, parent map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(parentJSON, &parent); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"aborts", "critical_paths"} {
		if !bytes.Equal(got[key], parent[key]) {
			t.Errorf("%s changed:\ngot  %s\nwant %s", key, got[key], parent[key])
		}
	}

	type parentWaterfall struct {
		Proto    uint8
		From, To int
		Count    uint64
		Segments []struct {
			Name string
			US   struct {
				Count uint64
				Mean  float64
				Max   uint64
			}
		}
	}
	var was []parentWaterfall
	if err := json.Unmarshal(parent["waterfalls"], &was); err != nil {
		t.Fatal(err)
	}
	now := explain(events).Waterfalls
	if len(now) != len(was) {
		t.Fatalf("%d waterfalls, parent had %d", len(now), len(was))
	}
	for i, w := range was {
		n := now[i]
		if n.Proto != w.Proto || int(n.From) != w.From || int(n.To) != w.To || n.Count != w.Count {
			t.Errorf("waterfall %d = %d s%d->s%d x%d, parent %d s%d->s%d x%d",
				i, n.Proto, n.From, n.To, n.Count, w.Proto, w.From, w.To, w.Count)
			continue
		}
		for j, s := range w.Segments {
			ns := n.Segments[j]
			if ns.Name != s.Name || ns.Count != s.US.Count ||
				ns.Mean != time.Duration(s.US.Mean*1000) || ns.Max != time.Duration(s.US.Max)*time.Microsecond {
				t.Errorf("s%d->s%d %s = count %d mean %v max %v, parent count %d mean %vµs max %dµs",
					w.From, w.To, s.Name, ns.Count, ns.Mean, ns.Max, s.US.Count, s.US.Mean, s.US.Max)
			}
		}
	}

	// A PSL reader that outlived its lease is a classified abort with a
	// row of its own.
	events = append(events, trace.Event{T: 9000, Kind: trace.TxnAbort, Site: 2, Peer: -1,
		TID: model.TxnID{Site: 2, Seq: 99}, Proto: uint8(core.PSL), Phase: contend.ReasonLeaseExpired.String()})

	var text bytes.Buffer
	r := report{Explanation: explain(events)}
	r.print(&text, len(events))
	for _, want := range []string{
		"(4 total, 1 unclassified)", "\nlease_expired  1\n", "== commit critical paths ==", "chain s0 -> s1 -> s2 x2",
		"== propagation waterfalls", "== propagation delay", "== phase latency ==",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, text.String())
		}
	}
}
