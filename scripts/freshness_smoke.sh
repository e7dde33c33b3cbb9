#!/usr/bin/env bash
# Freshness-observatory smoke: one seeded lazy run through
# `replbench -fresh` must report a freshness block with some stale
# certificates (a lazy engine under propagation latency always has
# readers behind the primary), and replexplain must reconstruct the
# waterfalls from the trace alone and print its waterfall, certificate
# and delay tables (docs/OBSERVABILITY.md, "Freshness observatory").
# That every read carries a certificate is checked by the Go test
# TestEveryReadIsCertified (internal/cluster).
#
# Artifacts (trace, report, replexplain output, log) land in
# $SMOKE_DIR (default: a temp dir, kept on failure so CI can upload it).
set -u -o pipefail

SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d /tmp/freshness-smoke.XXXXXX)}"
mkdir -p "$SMOKE_DIR"

# A lazy engine: DAG(WT) propagates down the tree FIFO, so reads at deep
# replicas trail the primary and the certificates have teeth.
SEED=7
PROTO=dagwt

echo "freshness smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/replbench" ./cmd/replbench || exit 1
go build -o "$SMOKE_DIR/replexplain" ./cmd/replexplain || exit 1

fail() {
  echo "freshness smoke FAILED: $1" >&2
  if [ -s "$SMOKE_DIR/run1.log" ]; then
    echo "--- run1.log (tail) ---" >&2
    tail -20 "$SMOKE_DIR/run1.log" >&2
  fi
  exit 1
}

"$SMOKE_DIR/replbench" -trace "$SMOKE_DIR/run1.jsonl" -traceproto "$PROTO" \
  -seed "$SEED" -fresh -json \
  >"$SMOKE_DIR/report1.json" 2>"$SMOKE_DIR/run1.log" \
  || fail "replbench exited nonzero"

# The freshness block exists and certified stale reads: a lazy engine
# under 150µs propagation latency always catches readers behind.
grep -q '"freshness"' "$SMOKE_DIR/report1.json" \
  || fail "no freshness block in report1.json"
grep -q '"reads_stale": 0,' "$SMOKE_DIR/report1.json" \
  && fail "lazy run certified zero stale reads (certificates not wired?)"

# Non-empty waterfalls, twice over: the trace fold must reconstruct
# them from the trace alone (replexplain -json), and replexplain's text
# report must render the waterfall, certificate and delay tables.
"$SMOKE_DIR/replexplain" -json "$SMOKE_DIR/run1.jsonl" \
  >"$SMOKE_DIR/explain1.json" 2>>"$SMOKE_DIR/run1.log" \
  || fail "replexplain exited nonzero"
grep -q '"waterfalls"' "$SMOKE_DIR/explain1.json" \
  || fail "no waterfalls in explain1.json"
grep -q '"queue_wait"' "$SMOKE_DIR/explain1.json" \
  || fail "waterfall segments missing queue_wait"
"$SMOKE_DIR/replexplain" "$SMOKE_DIR/run1.jsonl" \
  >"$SMOKE_DIR/explain1.txt" 2>>"$SMOKE_DIR/run1.log" \
  || fail "replexplain (text) exited nonzero"
grep -q '== propagation waterfalls' "$SMOKE_DIR/explain1.txt" \
  || fail "no waterfall table in replexplain output"
grep -q '== read-freshness certificates ==' "$SMOKE_DIR/explain1.txt" \
  || fail "no certificate table in replexplain output"
grep -q '== propagation delay' "$SMOKE_DIR/explain1.txt" \
  || fail "no propagation-delay table in replexplain output"

stale=$(awk '
  match($0, /"reads_stale": [0-9]+/) { print substr($0, RSTART+15, RLENGTH-15); exit }
  ' "$SMOKE_DIR/report1.json")
echo "freshness smoke OK ($stale stale certificates)"
