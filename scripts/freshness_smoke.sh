#!/usr/bin/env bash
# Freshness-observatory smoke: a seeded lazy run through
# `replbench -fresh` must produce non-empty propagation waterfalls, a
# freshness block certifying at least 95% of reads, and some stale
# certificates (a lazy engine under propagation latency always has
# readers behind the primary); a second run with the same seed must emit
# a byte-identical canonical freshness summary, and replexplain must
# reconstruct the waterfalls from the trace alone
# (docs/OBSERVABILITY.md, "Freshness observatory").
#
# Artifacts (traces, reports, canonical summaries, logs) land in
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
  for log in run1.log run2.log; do
    if [ -s "$SMOKE_DIR/$log" ]; then
      echo "--- $log (tail) ---" >&2
      tail -20 "$SMOKE_DIR/$log" >&2
    fi
  done
  exit 1
}

run() { # run N -> run$N.jsonl, canon$N.json, report$N.json
  "$SMOKE_DIR/replbench" -trace "$SMOKE_DIR/run$1.jsonl" -traceproto "$PROTO" \
    -seed "$SEED" -fresh -freshsummary "$SMOKE_DIR/canon$1.json" -json \
    >"$SMOKE_DIR/report$1.json" 2>"$SMOKE_DIR/run$1.log" \
    || fail "replbench run $1 exited nonzero"
}
run 1
run 2

# The freshness block exists and certified stale reads: a lazy engine
# under 150µs propagation latency always catches readers behind.
grep -q '"freshness"' "$SMOKE_DIR/report1.json" \
  || fail "no freshness block in report1.json"
grep -q '"reads_stale": 0,' "$SMOKE_DIR/report1.json" \
  && fail "lazy run certified zero stale reads (certificates not wired?)"

# Certificate coverage: >=95% of reads carry a certificate.
coverage=$(awk '
  match($0, /"coverage_pct": [0-9.]+/) { print substr($0, RSTART+16, RLENGTH-16); exit }
  ' "$SMOKE_DIR/canon1.json")
[ -n "$coverage" ] || fail "no coverage_pct in canon1.json"
awk -v c="$coverage" 'BEGIN { exit !(c >= 95) }' \
  || fail "certificate coverage ${coverage}% below 95%"

# Byte-identical canonical freshness summaries across same-seed runs.
cmp -s "$SMOKE_DIR/canon1.json" "$SMOKE_DIR/canon2.json" \
  || fail "canonical freshness summaries differ between same-seed runs"

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

edges=$(grep -c -- '->' "$SMOKE_DIR/canon1.json")
echo "freshness smoke OK (coverage ${coverage}%, $edges propagation edges)"
