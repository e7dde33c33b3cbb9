#!/usr/bin/env bash
# Contention-observatory smoke: a seeded Zipfian hotspot run through
# `replbench -contend` must produce a non-empty per-item heat table, a
# fully classified abort breakdown (no `unknown` root cause), and a
# trace that `replexplain` turns into a critical-path profile whose
# segments cover the measured end-to-end commit latency within 5%
# (docs/OBSERVABILITY.md, "Contention observatory"). Each of two
# same-seed runs must take a non-empty wait-for snapshot while the
# hotspot's waits are live, which replexplain -waitfor parses back into
# edges with a waiter and its holders. Under real concurrency a live
# snapshot differs from run to run, so the two are checked for structure,
# not compared byte for byte.
#
# Artifacts (traces, wait-for dumps, reports, logs) land in $SMOKE_DIR
# (default: a temp dir, removed on success and kept on failure; a given
# SMOKE_DIR is always kept, so CI can upload it).
set -u -o pipefail

own_dir= # set when this script made SMOKE_DIR, which it then removes on success
if [ -z "${SMOKE_DIR:-}" ]; then
  SMOKE_DIR=$(mktemp -d /tmp/contention-smoke.XXXXXX)
  own_dir=1
fi
mkdir -p "$SMOKE_DIR"

# The hotspot: Zipf s=1.5 concentrates the Table 1 traffic on a hot
# set, so the 50ms deadlock timeout fires and the heat table has teeth.
SEED=11
SKEW=1.5
PROTO=backedge

echo "contention smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/replbench" ./cmd/replbench || exit 1
go build -o "$SMOKE_DIR/replexplain" ./cmd/replexplain || exit 1

fail() {
  echo "contention smoke FAILED: $1" >&2
  for log in run1.log run2.log; do
    if [ -s "$SMOKE_DIR/$log" ]; then
      echo "--- $log (tail) ---" >&2
      tail -20 "$SMOKE_DIR/$log" >&2
    fi
  done
  exit 1
}

run() { # run N -> run$N.jsonl, wf$N.jsonl, report$N.json
  "$SMOKE_DIR/replbench" -trace "$SMOKE_DIR/run$1.jsonl" -traceproto "$PROTO" \
    -contend -skew "$SKEW" -seed "$SEED" -waitfor "$SMOKE_DIR/wf$1.jsonl" -json \
    >"$SMOKE_DIR/report$1.json" 2>"$SMOKE_DIR/run$1.log" \
    || fail "replbench run $1 exited nonzero"
}
run 1
run 2

# Non-empty heat table: every heat entry carries an "acquired" count.
grep -q '"acquired"' "$SMOKE_DIR/report1.json" \
  || fail "heat table is empty (no \"acquired\" in report1.json)"

# Aborts happened (a Zipf-1.5 hotspot always trips the 50ms timeout)
# and every one of them classified: no `unknown` root cause anywhere.
grep -q '"aborts"' "$SMOKE_DIR/report1.json" \
  || fail "no abort breakdown in report1.json (hotspot produced zero aborts?)"
grep -q '"unknown"' "$SMOKE_DIR/report1.json" \
  && fail "unclassified aborts in report1.json"

# Each run's wait-for snapshot was taken while transactions waited: it is
# non-empty, and replexplain parses it back into at least one edge naming
# a waiter, its mode and the holders it waits behind.
for n in 1 2; do
  [ -s "$SMOKE_DIR/wf$n.jsonl" ] \
    || fail "run $n wrote an empty wait-for snapshot (taken when nothing waited?)"
  "$SMOKE_DIR/replexplain" -waitfor "$SMOKE_DIR/wf$n.jsonl" -json \
    "$SMOKE_DIR/run$n.jsonl" >"$SMOKE_DIR/explain$n.json" 2>>"$SMOKE_DIR/run$n.log" \
    || fail "replexplain -waitfor rejected run $n's snapshot"
  for key in '"wait_for"' '"waiter"' '"mode"' '"holders"'; do
    grep -q "$key" "$SMOKE_DIR/explain$n.json" \
      || fail "run $n's parsed wait-for snapshot has no $key"
  done
done

# replexplain must parse the trace + snapshot into a profile...
grep -q '"critical_paths"' "$SMOKE_DIR/explain1.json" \
  || fail "no critical_paths in explain1.json"

# ...whose span tree is well-formed...
"$SMOKE_DIR/replexplain" -verify "$SMOKE_DIR/run1.jsonl" \
  >>"$SMOKE_DIR/run1.log" 2>&1 \
  || fail "replexplain -verify found span invariant violations"

# ...and whose segments cover end-to-end commit latency within 5%.
coverage=$(awk '
  match($0, /"end_to_end_ns": [0-9]+/)  { e2e  = substr($0, RSTART+17, RLENGTH-17) }
  match($0, /"attributed_ns": [0-9]+/)  { attr = substr($0, RSTART+17, RLENGTH-17) }
  END {
    if (e2e+0 == 0) { print "no-e2e"; exit }
    printf "%.2f", 100*attr/e2e
  }' "$SMOKE_DIR/explain1.json")
case "$coverage" in
  no-e2e|"") fail "explain1.json has no end-to-end latency" ;;
esac
awk -v c="$coverage" 'BEGIN { exit !(c >= 95 && c <= 105) }' \
  || fail "critical-path coverage $coverage% outside [95%,105%]"

echo "contention smoke OK (coverage ${coverage}%, $(wc -c <"$SMOKE_DIR/wf1.jsonl") bytes of wait-for snapshot)"
[ -z "$own_dir" ] || rm -rf "$SMOKE_DIR"
