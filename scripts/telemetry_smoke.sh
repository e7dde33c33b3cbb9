#!/usr/bin/env bash
# Telemetry-plane smoke: two replnode processes stream telemetry to one
# repltop aggregator; repltop -once -json must converge to a snapshot
# that names both processes and their sites, carries the construction-
# time sources (phases, hot items), lost no frame, and — after the drain
# — shows no replica behind: every forward one node sent was applied by
# the other, so cross-process staleness must read zero
# (docs/OBSERVABILITY.md, "Cluster telemetry plane"). Exercises the real
# wire path — TCP comm framing, delta frames, cross-process federation.
#
# Artifacts (repltop.json, node logs) land in $SMOKE_DIR (default: a
# temp dir, kept on failure so CI can upload it).
set -u -o pipefail

SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d /tmp/telemetry-smoke.XXXXXX)}"
mkdir -p "$SMOKE_DIR"

# Fixed uncommon ports so failures are reproducible; override if taken.
TOP_PORT="${TOP_PORT:-17790}"
NODE0_PORT="${NODE0_PORT:-17791}"
NODE1_PORT="${NODE1_PORT:-17792}"
PEERS="0=127.0.0.1:${NODE0_PORT},1=127.0.0.1:${NODE1_PORT}"

echo "telemetry smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/replnode" ./cmd/replnode || exit 1
go build -o "$SMOKE_DIR/repltop" ./cmd/repltop || exit 1

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
  done
}
trap cleanup EXIT

# Aggregator first: -once exits after every publisher has connected,
# streamed, and disconnected (or after -wait).
"$SMOKE_DIR/repltop" -listen "127.0.0.1:${TOP_PORT}" -once -wait 30s -json \
  >"$SMOKE_DIR/repltop.json" 2>"$SMOKE_DIR/repltop.log" &
top_pid=$!
pids+=("$top_pid")

common=(-peers "$PEERS" -protocol backedge -items 64 -seed 7 -threads 2 -txns 20
  -opcost 0 -drain 2s -watch -telemetry "127.0.0.1:${TOP_PORT}")
"$SMOKE_DIR/replnode" -site 0 "${common[@]}" >"$SMOKE_DIR/node0.log" 2>&1 &
pids+=("$!")
"$SMOKE_DIR/replnode" -site 1 "${common[@]}" >"$SMOKE_DIR/node1.log" 2>&1 &
pids+=("$!")

fail() {
  echo "telemetry smoke FAILED: $1" >&2
  echo "--- repltop.log ---" >&2
  cat "$SMOKE_DIR/repltop.log" >&2
  echo "--- node0.log (tail) ---" >&2
  tail -20 "$SMOKE_DIR/node0.log" >&2
  echo "--- node1.log (tail) ---" >&2
  tail -20 "$SMOKE_DIR/node1.log" >&2
  exit 1
}

wait "$top_pid"
top_status=$?
pids=("${pids[@]:1}")
[ "$top_status" -eq 0 ] || fail "repltop exited with status $top_status"

# The snapshot must be JSON that names both publishers and both sites,
# and carries the phase and heat sources each publisher was built with.
for needle in '"site0"' '"site1"' '"sites"' '"protocols"' '"phases"' '"hot_items"'; do
  grep -q -- "$needle" "$SMOKE_DIR/repltop.json" \
    || fail "repltop.json missing $needle"
done
# One frame per cycle, numbered per cycle: any gap is a lost frame.
if grep -q -- '"gaps"' "$SMOKE_DIR/repltop.json"; then
  fail "repltop.json reports frame gaps"
fi
# Both nodes drained before exiting, so the federated in-flight fold
# must hold nothing: no site behind, no unapplied age.
if grep -qE -- '"(version_lag|oldest_unapplied_ms)": [1-9]' "$SMOKE_DIR/repltop.json"; then
  fail "a replica still reads as behind after the drain: $(grep -E '"(version_lag|oldest_unapplied_ms)": [1-9]' "$SMOKE_DIR/repltop.json" | tr -s ' ' | tr '\n' ' ')"
fi

cleanup
trap - EXIT
echo "telemetry smoke OK ($(wc -c <"$SMOKE_DIR/repltop.json") bytes of snapshot)"
