#!/usr/bin/env bash
# Multi-process explain smoke: two replnode processes, one site each,
# run BackEdge over real TCP and each writes its trace with -trace. Then
# `replexplain -json -verify node0.jsonl node1.jsonl` must explain the
# whole run from the two files: both sites, phase latencies and the
# protocol row present, span invariants holding across the process
# boundary, and no "unapplied" rows (both nodes drained, so every forward
# one node sent was applied by the other). Each node log must carry its
# heat table. Negative control: one node's file alone must report
# forwards into the other node as unapplied, so the check has teeth
# (docs/OBSERVABILITY.md, "Multi-process runs").
#
# Artifacts (traces, replexplain output, node logs) land in $SMOKE_DIR
# (default: a temp dir, removed on success and kept on failure; a given
# SMOKE_DIR is always kept, so CI can upload it).
set -u -o pipefail

own_dir= # set when this script made SMOKE_DIR, which it then removes on success
if [ -z "${SMOKE_DIR:-}" ]; then
  SMOKE_DIR=$(mktemp -d /tmp/explain-smoke.XXXXXX)
  own_dir=1
fi
mkdir -p "$SMOKE_DIR"

# Fixed uncommon ports so failures are reproducible; override if taken.
NODE0_PORT="${NODE0_PORT:-17791}"
NODE1_PORT="${NODE1_PORT:-17792}"
PEERS="0=127.0.0.1:${NODE0_PORT},1=127.0.0.1:${NODE1_PORT}"

echo "explain smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/replnode" ./cmd/replnode || exit 1
go build -o "$SMOKE_DIR/replexplain" ./cmd/replexplain || exit 1

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
  done
}
trap cleanup EXIT

fail() {
  echo "explain smoke FAILED: $1" >&2
  for f in node0.log node1.log explain.log; do
    if [ -s "$SMOKE_DIR/$f" ]; then
      echo "--- $f (tail) ---" >&2
      tail -20 "$SMOKE_DIR/$f" >&2
    fi
  done
  exit 1
}

common=(-peers "$PEERS" -protocol backedge -items 64 -seed 7 -threads 2 -txns 20
  -opcost 0 -drain 2s -watch)
for i in 0 1; do
  "$SMOKE_DIR/replnode" -site "$i" "${common[@]}" -trace "$SMOKE_DIR/node$i.jsonl" \
    >"$SMOKE_DIR/node$i.log" 2>&1 &
  pids+=("$!")
done
for i in 0 1; do
  wait "${pids[$i]}" || fail "replnode site $i exited nonzero"
done
pids=()

for i in 0 1; do
  grep -q '^item  *wait_total' "$SMOKE_DIR/node$i.log" \
    || fail "node$i.log has no heat table"
  [ -s "$SMOKE_DIR/node$i.jsonl" ] || fail "node $i wrote no trace"
done

# Both files together: the whole run, with nothing left in flight.
"$SMOKE_DIR/replexplain" -json -verify "$SMOKE_DIR/node0.jsonl" "$SMOKE_DIR/node1.jsonl" \
  >"$SMOKE_DIR/explain.json" 2>"$SMOKE_DIR/explain.log" \
  || fail "replexplain -verify on both traces exited nonzero"
grep -q 'span invariants hold' "$SMOKE_DIR/explain.log" \
  || fail "span invariants not confirmed"
for needle in '"site": 0,' '"site": 1,' '"phases"' '"protocols"' '"protocol": "BackEdge"'; do
  grep -q -- "$needle" "$SMOKE_DIR/explain.json" \
    || fail "explain.json missing $needle"
done
if grep -q '"unapplied"' "$SMOKE_DIR/explain.json"; then
  fail "forwards still unapplied after the drain: $(sed -n '/"unapplied"/,$p' "$SMOKE_DIR/explain.json" | tr -s ' \n' ' ')"
fi

# Negative control: node 0's file alone has its forwards to site 1 but
# not site 1's applies, so those forwards must read as unapplied.
"$SMOKE_DIR/replexplain" -json "$SMOKE_DIR/node0.jsonl" \
  >"$SMOKE_DIR/explain0.json" 2>>"$SMOKE_DIR/explain.log" \
  || fail "replexplain on node0.jsonl exited nonzero"
sed -n '/"unapplied"/,$p' "$SMOKE_DIR/explain0.json" >"$SMOKE_DIR/unapplied0.json"
grep -q '"to": 1,' "$SMOKE_DIR/unapplied0.json" && grep -qE '"count": [1-9]' "$SMOKE_DIR/unapplied0.json" \
  || fail "node0.jsonl alone reports no unapplied forward into site 1"

cleanup
trap - EXIT
n=$(awk '/"count":/ { gsub(/[^0-9]/, ""); s += $0 } END { print s + 0 }' "$SMOKE_DIR/unapplied0.json")
echo "explain smoke OK ($(cat "$SMOKE_DIR"/node*.jsonl | wc -l) events joined; $n forwards unapplied in node0.jsonl alone)"
[ -z "$own_dir" ] || rm -rf "$SMOKE_DIR"
