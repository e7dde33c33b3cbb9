#!/usr/bin/env bash
# Crash-recovery smoke: one traced replbench cluster per protocol runs
# over per-site write-ahead redo logs while a seeded fault schedule cuts
# a partition and crashes a site (docs/DURABILITY.md, docs/FAULTS.md).
# The crash is honest — the site's heap dies and the restart rebuilds the
# engine from its log — so the run must show, in the -json counters:
# redo records appended AND fsynced, exactly one crash and one restart,
# and a nonzero number of records replayed by recovery.
#
# Artifacts (per-protocol JSON reports, traces, the redo logs themselves)
# land in $SMOKE_DIR (default: a temp dir, removed on success and kept
# on failure; a given SMOKE_DIR is always kept, so CI can upload it).
set -u -o pipefail

own_dir= # set when this script made SMOKE_DIR, which it then removes on success
if [ -z "${SMOKE_DIR:-}" ]; then
  SMOKE_DIR=$(mktemp -d /tmp/recovery-smoke.XXXXXX)
  own_dir=1
fi
mkdir -p "$SMOKE_DIR"
PROTOS="${PROTOS:-dagt backedge psl}"

echo "recovery smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/replbench" ./cmd/replbench || exit 1

fail() {
  echo "recovery smoke FAILED ($1): $2" >&2
  echo "--- $1.err (tail) ---" >&2
  tail -20 "$SMOKE_DIR/$1.err" >&2
  exit 1
}

# Sums every labeled counter matching the given name in a -json report
# (keys look like "repl_wal_appends_total{site=\"4\"}": 866).
sum_counter() {
  grep -o "\"$2[^:]*: [0-9]*" "$SMOKE_DIR/$1.json" \
    | awk -F': ' '{s+=$2} END {print s+0}'
}

for proto in $PROTOS; do
  "$SMOKE_DIR/replbench" \
    -trace "$SMOKE_DIR/$proto.jsonl" -traceproto "$proto" -json \
    -waldir "$SMOKE_DIR/wal-$proto" \
    -faultdrop 0.05 -faultdup 0.02 -faultdelay 0.05 -reliable -chaossched \
    >"$SMOKE_DIR/$proto.json" 2>"$SMOKE_DIR/$proto.err" \
    || fail "$proto" "replbench exited with status $?"

  appends=$(sum_counter "$proto" repl_wal_appends_total)
  fsyncs=$(sum_counter "$proto" repl_wal_fsyncs_total)
  crashes=$(sum_counter "$proto" repl_fault_crashes_total)
  restarts=$(sum_counter "$proto" repl_fault_restarts_total)
  replayed=$(sum_counter "$proto" repl_wal_replayed_total)

  [ "$appends" -gt 0 ] || fail "$proto" "no WAL appends — redo logging inert?"
  [ "$fsyncs" -gt 0 ] || fail "$proto" "no WAL fsyncs — group commit inert?"
  [ "$crashes" -ge 1 ] || fail "$proto" "schedule crashed no site"
  [ "$restarts" -ge 1 ] || fail "$proto" "crashed site never restarted"
  [ "$replayed" -gt 0 ] || fail "$proto" "restart replayed no redo records — recovery inert?"

  echo "recovery smoke [$proto] OK: appends=$appends fsyncs=$fsyncs crashes=$crashes restarts=$restarts replayed=$replayed"
done

echo "recovery smoke OK"
[ -z "$own_dir" ] || rm -rf "$SMOKE_DIR"
