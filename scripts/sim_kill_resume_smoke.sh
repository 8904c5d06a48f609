#!/usr/bin/env bash
# Kill-and-resume smoke test for the simulator: SIGKILL an `orp simulate`
# of IS at 1,024 ranks once its first periodic checkpoint exists (the
# 500,000-event save, mid-all-to-all with messages delivered but not yet
# received), resume it from that file, and assert the result is
# bit-identical to an uninterrupted run.
#
# The comparison key is the machine-readable `sim-state:` line the CLI
# prints (makespan and byte total as raw f64 bits, plus the flow count).
set -euo pipefail

ORP="${ORP_BIN:-target/release/orp}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

if [ ! -x "$ORP" ]; then
    echo "orp binary not found at $ORP (build with: cargo build --release)" >&2
    exit 1
fi

echo "== 1,024-host graph"
"$ORP" solve 1024 15 100 "$DIR/g.hsg" | grep '^solve-state:'

echo "== uninterrupted reference run"
"$ORP" simulate "$DIR/g.hsg" IS 1 | tee "$DIR/ref.out"
REF_STATE=$(grep '^sim-state:' "$DIR/ref.out")

echo "== interrupted run: SIGKILL after the first periodic save"
"$ORP" simulate "$DIR/g.hsg" IS 1 --checkpoint "$DIR/ck.orp" >"$DIR/cut.out" 2>&1 &
PID=$!
# saves are atomic renames: once the file exists it is complete
for _ in $(seq 1 1200); do
    [ -s "$DIR/ck.orp" ] && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.02
done
if kill -9 "$PID" 2>/dev/null; then
    wait "$PID" 2>/dev/null || true
    echo "killed simulate (pid $PID) mid-run; checkpoint is $(wc -c <"$DIR/ck.orp") bytes"
else
    wait "$PID" 2>/dev/null || true
    echo "run finished before the kill landed; resuming from the completion snapshot"
fi
[ -s "$DIR/ck.orp" ] || { echo "no checkpoint was written" >&2; exit 1; }

echo "== resumed run"
"$ORP" simulate "$DIR/g.hsg" IS 1 --checkpoint "$DIR/ck.orp" --resume | tee "$DIR/res.out"
RES_STATE=$(grep '^sim-state:' "$DIR/res.out")

echo "== compare"
echo "reference: $REF_STATE"
echo "resumed:   $RES_STATE"
if [ "$REF_STATE" != "$RES_STATE" ]; then
    echo "FAIL: resumed simulation diverged from the uninterrupted run" >&2
    exit 1
fi
echo "PASS: kill + resume reproduced the uninterrupted simulation bit-identically"
