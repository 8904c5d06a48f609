#!/usr/bin/env bash
# Kill-and-resume smoke test: SIGKILL an `orp solve` mid-run, resume it
# from the checkpoint, and assert the final result is bit-identical to
# an uninterrupted run — the crash-safety invariant, end to end through
# the real binary and a real kill.
#
# The comparison key is the machine-readable `solve-state:` line the
# CLI prints (h-ASPL as raw f64 bits + move counters).
set -euo pipefail

ORP="${ORP_BIN:-target/release/orp}"
N="${ORP_SMOKE_N:-64}"
R="${ORP_SMOKE_R:-8}"
ITERS="${ORP_SMOKE_ITERS:-60000}"
EVERY="${ORP_SMOKE_EVERY:-500}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

if [ ! -x "$ORP" ]; then
    echo "orp binary not found at $ORP (build with: cargo build --release)" >&2
    exit 1
fi

# kill_and_resume <label> [extra solve flags...]
kill_and_resume() {
    local label="$1"
    shift
    local d="$DIR/$label"
    mkdir -p "$d"

    echo "== [$label] uninterrupted reference run"
    "$ORP" solve "$N" "$R" "$ITERS" "$d/ref.hsg" "$@" | tee "$d/ref.out"
    local ref_state
    ref_state=$(grep '^solve-state:' "$d/ref.out")

    echo "== [$label] interrupted run: SIGKILL mid-anneal"
    "$ORP" solve "$N" "$R" "$ITERS" "$d/cut.hsg" "$@" \
        --checkpoint "$d/ck.orp" --every "$EVERY" >"$d/cut.out" 2>&1 &
    local pid=$!
    # wait for the first periodic checkpoint to exist, then kill hard
    for _ in $(seq 1 200); do
        [ -s "$d/ck.orp" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    if kill -9 "$pid" 2>/dev/null; then
        wait "$pid" 2>/dev/null || true
        echo "killed solve (pid $pid) mid-run"
    else
        # the run beat us to completion — the resume below still must be
        # a bit-identical no-op, so the assertion stays meaningful
        wait "$pid" 2>/dev/null || true
        echo "run finished before the kill landed; resuming from the completion snapshot"
    fi
    [ -s "$d/ck.orp" ] || { echo "[$label] no checkpoint was written" >&2; exit 1; }

    echo "== [$label] resumed run"
    "$ORP" solve "$N" "$R" "$ITERS" "$d/res.hsg" "$@" \
        --checkpoint "$d/ck.orp" --resume | tee "$d/res.out"
    local res_state
    res_state=$(grep '^solve-state:' "$d/res.out")

    echo "== [$label] compare"
    echo "reference: $ref_state"
    echo "resumed:   $res_state"
    if [ "$ref_state" != "$res_state" ]; then
        echo "FAIL [$label]: resumed run diverged from the uninterrupted run" >&2
        exit 1
    fi
    if ! cmp -s "$d/ref.hsg" "$d/res.hsg"; then
        echo "FAIL [$label]: exported graphs differ byte-for-byte" >&2
        exit 1
    fi
    echo "PASS [$label]: kill + resume reproduced the uninterrupted result bit-identically"
}

kill_and_resume anneal
