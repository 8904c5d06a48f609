#!/usr/bin/env bash
# Figure smoke: runs the Fig. 5, 6 and 8 bins at 200 annealing proposals
# twice, each time in a fresh temporary directory (the bins write
# `results/` under the working directory), and asserts the two runs
# wrote byte-identical artifacts. Build the bins first:
#
#   cargo build --release -p orp-bench --bin fig5_aspl_vs_m \
#       --bin fig6_host_distribution --bin fig8_unused_switches
set -euo pipefail

BIN="$(cd "$(dirname "$0")/.." && pwd)/target/release"
BINS="fig5_aspl_vs_m fig6_host_distribution fig8_unused_switches"
A="$(mktemp -d)"
B="$(mktemp -d)"
trap 'rm -rf "$A" "$B"' EXIT

for dir in "$A" "$B"; do
    for b in $BINS; do
        [ -x "$BIN/$b" ] || { echo "$BIN/$b not built" >&2; exit 1; }
        echo "== $b in $dir"
        (cd "$dir" && ORP_SA_ITERS=200 "$BIN/$b" >/dev/null)
    done
done
for b in $BINS; do
    cmp "$A/results/$b.json" "$B/results/$b.json" ||
        { echo "FAIL: $b wrote different artifacts in two runs" >&2; exit 1; }
done
echo "PASS: $BINS wrote byte-identical artifacts twice"
