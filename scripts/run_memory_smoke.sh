#!/usr/bin/env bash
# run_memory_smoke.sh — CI smoke for the memory-audit invariants, as run by
# the CI generic leg:
#
#   1. runs build/diag_memory --json (small sizes — this is a correctness
#      smoke, not a measurement run; diag_memory itself already exits
#      non-zero on a violated invariant);
#   2. re-asserts the portable invariants from the emitted JSON, so a
#      future edit that weakens diag_memory's own gating still fails here:
#        - steady-state scratch: warm serial TopKBatch calls create zero
#          arenas, and the pooled loop stays within the peak-lease bound;
#        - churn fix: the arena arm of the A/B does zero allocations/iter.
#
# Host-dependent numbers (alignment timings, hardware counters, fault
# deltas) are printed but never gated — single-core or PMU-less runners
# must pass. Usage: ./scripts/run_memory_smoke.sh  (env: BUILD_DIR)
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
DIAG="$BUILD_DIR/diag_memory"

if [[ ! -x "$DIAG" ]]; then
    echo "building diag_memory ..." >&2
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null
    cmake --build "$BUILD_DIR" --target diag_memory -j > /dev/null
fi

REPORT="$(mktemp /tmp/diag_memory.XXXXXX.json)"
trap 'rm -f "$REPORT"' EXIT

if ! OUT="$("$DIAG" --json --spins=500000 --churn-iters=50 --rows=6000)"; then
    printf '%s\n' "$OUT"
    echo "memory smoke: diag_memory failed its own invariants" >&2
    exit 1
fi
printf '%s\n' "$OUT"
printf '%s\n' "$OUT" | grep '^JSON' | sed 's/^JSON//' > "$REPORT"

python3 - "$REPORT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
churn = report["churn"]

failures = []
if not churn["scan_serial_flat"]:
    failures.append("warm serial TopKBatch calls still create arenas")
if churn["scan_arenas_created"] > churn["scan_arena_bound"]:
    failures.append(
        "pooled TopKBatch arenas %d exceed bound %d"
        % (churn["scan_arenas_created"], churn["scan_arena_bound"]))
if churn["arena_allocs_per_iter"] != 0:
    failures.append(
        "arena arm allocates %d/iter (want 0)" % churn["arena_allocs_per_iter"])

for failure in failures:
    print("memory smoke FAIL:", failure, file=sys.stderr)
if failures:
    sys.exit(1)
print("memory smoke: all invariants hold (hardware_counters=%s)"
      % report["hardware_counters"])
EOF
