#!/usr/bin/env bash
# The repo's verification gate: tests, serve smoke, perf regression.
#
# Run from the repository root:
#
#   scripts/verify.sh
#
# Three stages, in order of increasing cost; the script stops at the
# first failure:
#
#   1. tier-1 pytest  — the full default suite (correctness; the
#      native-marked tests skip themselves when no C compiler exists).
#   2. serve self-test — a live ephemeral server, one pass over the
#      reply contract (7 checks); repeated with --backend native when
#      a C compiler is available, and with --backend auto.  Four
#      `plr run` solves check Phase 1 end to end against the serial
#      reference (exit 1 on a mismatch): two integer running sums
#      (stride 3, which does not divide the chunk size, and three sums
#      in a row) and two float filters, whose segment products and
#      carry scan run at m = 2048 and at m = 9216 (144 segments per
#      chunk).  With a compiler, two more check the native dispatch the
#      same way.
#   3. bench gate      — re-runs the committed BENCH_parallel.json
#      benchmark and fails on a >25% per-row slowdown.
#
# After the last stage it prints the net line count of the Python
# sources under src/, the size figure each change reports; it gates
# nothing.
#
# If stage 3 fails because of an *intentional* performance change,
# refresh the baseline and commit it:
#
#   PYTHONPATH=src python -m repro.cli bench \
#       --compare BENCH_parallel.json --tolerance 25 --update-baseline
#
# Set PLR_SKIP_BENCH_GATE=1 to skip stage 3 (e.g. on shared hardware
# too noisy for wall-clock comparisons; the speedup metric tolerates
# uniform slowness but not contention that hits one backend only).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "== stage 1/3: tier-1 test suite =="
python -m pytest -x -q

echo "== stage 2/3: serve self-test =="
python -m repro.cli serve --self-test
echo "== stage 2/3: single-backend Phase 1 solves against the serial reference =="
python -m repro.cli run "(1: 0, 0, 1)" -n 70001
python -m repro.cli run "(1: 3, -3, 1)" -n 70001
python -m repro.cli run "(0.04: 1.6, -0.64)" -n 70001
python -m repro.cli run "(0.81, -1.62, 0.81: 1.6, -0.64)" -n 500000
if command -v cc >/dev/null 2>&1 || command -v gcc >/dev/null 2>&1; then
    echo "== stage 2/3: serve self-test (native backend) =="
    python -m repro.cli serve --self-test --backend native
    echo "== stage 2/3: native and auto solves against the serial reference =="
    python -m repro.cli run "(0.2: 0.8)" -n 70001 --backend native
    python -m repro.cli run "(1: 2, -1)" -n 40000 --backend auto
else
    echo "== stage 2/3: native serve self-test SKIPPED (no C compiler) =="
fi
echo "== stage 2/3: serve self-test (auto backend) =="
python -m repro.cli serve --self-test --backend auto

if [ "${PLR_SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "== stage 3/3: bench gate SKIPPED (PLR_SKIP_BENCH_GATE=1) =="
else
    echo "== stage 3/3: perf-regression gate =="
    python -m repro.cli bench --compare BENCH_parallel.json --tolerance 25
fi

echo "src/ lines: $(find src -name '*.py' -exec cat {} + | wc -l)"
echo "verify: all stages passed"
