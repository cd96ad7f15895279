#!/usr/bin/env bash
# Full local/CI check: repo invariant linter, docs consistency, the
# benchmark harness's unit tests, configure, build, test, smoke-run the
# quickstart, the serving + query + streaming demos, and the
# append/serving/cache/query/stream/table7 benches (emitting
# BENCH_*.json for trend tooling; the table7 smoke includes the EM-kernel
# parity hard gate). Extra configure arguments (e.g. -DKBT_WERROR=ON in CI)
# come in through KBT_CONFIGURE_ARGS.
#
# This covers the GCC leg of the correctness tooling; the clang legs
# (thread-safety proof, clang-tidy) and the sanitizer matrix run as their
# own CI jobs — see docs/STATIC_ANALYSIS.md for running those locally.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 scripts/lint_invariants.py
./scripts/check_docs.sh
# The repo benchmark's own logic tests (statistics, comparison, parsing);
# -B keeps them from writing bytecode into perfbench/.
python3 -B -m unittest discover -s perfbench/tests

# Non-blocking format drift report (see .clang-format): tool-optional so
# the check runs the same everywhere, advisory so whitespace never gates a
# functional change.
if command -v clang-format >/dev/null 2>&1; then
  if ! clang-format --dry-run -Werror \
      src/**/*.h src/**/*.cpp include/kbt/*.h tests/**/*.cpp \
      bench/*.cpp examples/*.cpp 2>/dev/null; then
    echo "NOTE: clang-format reports drift (non-blocking; run" \
         "clang-format -i on the files you touched)."
  fi
else
  echo "NOTE: clang-format not installed; skipping format drift report."
fi

cmake -B build -S . ${KBT_CONFIGURE_ARGS:-}
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
./build/examples/quickstart
./build/examples/trust_service
./build/examples/query_trust
./build/examples/stream_trust
./build/bench/bench_append_throughput --smoke
./build/bench/bench_service_throughput --smoke
./build/bench/bench_cache_warmstart --smoke
./build/bench/bench_query_throughput --smoke
./build/bench/bench_shard_scaling --smoke
./build/bench/bench_stream_ingest --smoke
./build/bench/bench_table7_efficiency --smoke
# Latency-under-load soak: mixed query/append/run/tick driver with hard
# gates on per-class liveness and disabled-path macro overhead.
./build/bench/bench_soak --smoke
