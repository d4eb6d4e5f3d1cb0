#!/usr/bin/env bash
# Full verification sweep: the tier-1 build+test pass, the baseline gate,
# the benchmark self-test, then the same suite plus a short differential fuzz
# soak under ASan+UBSan (DIFANE_SANITIZE=ON), plus a TSan pass
# (DIFANE_SANITIZE=thread) over the unit label. A scenario runs on one
# thread; the unit label holds the test that starts threads of its own
# (TrafficGen.ConcurrentConstructionsMatchSerial, which races the traffic
# generator's process-wide cache of post-pool engine states the way
# bench::run_cells does), so race coverage stays part of tier-1 hygiene.
#
# The chaos, migration and data-plane property suites end each case with
# the exact installed-state verifier (Scenario::verify_installed: the plan
# checked once, then every edge switch's redirects and cache entries, with
# no sampling), so a black hole, dangling redirect or wrong action left
# after quiescence fails them even when it covers a single header. Beside
# their sweeps they run named regression cases (DataPlaneRegression.*,
# ChaosRegression.*, MigrationRegression.*: one property body at a seed a
# long soak once failed on) and, in the migration suite, deterministic
# MigrationChaos.* cases that pin each end-of-move fix with fault-plan
# crashes; the sanitized stage's property and chaos labels cover them too.
# A longer soak of the chaos suites (more DIFANE_PROPTEST_CASES, other
# DIFANE_PROPTEST_SEED values) still fails on one known defect, a late
# cover-set shadow to a failed authority (ROADMAP's next correctness item).
#
# The baseline gate runs bench_all --quick and compares every deterministic
# metric with the committed bench/BASELINE.json exactly (bench_compare with
# no --wall-threshold: host timings are reported, not gated), so a change
# that moves a simulated outcome fails here, not only under --perf.
#
# The benchmark self-test (python3 perfbench/selftest.py) builds src/ in
# perfbench's own CMake tree against the public API and makes a reduced pass
# over every BENCHMARK.json workload, plus the corrupted-counter check. No
# tier-1 target builds perfbench, so without this stage a src/ change could
# break the benchmark while every ctest passes.
#
#   tools/check.sh [--quick-bench] [--perf] [--threads] [--scale] [FUZZ_SECONDS]
#
# FUZZ_SECONDS (default 30) bounds the sanitized fuzz_difane run. All build
# trees are kept (build/, build-san/, build-tsan/) so incremental re-runs
# are cheap.
#
# --quick-bench additionally runs the whole bench pipeline in --quick mode
# (bench_all over E1-E12/A1-A3), verifies every report merged into the
# trajectory file, and re-runs it to confirm the deterministic metrics
# reproduce byte-for-byte (bench_compare at threshold 0).
#
# --threads runs the bench pipeline in --quick mode at --threads 1 and at
# the host's hardware concurrency, then asserts with bench_compare that
# every deterministic (non-wall) metric is identical — the thread-count
# invariance contract for cell-parallel benches (bench::run_cells): each
# thread runs whole scenarios, one event engine each.
#
# --scale runs the E11 scale-out stress tier in --quick mode twice and
# asserts with bench_compare that its deterministic metrics (rule counts,
# peak concurrency, delivery counters) reproduce byte-for-byte; wall and RSS
# metrics are host measurements and exempt. The full-size tier (10M rules /
# 1M concurrent flows, minutes + ~10 GiB) is run manually:
#   ./build/bench/bench_e11_scale --json BENCH_E11.json
#
# --perf additionally gates wall metrics against the committed perf baseline
# (bench/BASELINE.json): one quick bench_all run at --jobs 1, then
# bench_compare with deterministic metrics exact and wall metrics allowed
# PERF_WALL_THRESHOLD percent of drift (default 50 — generous because
# baselines travel across hosts; tighten on a pinned CI machine). A counter
# that moved or a wall metric past the threshold fails the script. After an
# intentional perf or semantics change, regenerate the baseline from a clean
# tree with
#   ./build/tools/bench_all --quick --jobs 1 --out bench/BASELINE.json
# and commit it together with the change that moved the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

quick_bench=0
perf=0
threads_gate=0
scale_gate=0
fuzz_seconds=30
for arg in "$@"; do
  case "$arg" in
    --quick-bench) quick_bench=1 ;;
    --perf) perf=1 ;;
    --threads) threads_gate=1 ;;
    --scale) scale_gate=1 ;;
    *) fuzz_seconds="$arg" ;;
  esac
done
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: normal build + ctest =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== baseline: bench_all --quick vs bench/BASELINE.json, deterministic keys =="
./build/tools/bench_all --quick --jobs "$jobs" \
  --dir build/bench-baseline-reports --out build/BENCH_trajectory_baseline.json
./build/tools/bench_compare bench/BASELINE.json build/BENCH_trajectory_baseline.json

# The chaos suite (fault injection + reliable channels + verifier gate, plus
# the live-migration make-before-break properties) runs as part of the full
# ctest pass above; run it again by label so a chaos regression is called out
# by name. A failure prints a replay seed — rerun that one case with
# DIFANE_PROPTEST_REPLAY=0x<seed> ./build/tests/test_prop_faults (or
# .../test_prop_migration)
echo "== chaos: ctest -L chaos =="
ctest --test-dir build --output-on-failure -L chaos -j "$jobs"

# Same treatment for the property suites (flow-table/cache differentials,
# the heavy-hitter sketch bounds, and the telemetry error-bound/conservation/
# replay suite): they run in the full pass above, but a labeled re-run names
# the regression. Failures print a replay seed usable as
# DIFANE_PROPTEST_REPLAY=0x<seed> ./build/tests/test_prop_<suite>
echo "== property: ctest -L property =="
ctest --test-dir build --output-on-failure -L property -j "$jobs"

echo "== perfbench: benchmark self-test =="
python3 perfbench/selftest.py

if [[ "$quick_bench" == 1 ]]; then
  echo "== quick-bench: bench_all --quick + determinism gate =="
  ./build/tools/bench_all --quick --jobs "$jobs" \
    --dir build/bench-reports --out build/BENCH_trajectory.json
  ./build/tools/bench_all --quick --jobs "$jobs" \
    --dir build/bench-reports-2 --out build/BENCH_trajectory_2.json
  ./build/tools/bench_compare build/BENCH_trajectory.json \
    build/BENCH_trajectory_2.json
fi

if [[ "$threads_gate" == 1 ]]; then
  max_threads="$(nproc 2>/dev/null || echo 4)"
  [[ "$max_threads" -lt 2 ]] && max_threads=2
  echo "== threads: bench_all --quick at --threads 1 vs --threads $max_threads =="
  ./build/tools/bench_all --quick --jobs "$jobs" --threads 1 \
    --dir build/bench-reports-t1 --out build/BENCH_trajectory_t1.json
  ./build/tools/bench_all --quick --jobs "$jobs" --threads "$max_threads" \
    --dir build/bench-reports-tN --out build/BENCH_trajectory_tN.json
  # Deterministic metrics must be byte-identical across thread counts; wall
  # metrics are exempt.
  ./build/tools/bench_compare build/BENCH_trajectory_t1.json \
    build/BENCH_trajectory_tN.json
fi

if [[ "$scale_gate" == 1 ]]; then
  echo "== scale: bench_e11_scale --quick determinism gate =="
  ./build/tools/bench_all --quick --jobs 1 --only E11 \
    --dir build/bench-reports-scale --out build/BENCH_trajectory_scale.json
  ./build/tools/bench_all --quick --jobs 1 --only E11 \
    --dir build/bench-reports-scale-2 --out build/BENCH_trajectory_scale2.json
  # The stress tier's deterministic metrics (rule/flow/concurrency/delivery
  # counters) must reproduce byte-for-byte; wall and RSS keys are host
  # measurements and exempt by naming convention.
  ./build/tools/bench_compare build/BENCH_trajectory_scale.json \
    build/BENCH_trajectory_scale2.json
fi

if [[ "$perf" == 1 ]]; then
  echo "== perf: bench_all --quick vs committed baseline =="
  # --jobs 1, as the baseline was recorded: benches running side by side
  # share the host's cores and memory bandwidth, which inflates their walls.
  ./build/tools/bench_all --quick --jobs 1 \
    --dir build/bench-perf-reports --out build/BENCH_trajectory_perf.json
  ./build/tools/bench_compare bench/BASELINE.json \
    build/BENCH_trajectory_perf.json \
    --wall-threshold "${PERF_WALL_THRESHOLD:-50}"
fi

echo "== sanitized: ASan+UBSan build + ctest + ${fuzz_seconds}s fuzz =="
cmake -B build-san -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDIFANE_SANITIZE=ON
cmake --build build-san -j "$jobs"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -j "$jobs"
echo "== chaos (sanitized): ctest -L chaos =="
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -L chaos -j "$jobs"
echo "== property (sanitized): ctest -L property =="
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -L property -j "$jobs"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-san/tools/fuzz_difane --seconds "$fuzz_seconds"

echo "== tsan: DIFANE_SANITIZE=thread build + unit label =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDIFANE_SANITIZE=thread
cmake --build build-tsan -j "$jobs"
# halt_on_error makes any reported race fail its test.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -L unit -j "$jobs"

echo "== all checks passed =="
