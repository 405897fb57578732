#!/usr/bin/env sh
# CI entry point: the tier-1 verify in Release, then a Debug build with
# ASan+UBSan (both run the full ctest suite), then a ThreadSanitizer lane
# over the concurrency-heavy tests. Performance is measured by
# benchmark/run.py, not here: the smoke runs below check behaviour only.
set -eu

jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> Release"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$jobs" >build-release/build.log 2>&1 || {
  cat build-release/build.log
  exit 1
}
cat build-release/build.log
# The program's own sources, examples and bench programs build warning-free.
# The build is incremental, so this sees every file an edit recompiles; a
# fresh build dir sees all. tests/ is not gated: GCC 12 reports false
# positives there (-Wmismatched-new-delete on test_alloc's replacement
# global operators, -Wrestrict inside libstdc++ string concatenation).
if grep -E '(^|/)(src|examples|bench)/[^:]*:[0-9]+(:[0-9]+)?: warning:' \
    build-release/build.log; then
  echo "ERROR: the Release build warns in src/, examples/ or bench/" >&2
  exit 1
fi
ctest --test-dir build-release --output-on-failure -j "$jobs"

# Portable lane: the same Release build without -mavx2. The vectorized
# kernels are written once with GCC vector extensions, so this compiles the
# identical source to SSE2; the kernel, filter and golden pins must hold
# bit for bit there too.
echo "==> Release, RT_AVX2=OFF"
portable_tests="test_math test_nn test_perception test_core test_golden_regression"
cmake -B build-portable -S . -DCMAKE_BUILD_TYPE=Release -DRT_AVX2=OFF \
  -DROBOTACK_BUILD_BENCH=OFF -DROBOTACK_BUILD_EXAMPLES=OFF
# shellcheck disable=SC2086
cmake --build build-portable -j "$jobs" --target $portable_tests \
  >build-portable/build.log 2>&1 || {
  cat build-portable/build.log
  exit 1
}
if grep -E '(^|/)src/[^:]*:[0-9]+(:[0-9]+)?: warning:' build-portable/build.log; then
  echo "ERROR: the RT_AVX2=OFF build warns in src/" >&2
  exit 1
fi
ctest --test-dir build-portable --output-on-failure -j "$jobs" \
  -R "^($(echo "$portable_tests" | tr ' ' '|'))\$"

# The golden-regression binaries are the contract that perf refactors never
# change results; a build misconfiguration that silently drops them from the
# suite must fail CI, not pass vacuously.
for required in test_golden_regression test_sh_training test_transfer_matrix \
                test_defense test_scenario_fuzz test_campaign_serde \
                test_service test_service_faults; do
  count="$(ctest --test-dir build-release -N -R "$required" | grep -c "Test *#" || true)"
  if [ "$count" -lt 1 ]; then
    echo "ERROR: required golden test binary '$required' missing from the suite" >&2
    exit 1
  fi
done

# Smoke-run the guided examples so they cannot silently rot: quickstart
# (trains or loads the cached oracles) and the scenario-registry showcase
# (registers a custom family + grid campaign; hermetic, few runs).
echo "==> example smoke runs"
./build-release/examples/quickstart
./build-release/examples/scenario_showcase 3
./build-release/examples/defense_demo 4

# Smoke-run the transfer-matrix driver so the curriculum-training +
# transfer path is exercised on every build (2 campaign runs per cell
# keeps the full 8x8 matrix to a few seconds).
echo "==> fig_transfer smoke run"
./build-release/bench/fig_transfer --runs 2 \
  --csv build-release/fig_transfer_smoke.csv

# Release table2 smoke, untraced and traced (--trace): the CSVs must be
# byte-identical (tracing is passive or it is broken), and the trace must
# parse under the strict linter and contain the campaign spans.
echo "==> table2 smoke (traced + untraced)"
./build-release/bench/table2_attack_summary --runs 8 --threads 1 \
  --csv build-release/table2_untraced.csv >build-release/table2_untraced.log
cat build-release/table2_untraced.log
./build-release/bench/table2_attack_summary --runs 8 --threads 1 \
  --csv build-release/table2_traced.csv \
  --trace build-release/table2_trace.json >build-release/table2_traced.log
cat build-release/table2_traced.log
cmp build-release/table2_untraced.csv build-release/table2_traced.csv || {
  echo "ERROR: arming the tracer changed the table2 result bytes" >&2
  exit 1
}
# Determinism contract: the thread count never changes the result bytes.
./build-release/bench/table2_attack_summary --runs 8 --threads 4 \
  --csv build-release/table2_threads4.csv >/dev/null
cmp build-release/table2_untraced.csv build-release/table2_threads4.csv || {
  echo "ERROR: table2 CSV differs between --threads 1 and --threads 4" >&2
  exit 1
}
# Strict parse + required spans. The table2 path runs the campaign grid
# (grid_request, campaign_cell); oracle_batch_flush belongs to the
# transfer-matrix driver and must NOT be demanded here.
./build-release/examples/trace_lint build-release/table2_trace.json \
  grid_request campaign_cell
# Tracing overhead, from each run's `grid: N runs in X s  (R runs/sec at T
# threads)` line: warn past the 3% budget, fail only at a loose 25% bound
# (a single --runs 8 grid is a noisy sample).
grid_rps() {
  sed -n 's/^grid: .*(\([0-9.]*\) runs\/sec at .*/\1/p' "$1"
}
untraced_rps="$(grid_rps build-release/table2_untraced.log)"
traced_rps="$(grid_rps build-release/table2_traced.log)"
awk -v u="$untraced_rps" -v t="$traced_rps" 'BEGIN{
  if (u <= 0 || t <= 0) { print "ERROR: missing table2 grid: lines" > "/dev/stderr"; exit 1 }
  overhead = (u - t) / u * 100.0
  printf "table2 traced overhead: %.1f%% (untraced %.1f r/s, traced %.1f r/s)\n", overhead, u, t
  if (overhead > 25) { print "ERROR: tracing overhead exceeds the 25% hard bound" > "/dev/stderr"; exit 1 }
  if (overhead > 3) printf "WARNING: tracing overhead %.1f%% exceeds the 3%% budget\n", overhead
}'

# The attack-vs-defense matrix: smoke the full scenario x mode x monitor
# grid (2 runs per cell keeps all 8 families to a few seconds).
echo "==> table_defense smoke"
./build-release/bench/table_defense --runs 2 --threads 1 >/dev/null

# Bounded fuzz smoke: the coverage-guided scenario search plus the clean-run
# invariant sweep over its frontier. The driver exits nonzero if any frontier
# sample violates an invariant, so CI catches generator regressions that the
# pinned corpus alone would miss.
echo "==> table_fuzz smoke"
./build-release/bench/table_fuzz --runs 2 --threads 1 >/dev/null
# Campaign service: the cold/warm cache driver is its own gate (it exits
# nonzero unless the warm pass is 100% hits, bit-identical, and >=10x
# faster).
echo "==> table_service smoke"
./build-release/bench/table_service --runs 4 --threads 1
# The same gate through two forked workers: cold and chaos passes go through
# the sharder's claim dispatch, and the rt_shard_* registry counters must
# agree with its ShardStats (those checks only run when workers >= 1).
echo "==> table_service forked smoke (--workers 2)"
./build-release/bench/table_service --runs 4 --workers 2

# Batch server determinism gate: run the same grid request twice against one
# cache directory. The second pass must report 100% cache hits and produce a
# byte-identical CSV, or the content-hash cache has broken bit-determinism.
echo "==> campaign_server cache determinism"
server_req='run scenarios=DS-1,DS-2 vectors=Disappear modes=RwoSH,Golden runs=3 seed=11'
server_cache="build-release/server_cache_smoke"
rm -rf "$server_cache"
printf '%s\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$server_cache" \
  >build-release/server_pass1.csv 2>build-release/server_pass1.log
printf '%s\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$server_cache" \
  >build-release/server_pass2.csv 2>build-release/server_pass2.log
cmp build-release/server_pass1.csv build-release/server_pass2.csv || {
  echo "ERROR: campaign_server CSV not byte-identical across cache passes" >&2
  exit 1
}
grep -q '"event":"cache_summary","hits":4,"misses":0' \
  build-release/server_pass2.log || {
  echo "ERROR: campaign_server warm pass was not 100% cache hits" >&2
  cat build-release/server_pass2.log >&2
  exit 1
}
# The same request with no cache through two forked workers must render
# the same bytes as the in-process pass.
printf '%s\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --workers 2 \
  >build-release/server_forked.csv 2>build-release/server_forked.log
cmp build-release/server_pass1.csv build-release/server_forked.csv || {
  echo "ERROR: forked campaign_server CSV differs from the in-process pass" >&2
  exit 1
}

# Third warm pass with the `stats` verb: the metrics registry must agree
# with the JSONL cache summary — 4 cache hits, 0 misses, visible through
# the exporter and not just the log line.
printf '%s\nstats\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$server_cache" \
  >build-release/server_pass3.out 2>build-release/server_pass3.log
grep -q '"rt_campaign_cache_hits_total": 4' build-release/server_pass3.out || {
  echo "ERROR: stats verb did not report 4 cache hits" >&2
  grep -v '^spec,' build-release/server_pass3.out >&2 || true
  exit 1
}
grep -q '"rt_campaign_cache_misses_total": 0' build-release/server_pass3.out || {
  echo "ERROR: stats verb reported cache misses on a warm cache" >&2
  exit 1
}
grep -q '"rt_service_requests_total": 1' build-release/server_pass3.out || {
  echo "ERROR: stats verb did not count the request" >&2
  exit 1
}

# Concurrent-server determinism gate: one long-lived server on a Unix
# socket, two requests run serially and then from two simultaneous clients.
# Concurrent responses must be byte-identical to the serial ones (the
# single-executor barrier is what makes the service deterministic under
# concurrency), and the SIGTERM drain must exit 0 and unlink the socket.
echo "==> campaign_server concurrent determinism"
server_sock="/tmp/rt_ci_server_$$.sock"
req_a='run scenarios=DS-1 modes=RwoSH runs=3 seed=11'
req_b='run scenarios=DS-1 modes=Golden runs=3 seed=22'
rm -f "$server_sock"
./build-release/examples/campaign_server --no-oracles \
  --socket "$server_sock" 2>build-release/server_socket.log &
server_pid=$!
for _ in $(seq 1 200); do
  [ -S "$server_sock" ] && break
  sleep 0.05
done
[ -S "$server_sock" ] || { echo "ERROR: server socket never appeared" >&2; exit 1; }
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_a" >build-release/serial_a.csv
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_b" >build-release/serial_b.csv
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_a" >build-release/conc_a.csv &
client_a=$!
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_b" >build-release/conc_b.csv &
client_b=$!
wait "$client_a" && wait "$client_b" || {
  echo "ERROR: concurrent campaign_client failed" >&2
  exit 1
}
cmp build-release/serial_a.csv build-release/conc_a.csv || {
  echo "ERROR: concurrent response A differs from serial" >&2
  exit 1
}
cmp build-release/serial_b.csv build-release/conc_b.csv || {
  echo "ERROR: concurrent response B differs from serial" >&2
  exit 1
}
kill -TERM "$server_pid"
wait "$server_pid" || {
  echo "ERROR: campaign_server did not exit 0 on SIGTERM" >&2
  exit 1
}
[ ! -e "$server_sock" ] || {
  echo "ERROR: campaign_server left its socket behind" >&2
  exit 1
}

# google-benchmark smoke (when the library is installed): the kernels
# still run; their numbers go to the console only.
if [ -x build-release/bench/bench_perception ]; then
  ./build-release/bench/bench_perception \
    --benchmark_filter='BM_CampaignSchedulerThroughput/1|BM_KalmanPredictUpdate'
fi
if [ -x build-release/bench/bench_nn ]; then
  ./build-release/bench/bench_nn \
    --benchmark_filter='BM_OracleInference|BM_OracleBatchInference|BM_SafetyHijackerDecision'
fi

echo "==> Debug + ASan/UBSan"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DROBOTACK_SANITIZE=ON
cmake --build build-asan -j "$jobs"
# The fuzz sweep's closed-loop sample counts are sized for Release; under
# the sanitizers run it separately with a reduced RT_FUZZ_SAMPLES (the test
# floors the per-template count at 2, so every family is still exercised).
# Same deal for the chaos suite: RT_FAULT_SEEDS=1 keeps the fault-matrix
# seed set to one per (site, type) pair under ASan.
ctest --test-dir build-asan --output-on-failure -j "$jobs" -LE 'fuzz|chaos'
RT_FUZZ_SAMPLES=4 ctest --test-dir build-asan --output-on-failure -L fuzz
RT_FAULT_SEEDS=1 ctest --test-dir build-asan --output-on-failure -L chaos

# ThreadSanitizer lane over the shared-state tests: the scheduler's claim
# counter (test_campaign_parallel), the metric shards and the armed tracer
# under a threaded grid (test_obs), the threaded trainer (test_nn) and the
# service with its forked workers (test_service). A race report fails the
# lane even when it comes from a forked worker whose test still passes.
echo "==> Debug + TSan"
tsan_tests="test_campaign_parallel test_obs test_nn test_service"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
  -DROBOTACK_BUILD_BENCH=OFF -DROBOTACK_BUILD_EXAMPLES=OFF
# shellcheck disable=SC2086
cmake --build build-tsan -j "$jobs" --target $tsan_tests
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R "^($(echo "$tsan_tests" | tr ' ' '|'))\$"
if grep -n 'WARNING: ThreadSanitizer' \
    build-tsan/Testing/Temporary/LastTest.log; then
  echo "ERROR: ThreadSanitizer reported a race" >&2
  exit 1
fi

echo "==> OK"
