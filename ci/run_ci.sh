#!/usr/bin/env bash
# Full CI sweep for the finelb prototype:
#   1. tier-1 verify  — default build, entire ctest suite;
#   2. bench smoke    — perf-trajectory smoke runs, including the
#                       steady-state allocation gate (micro_net --smoke
#                       fails if the request/poll hot loop allocates), the
#                       telemetry-overhead gate (alloc-free with tracing
#                       live, poll RTT p50 within 5% of bare), the
#                       decision-audit gate (micro_decision --smoke:
#                       alloc-free with every dispatch audited, poll RTT
#                       p50 within 2% of bare), the decision-quality smoke
#                       (exact sim + trace-reconstructed prototype
#                       mistake/regret numbers), the
#                       staleness-observatory smoke and the stats-pull
#                       smoke (stats_snapshot on 4 servers); the resulting
#                       BENCH_*.json snapshots are folded into
#                       BENCH_trajectory.json (keyed by git SHA) and gated
#                       against ci/bench_baseline.json by bench_compare.py
#                       (>10% tracked-p50 regression fails the run);
#   3. telemetry off  — -DFINELB_TELEMETRY=OFF build, full test suite:
#                       the escape hatch must stay a working configuration;
#   4. sanitizers     — ASan+UBSan (UBSan without recovery, so a report
#                       fails its test) and TSan builds running the threaded
#                       runtime, trace, and HA tests
#                       (ctest -L "runtime|trace|ha"), which cover the
#                       lock-free registry/trace-ring/decision-ring record
#                       paths, the scrape-during-write protocol, the
#                       chunked TRACE_INQUIRY and DECISION_INQUIRY wire
#                       paths, the wire codecs (golden bytes and the
#                       seeded mutational fuzz test over every message
#                       type, where any out-of-bounds read is fatal
#                       under ASan), the dispatch state machine
#                       (core::Dispatcher indexes its per-endpoint tables
#                       by driver-supplied ids), and the replicated
#                       directory (election state machine, replica threads,
#                       client failover/redirect).
#
# Usage: ci/run_ci.sh [build-root]     (default: <repo>/build-ci)
# Each stage uses its own build tree under the build root, so a warm tree
# makes re-runs incremental. Exits non-zero on the first failing stage.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo}/build-ci}"
jobs="$(nproc)"

stage() {
  echo
  echo "=== $* ==="
}

configure_and_build() {
  local dir="$1"
  shift
  cmake -S "${repo}" -B "${dir}" -DCMAKE_BUILD_TYPE=Release "$@" \
    -Wno-dev >/dev/null
  cmake --build "${dir}" -j"${jobs}"
}

stage "tier-1: default build + full test suite"
configure_and_build "${build_root}/default"
ctest --test-dir "${build_root}/default" -j"${jobs}" --output-on-failure

stage "bench smoke (allocation + telemetry-overhead gates included)"
ctest --test-dir "${build_root}/default" -L bench-smoke --output-on-failure

stage "perf trajectory + regression gate"
python3 "${repo}/ci/bench_compare.py" collect \
  --bench-dir "${build_root}/default/bench" \
  --out "${build_root}/default/bench/BENCH_trajectory.json" \
  --sha "$(git -C "${repo}" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 "${repo}/ci/bench_compare.py" compare \
  --bench-dir "${build_root}/default/bench" \
  --baseline "${repo}/ci/bench_baseline.json"

stage "telemetry escape hatch: -DFINELB_TELEMETRY=OFF build + full suite"
configure_and_build "${build_root}/notelemetry" -DFINELB_TELEMETRY=OFF
ctest --test-dir "${build_root}/notelemetry" -j"${jobs}" --output-on-failure

stage "address sanitizer: runtime + trace + ha tests"
configure_and_build "${build_root}/asan" -DFINELB_SANITIZE=address
ctest --test-dir "${build_root}/asan" -j"${jobs}" -L "runtime|trace|ha" \
  --output-on-failure

stage "thread sanitizer: runtime + trace + ha tests"
configure_and_build "${build_root}/tsan" -DFINELB_SANITIZE=thread
ctest --test-dir "${build_root}/tsan" -j"${jobs}" -L "runtime|trace|ha" \
  --output-on-failure

stage "all stages passed"
