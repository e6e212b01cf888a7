#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite twice --
#   1. a plain release-ish build (what CI and the benches use), and
#   2. a hardened build: ASan+UBSan with the simulator's internal invariant
#      checkers compiled in (PRESTORE_CHECK_INVARIANTS) and the baton-runner
#      watchdog armed so a wedged body aborts with diagnostics instead of
#      hanging the suite.
#
# Usage: tools/run_tier1.sh [--fast]
#   --fast  skip the sanitizer pass (plain build only)
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

# A wedged body should fail loudly, not hang CI. 120s is far above the
# slowest tier-1 test's per-RunParallel time.
export PRESTORE_WATCHDOG_MS="${PRESTORE_WATCHDOG_MS:-120000}"

# CI caches compilations across runs; locally this is a no-op unless ccache
# is installed.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache
                 -DCMAKE_C_COMPILER_LAUNCHER=ccache)
fi

run_pass() {
  local build_dir="$1"
  shift
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S . "${LAUNCHER_ARGS[@]}" "$@" >/dev/null
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j >/dev/null
  echo "==> ctest ${build_dir}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

run_pass build

# The two paper-shape tests whose pass rate used to follow host load: under
# the deterministic runner they must pass every time.
echo "==> repeat paper_shapes_test and serve_test (until-fail:5)"
ctest --test-dir build --output-on-failure --repeat until-fail:5 \
  -R '^(paper_shapes_test|serve_test)$'

# Whole-bench determinism: two runs of the same binary must print
# byte-identical results (neither bench prints a host-time field).
echo "==> bench determinism (bench_fig13_clht_machineB, bench_serve_cluster)"
./build/bench/bench_fig13_clht_machineB >build/fig13_run1.txt
./build/bench/bench_fig13_clht_machineB >build/fig13_run2.txt
cmp build/fig13_run1.txt build/fig13_run2.txt
# Both runs write the same --out path: the bench prints it.
./build/bench/bench_serve_cluster --smoke \
  --out=build/BENCH_serve_cluster_det.json >build/cluster_run1.txt
cp build/BENCH_serve_cluster_det.json build/BENCH_serve_cluster_run1.json
./build/bench/bench_serve_cluster --smoke \
  --out=build/BENCH_serve_cluster_det.json >build/cluster_run2.txt
cmp build/cluster_run1.txt build/cluster_run2.txt
cmp build/BENCH_serve_cluster_run1.json build/BENCH_serve_cluster_det.json

# Serve end-to-end gate: the ctest pass above already runs serve_test,
# serve_fault_test, and ycsb_config_test (registered in tests/CMakeLists.txt);
# this additionally exercises the full CLI request path -- preload, sharded
# serve loop, policy loop, results table -- the way a user runs it.
echo "==> serve smoke (kv_server_cli --smoke)"
./build/tools/kv_server_cli --smoke >/dev/null

# Cluster failover smoke: 3 nodes, 3-way replication, one replica killed
# mid-run by the seeded fault plan. The bench exits non-zero unless the run
# completes with zero lost acked writes, recovered throughput, bounded p99,
# and byte-identical outcome logs across two runs.
echo "==> cluster failover smoke (bench_serve_cluster --smoke)"
./build/bench/bench_serve_cluster --smoke --out=build/BENCH_serve_cluster_smoke.json >/dev/null

# Engine-throughput smoke. The bench exits non-zero if either self-check
# fails: the sequential determinism digest, or the sliced digest diverging
# between 1 and 3 host threads (scheduler determinism contract, DESIGN.md
# §12).
echo "==> sim-throughput smoke (bench_sim_throughput --quick)"
./build/bench/bench_sim_throughput --quick \
  --out=build/BENCH_sim_throughput_smoke.json >/dev/null

# Cache-layout smoke: the SetBlock cache against the preserved reference
# implementation (bench_cache_lookup exits non-zero if its randomized
# self-check sees any divergence), plus the recorded golden digest -- the
# engine-level proof that the layout refactor changed no simulated outcome.
echo "==> cache-layout smoke (bench_cache_lookup --quick)"
./build/bench/bench_cache_lookup --quick \
  --out=build/BENCH_cache_lookup_smoke.json >/dev/null
gd=$(./build/tools/sim_throughput_cli --workers=4 --ops=20000 --keys=2048 \
  --shared-keys=512 --shared-fraction=0.25 --theta=0 --seed=42 --sequential \
  --digest | grep '^digest=')
if [[ "${gd}" != "digest=ca074689a0e38784" ]]; then
  echo "golden determinism digest changed: ${gd}" >&2
  exit 1
fi

# Sliced-scheduler CLI smoke: same trace on 2 vs 3 host threads must print
# the same machine digest, and quantum=0 must be rejected.
echo "==> sliced scheduler smoke (sim_throughput_cli --host-threads=2 vs 3)"
d2=$(./build/tools/sim_throughput_cli --workers=8 --ops=20000 \
  --host-threads=2 --digest | grep '^digest=')
d3=$(./build/tools/sim_throughput_cli --workers=8 --ops=20000 \
  --host-threads=3 --digest | grep '^digest=')
if [[ "${d2}" != "${d3}" ]]; then
  echo "sliced digest host-thread variance: ${d2} vs ${d3}" >&2
  exit 1
fi
if ./build/tools/sim_throughput_cli --quantum=0 >/dev/null 2>&1; then
  echo "sim_throughput_cli accepted --quantum=0" >&2
  exit 1
fi

# Miss-leg digest smoke: a miss-heavy trace replayed on the production
# fast path (closed-form device charging + analytical miss fast-forward)
# and on the reference path (naive event-at-a-time meters, fast-forward
# off) must produce byte-identical machine digests. This is the
# bit-identical-results contract the miss-leg turbo work ships under.
echo "==> miss-leg digest smoke (fast vs reference device path)"
MISSY_ARGS=(--workers=2 --sequential --ops=20000 --keys=16384
  --shared-keys=256 --shared-fraction=0.1 --read-ratio=0.4 --theta=0
  --miss-mix=0.8 --seed=42 --digest)
df=$(./build/tools/sim_throughput_cli "${MISSY_ARGS[@]}" \
  --device-path=fast | grep '^digest=')
dr=$(./build/tools/sim_throughput_cli "${MISSY_ARGS[@]}" \
  --device-path=reference | grep '^digest=')
if [[ "${df}" != "${dr}" ]]; then
  echo "miss-leg fast/reference digest drift: fast ${df} vs ref ${dr}" >&2
  exit 1
fi

# PMEM write-combining buffer ablation: sweeps 4..1024 buffer blocks per
# DIMM (past any 8-bit slot index) and exits non-zero unless baseline
# write amplification falls from the smallest to the largest buffer.
echo "==> PMEM buffer ablation (bench_ablation_pmem_buffer)"
./build/bench/bench_ablation_pmem_buffer >/dev/null

# Monitored-governor smoke: misuse recovery on an unprofiled workload,
# sub-percent monitoring overhead, and the monitor-attached determinism
# digest across host thread counts. The bench exits non-zero on any gate.
echo "==> monitor smoke (bench_monitor --quick)"
./build/bench/bench_monitor --quick --out=build/BENCH_monitor_smoke.json \
  >/dev/null

# Monitored serving CLI smoke plus the CLI surface on all four CLIs:
# --help exits 0, a typo'd flag is rejected loudly instead of silently
# running a default configuration.
echo "==> monitored serve smoke (kv_server_cli --smoke --governed --monitored)"
./build/tools/kv_server_cli --smoke --governed --monitored >/dev/null
for cli in kv_server_cli kv_cluster_cli sim_throughput_cli dirtbuster; do
  ./build/tools/${cli} --help >/dev/null
  if ./build/tools/${cli} --monitered >/dev/null 2>&1; then
    echo "${cli} accepted an unknown flag" >&2
    exit 1
  fi
done

if [[ "${FAST}" == "0" ]]; then
  # Death tests fork under sanitizers; keep the ASan quarantine small so the
  # parallel suite fits in modest CI memory.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-quarantine_size_mb=64}"
  run_pass build-sanitize \
    -DPRESTORE_SANITIZE=address,undefined \
    -DPRESTORE_CHECK_INVARIANTS=ON
  echo "==> cluster failover smoke (sanitized build)"
  ./build-sanitize/bench/bench_serve_cluster --smoke \
    --out=build-sanitize/BENCH_serve_cluster_smoke.json >/dev/null
  # The sliced scheduler's turn handoff and the fast-forward path under
  # ASan+UBSan with invariant checkers on: the same quick sweep the plain
  # pass ran.
  echo "==> sim-throughput smoke (sanitized build)"
  ./build-sanitize/bench/bench_sim_throughput --quick \
    --out=build-sanitize/BENCH_sim_throughput_smoke.json >/dev/null
  # The SetBlock placement-new lifetimes and packed-age pointer arithmetic
  # under ASan+UBSan, via the same randomized reference self-check.
  echo "==> cache-layout smoke (sanitized build)"
  ./build-sanitize/bench/bench_cache_lookup --quick \
    --out=build-sanitize/BENCH_cache_lookup_smoke.json >/dev/null
  # Monitor gates under ASan+UBSan: the sampling hot path, split/merge
  # bookkeeping, and the advisor locking run the same quick sweep.
  echo "==> monitor smoke (sanitized build)"
  ./build-sanitize/bench/bench_monitor --quick \
    --out=build-sanitize/BENCH_monitor_smoke.json >/dev/null
  # The miss-leg digest contract under ASan+UBSan with invariant checkers:
  # the batched writeback train, closed-form ReserveRun charging, and the
  # hinted block index run the same miss-heavy fast/reference comparison.
  echo "==> miss-leg digest smoke (sanitized build)"
  sdf=$(./build-sanitize/tools/sim_throughput_cli "${MISSY_ARGS[@]}" \
    --device-path=fast | grep '^digest=')
  sdr=$(./build-sanitize/tools/sim_throughput_cli "${MISSY_ARGS[@]}" \
    --device-path=reference | grep '^digest=')
  if [[ "${sdf}" != "${sdr}" ]]; then
    echo "sanitized miss-leg digest drift: fast ${sdf} vs ref ${sdr}" >&2
    exit 1
  fi
fi

echo "==> tier-1 gate passed"
