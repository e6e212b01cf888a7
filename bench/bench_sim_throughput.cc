// Sim-throughput benchmark tier (DESIGN.md §10, §12): how fast does the
// ENGINE run on the host? Every other bench in this directory reports
// simulated cycles; this one reports host-side simulated-accesses/sec while
// replaying a fixed multi-core YCSB-like trace at 1/2/4/8 worker cores
// under the deterministic time-sliced scheduler (src/sim/scheduler.h):
// simulated concurrency decoupled from host thread count, one bit-identical
// digest for any host thread count.
//
// Before measuring, two self-checks must pass or the binary exits non-zero
// (CI's perf-smoke job fails):
//  1. determinism: the integer-only digest trace replayed sequentially
//     twice on fresh machines produces one bit-identical digest;
//  2. sliced host-thread invariance: an 8-core sliced replay of the digest
//     trace produces the same digest on 1 and on 3 host threads.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"
#include "src/util/cli.h"
#include "src/util/stats.h"

using namespace prestore;

namespace {

// The classic hit-heavy measured trace (1 MiB of private values per
// worker, zipfian-skewed, mostly L1/LLC hits), or — when miss_mix >= 0 —
// the miss-heavy variant: a 16 MiB private arena per worker whose cold
// tail busts the LLC, with miss_mix of the stream drawn from it (see
// ReplayTraceConfig::miss_mix). The miss-heavy rows are what the miss-leg
// fast path (closed-form device charging, batched writeback trains) is
// gated on; the hit-heavy rows guard the all-hit ceiling.
ReplayTraceConfig MeasuredTrace(uint32_t workers, bool quick, uint64_t seed,
                                double miss_mix) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = quick ? 60000 : 400000;
  cfg.keys_per_worker = 4096;  // 1 MiB of private values per worker
  cfg.shared_keys = 1024;
  cfg.shared_fraction = 0.125;
  cfg.value_size = 256;
  cfg.read_ratio = 0.5;  // YCSB-A mix
  cfg.zipf_theta = 0.99;
  cfg.clean_period = 8;
  cfg.seed = seed;
  if (miss_mix >= 0.0) {
    cfg.keys_per_worker = 65536;  // 16 MiB arena: cold tail >> LLC
    cfg.shared_fraction = 0.0;    // the dial covers the whole stream
    cfg.zipf_theta = 0.0;
    cfg.miss_mix = miss_mix;
  }
  return cfg;
}

ReplayTraceConfig SelfCheckTrace(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 20000;
  cfg.keys_per_worker = 2048;
  cfg.shared_keys = 512;
  cfg.shared_fraction = 0.25;
  cfg.zipf_theta = 0.0;  // integer-only key stream
  cfg.seed = 42;
  return cfg;
}

uint64_t DeterminismDigest() {
  Machine machine(MachineA(4));
  const ReplayTrace trace =
      GenerateReplayTrace(machine, SelfCheckTrace(4));
  ReplaySequential(machine, trace);
  return DigestMachine(machine, 4);
}

uint64_t SlicedDigest(uint32_t host_threads, uint64_t quantum) {
  Machine machine(MachineA(8));
  const ReplayTrace trace =
      GenerateReplayTrace(machine, SelfCheckTrace(8));
  ReplaySlicedOptions options;
  options.host_threads = host_threads;
  options.quantum = quantum;
  ReplaySliced(machine, trace, options);
  return DigestMachine(machine, 8);
}

struct SweepPoint {
  uint32_t workers = 0;
  const char* mode = "";
  const char* trace = "";     // "hit-heavy" or "miss-heavy"
  double miss_mix = -1.0;     // the knob behind a miss-heavy row
  bool oversubscribed = false;
  double per_worker_efficiency = 0.0;
  // Median / spread of accesses_per_sec over --repeat runs of the point
  // (equal to result.accesses_per_sec when --repeat=1). Host-side A/B
  // comparisons on shared machines need the median — single runs swing
  // by double digits under neighbour load.
  double apsec_min = 0.0;
  double apsec_max = 0.0;
  ReplayResult result;
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const uint64_t seed = flags.GetInt("seed", 42);
  const uint32_t max_workers =
      static_cast<uint32_t>(flags.GetInt("max-workers", 8));
  const uint64_t quantum = flags.GetInt("quantum", 20000);
  // Fraction of the miss-heavy sweep's stream drawn from the LLC-busting
  // cold tail (ReplayTraceConfig::miss_mix). Negative skips the miss-heavy
  // sweep entirely (hit-heavy rows only, the pre-knob behaviour).
  const double miss_mix = flags.GetDouble("miss-mix", 0.9);
  // Runs per sweep point; the reported accesses_per_sec is the median.
  const uint32_t repeat =
      static_cast<uint32_t>(std::max<int64_t>(1, flags.GetInt("repeat", 1)));
  const std::string out_path =
      flags.GetString("out", "BENCH_sim_throughput.json");
  if (quantum == 0) {
    std::fprintf(stderr, "--quantum must be > 0 simulated cycles\n");
    return 1;
  }
  const uint32_t hw = std::thread::hardware_concurrency();

  // Self-check 1: two fresh sequential replays, one digest.
  const uint64_t digest_a = DeterminismDigest();
  const uint64_t digest_b = DeterminismDigest();
  if (digest_a != digest_b) {
    std::fprintf(stderr,
                 "DETERMINISM CHECK FAILED: digest %016llx != %016llx\n",
                 static_cast<unsigned long long>(digest_a),
                 static_cast<unsigned long long>(digest_b));
    return 1;
  }
  // Self-check 2: the sliced digest must not depend on host thread count.
  const uint64_t sliced_m1 = SlicedDigest(1, quantum);
  const uint64_t sliced_m3 = SlicedDigest(3, quantum);
  if (sliced_m1 != sliced_m3) {
    std::fprintf(
        stderr,
        "SLICED INVARIANCE CHECK FAILED: M=1 digest %016llx != M=3 %016llx\n",
        static_cast<unsigned long long>(sliced_m1),
        static_cast<unsigned long long>(sliced_m3));
    return 1;
  }
  std::printf("determinism check ok (digest %016llx)\n",
              static_cast<unsigned long long>(digest_a));
  std::printf("sliced invariance ok (8 cores, M=1 vs M=3: %016llx)\n\n",
              static_cast<unsigned long long>(sliced_m1));

  std::vector<SweepPoint> sweep;
  std::printf("%10s %8s %7s %14s %10s %14s %8s %10s %8s\n", "trace",
              "workers", "mode", "accesses", "host_sec", "accesses/sec",
              "eff/wkr", "llc_hit%", "oversub");
  const int profiles = miss_mix >= 0.0 ? 2 : 1;
  for (int profile = 0; profile < profiles; ++profile) {
    const bool missy = profile == 1;
    {
      const char* mode = "sliced";
      double base_per_worker = 0.0;
      for (uint32_t workers : {1u, 2u, 4u, 8u}) {
        if (workers > max_workers) {
          continue;
        }
        SweepPoint point;
        point.workers = workers;
        point.mode = mode;
        point.trace = missy ? "miss-heavy" : "hit-heavy";
        point.miss_mix = missy ? miss_mix : -1.0;
        point.oversubscribed = hw != 0 && hw < workers;
        Percentiles apsec;
        for (uint32_t rep = 0; rep < repeat; ++rep) {
          // Fresh machine per run: every repeat replays the identical
          // trace from the identical cold state, so the simulated fields
          // are bit-equal across repeats and only host time varies.
          Machine machine(MachineA(workers));
          const ReplayTrace trace = GenerateReplayTrace(
              machine,
              MeasuredTrace(workers, quick, seed, missy ? miss_mix : -1.0));
          ReplaySlicedOptions options;
          options.host_threads = hw == 0 ? 1 : std::min(hw, workers);
          options.quantum = quantum;
          point.result = ReplaySliced(machine, trace, options);
          apsec.Add(point.result.accesses_per_sec);
        }
        point.result.accesses_per_sec = apsec.Median();
        point.apsec_min = apsec.Min();
        point.apsec_max = apsec.Max();
        const double per_worker =
            point.result.accesses_per_sec / static_cast<double>(workers);
        if (workers == 1) {
          base_per_worker = per_worker;
        }
        point.per_worker_efficiency =
            base_per_worker > 0.0 ? per_worker / base_per_worker : 0.0;
        const MachineStats& h = point.result.hierarchy;
        const uint64_t llc_refs = h.llc_hits + h.llc_misses;
        std::printf("%10s %8u %7s %14llu %10.3f %14.0f %8.2f %10.1f %8s\n",
                    point.trace, workers, mode,
                    static_cast<unsigned long long>(point.result.accesses),
                    point.result.host_seconds, point.result.accesses_per_sec,
                    point.per_worker_efficiency,
                    llc_refs == 0 ? 0.0
                                  : 100.0 * static_cast<double>(h.llc_hits) /
                                        static_cast<double>(llc_refs),
                    point.oversubscribed ? "yes" : "no");
        sweep.push_back(point);
      }
      std::printf("\n");
    }
  }

  if (sweep.empty()) {
    std::fprintf(stderr,
                 "no sweep points: --max-workers=%u excludes every worker "
                 "count in {1,2,4,8}\n",
                 max_workers);
    return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"sim_throughput\",\n"
               "  \"quick\": %s,\n"
               "  \"repeat\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"quantum\": %llu,\n"
               "  \"host_hw_concurrency\": %u,\n"
               "  \"determinism_digest\": \"%016llx\",\n"
               "  \"sliced_digest_m1\": \"%016llx\",\n"
               "  \"sliced_digest_m3\": \"%016llx\",\n"
               "  \"sliced_host_thread_invariant\": %s,\n"
               "  \"results\": [\n",
               quick ? "true" : "false", repeat,
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(quantum), hw,
               static_cast<unsigned long long>(digest_a),
               static_cast<unsigned long long>(sliced_m1),
               static_cast<unsigned long long>(sliced_m3),
               sliced_m1 == sliced_m3 ? "true" : "false");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    const MachineStats& h = p.result.hierarchy;
    std::fprintf(
        out,
        "    {\"trace\": \"%s\", \"miss_mix\": %.2f,"
        " \"workers\": %u, \"mode\": \"%s\", \"accesses\": %llu,"
        " \"host_seconds\": %.6f, \"accesses_per_sec\": %.0f,"
        " \"apsec_min\": %.0f, \"apsec_max\": %.0f,"
        " \"per_worker_efficiency\": %.4f, \"oversubscribed\": %s,"
        " \"sim_cycles\": %llu, \"llc_hits\": %llu, \"llc_misses\": %llu,"
        " \"target_media_bytes\": %llu}%s\n",
        p.trace, p.miss_mix, p.workers, p.mode,
        static_cast<unsigned long long>(p.result.accesses),
        p.result.host_seconds, p.result.accesses_per_sec,
        p.apsec_min, p.apsec_max,
        p.per_worker_efficiency, p.oversubscribed ? "true" : "false",
        static_cast<unsigned long long>(p.result.sim_cycles),
        static_cast<unsigned long long>(h.llc_hits),
        static_cast<unsigned long long>(h.llc_misses),
        static_cast<unsigned long long>(p.result.target_media_bytes),
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
