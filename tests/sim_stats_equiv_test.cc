// Stats-accounting equivalence: the machine keeps one plain MachineStats
// per core and Machine::hierarchy_stats() sums them. Every counter must
// come out the same whichever host threads carried the slices and whether
// the cores ran one after another or in scheduler rounds — a missed or
// double-counted bump on a slice handoff shows up here field-for-field.
// (The fast-forward on/off equivalence cases live in sim_determinism_test.)
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/machine.h"
#include "src/sim/replay.h"

namespace prestore {
namespace {

ReplayTraceConfig EquivTraceConfig(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 8000;
  // Working set (keys * value_size per worker + shared arena) well past the
  // 2MB LLC so the run produces evictions for the equivalence to cover.
  cfg.keys_per_worker = 8192;
  cfg.shared_keys = 512;
  cfg.shared_fraction = 0.25;  // plenty of cross-core traffic
  cfg.value_size = 256;
  cfg.read_ratio = 0.5;
  cfg.zipf_theta = 0.0;  // integer-only key stream
  cfg.clean_period = 8;
  cfg.seed = 42;
  return cfg;
}

void ExpectStatsEqual(const MachineStats& got, const MachineStats& want) {
  EXPECT_EQ(got.llc_hits, want.llc_hits);
  EXPECT_EQ(got.llc_misses, want.llc_misses);
  EXPECT_EQ(got.llc_evictions, want.llc_evictions);
  EXPECT_EQ(got.back_invalidations, want.back_invalidations);
  EXPECT_EQ(got.interventions, want.interventions);
  EXPECT_EQ(got.wbq_stall_cycles, want.wbq_stall_cycles);
  EXPECT_EQ(got.dir_upgrades, want.dir_upgrades);
}

void ExpectCoreStatsEqual(const CoreStats& got, const CoreStats& want) {
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.stores, want.stores);
  EXPECT_EQ(got.l1_hits, want.l1_hits);
  EXPECT_EQ(got.l1_misses, want.l1_misses);
  EXPECT_EQ(got.sb_forwards, want.sb_forwards);
  EXPECT_EQ(got.fences, want.fences);
  EXPECT_EQ(got.fence_stall_cycles, want.fence_stall_cycles);
  EXPECT_EQ(got.atomics, want.atomics);
  EXPECT_EQ(got.prestores_demote, want.prestores_demote);
  EXPECT_EQ(got.prestores_clean, want.prestores_clean);
  EXPECT_EQ(got.prestores_suppressed, want.prestores_suppressed);
  EXPECT_EQ(got.nt_lines, want.nt_lines);
  EXPECT_EQ(got.sb_capacity_drains, want.sb_capacity_drains);
  EXPECT_EQ(got.cycles_bg_wait, want.cycles_bg_wait);
  EXPECT_EQ(got.cycles_wc_wait, want.cycles_wc_wait);
  EXPECT_EQ(got.cycles_wb_pending, want.cycles_wb_pending);
  EXPECT_EQ(got.cycles_load_miss, want.cycles_load_miss);
  EXPECT_EQ(got.publish_latency_sum, want.publish_latency_sum);
  EXPECT_EQ(got.publishes, want.publishes);
}

struct RunStats {
  MachineStats hierarchy;
  std::vector<CoreStats> cores;
};

RunStats SlicedRunStats(uint32_t workers, uint32_t host_threads,
                        uint64_t quantum) {
  Machine machine(MachineA(workers));
  const ReplayTrace trace =
      GenerateReplayTrace(machine, EquivTraceConfig(workers));
  ReplaySlicedOptions options;
  options.host_threads = host_threads;
  options.quantum = quantum;
  const ReplayResult result = ReplaySliced(machine, trace, options);
  EXPECT_GT(result.accesses, 0u);
  RunStats out;
  out.hierarchy = machine.hierarchy_stats();
  for (uint32_t c = 0; c < workers; ++c) {
    out.cores.push_back(machine.core(c).stats());
  }
  return out;
}

// Slices handed between several OS threads must account exactly what one
// thread carrying every slice accounts.
TEST(SimStatsEquiv, AggregateIndependentOfHostThreads) {
  const RunStats one = SlicedRunStats(4, 1, 20000);
  const RunStats four = SlicedRunStats(4, 4, 20000);
  // The workload must actually exercise the counters being compared.
  EXPECT_GT(one.hierarchy.llc_hits, 0u);
  EXPECT_GT(one.hierarchy.llc_misses, 0u);
  EXPECT_GT(one.hierarchy.llc_evictions, 0u);
  ExpectStatsEqual(four.hierarchy, one.hierarchy);
  ASSERT_EQ(four.cores.size(), one.cores.size());
  for (size_t c = 0; c < one.cores.size(); ++c) {
    SCOPED_TRACE(c);
    ExpectCoreStatsEqual(four.cores[c], one.cores[c]);
  }
}

// A quantum longer than the whole run runs each core to completion in core
// order, which is exactly ReplaySequential: the counters must agree too.
TEST(SimStatsEquiv, SlicedHugeQuantumMatchesSequential) {
  Machine machine(MachineA(2));
  const ReplayTrace trace = GenerateReplayTrace(machine, EquivTraceConfig(2));
  const ReplayResult result = ReplaySequential(machine, trace);
  ASSERT_GT(result.accesses, 0u);
  const RunStats sliced = SlicedRunStats(2, 2, uint64_t{1} << 40);
  ExpectStatsEqual(sliced.hierarchy, machine.hierarchy_stats());
  for (uint32_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(c);
    ExpectCoreStatsEqual(sliced.cores[c], machine.core(c).stats());
  }
}

TEST(SimStatsEquiv, ResetStatsClearsHierarchyCounters) {
  Machine machine(MachineA(2));
  const ReplayTrace trace = GenerateReplayTrace(machine, EquivTraceConfig(2));
  (void)ReplaySequential(machine, trace);
  ASSERT_GT(machine.hierarchy_stats().llc_misses, 0u);
  machine.ResetStats();
  ExpectStatsEqual(machine.hierarchy_stats(), MachineStats{});
}

}  // namespace
}  // namespace prestore
