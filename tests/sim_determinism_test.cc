// Determinism guard for the simulation engine (DESIGN.md §10, §12).
//
// A sequential replay of a fixed trace must leave the machine in a
// bit-identical state for a fixed seed: same cycle totals, same media-byte
// counters, same LLC content (which encodes every eviction decision). The
// digests below were recorded from the engine BEFORE the fast-path rework
// (global atomic MachineStats, monolithic LLC behind sharded mutexes);
// the reworked engine — striped stats, truly sharded LLC, way-hint probes —
// must reproduce them exactly, proving the optimizations changed no
// simulated result.
//
// The traces use the integer-only uniform key stream (zipf_theta = 0):
// zipfian generation rounds through std::pow, whose last-bit behaviour is
// libm-specific, and a recorded digest must not depend on the host's libm.
#include <gtest/gtest.h>

#include "src/msg/x9.h"
#include "src/sim/config.h"
#include "src/sim/harness.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"

namespace prestore {
namespace {

ReplayTraceConfig DigestTrace(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 20000;
  cfg.keys_per_worker = 2048;
  cfg.shared_keys = 512;
  cfg.shared_fraction = 0.25;  // exercise the cross-core coherence paths
  cfg.value_size = 256;
  cfg.read_ratio = 0.5;
  cfg.zipf_theta = 0.0;  // integer-only key stream (portable digest)
  cfg.clean_period = 8;
  cfg.seed = 42;
  return cfg;
}

uint64_t RunDigest(const MachineConfig& mc, uint32_t workers) {
  Machine machine(mc);
  const ReplayTrace trace =
      GenerateReplayTrace(machine, DigestTrace(workers));
  ReplaySequential(machine, trace);
  return DigestMachine(machine, workers);
}

// Machine A: TSO drain, QuadAge LLC (per-set RNG victim choice), PMEM
// target with internal write-combining blocks.
TEST(SimDeterminism, MachineADigestMatchesPreReworkEngine) {
  constexpr uint64_t kRecorded = 14557681877422147460ULL;
  EXPECT_EQ(RunDigest(MachineA(4), 4), kRecorded);
}

// Machine B: weak drain (store buffer + fence publication), random-policy
// LLC, far-memory target with on-device directory.
TEST(SimDeterminism, MachineBDigestMatchesPreReworkEngine) {
  constexpr uint64_t kRecorded = 2163896687524659229ULL;
  EXPECT_EQ(RunDigest(MachineBFast(3), 3), kRecorded);
}

// Same-process repeatability, independent of any recorded constant (and of
// libm: this variant runs the zipfian trace too).
TEST(SimDeterminism, RepeatedReplaysAreBitIdentical) {
  ReplayTraceConfig cfg = DigestTrace(4);
  cfg.zipf_theta = 0.99;
  uint64_t digests[2];
  for (int i = 0; i < 2; ++i) {
    Machine machine(MachineA(4));
    const ReplayTrace trace = GenerateReplayTrace(machine, cfg);
    ReplaySequential(machine, trace);
    digests[i] = DigestMachine(machine, 4);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

uint64_t RunSlicedDigest(uint32_t workers, uint32_t host_threads,
                         uint64_t quantum) {
  Machine machine(MachineA(workers));
  const ReplayTrace trace =
      GenerateReplayTrace(machine, DigestTrace(workers));
  ReplaySlicedOptions options;
  options.host_threads = host_threads;
  options.quantum = quantum;
  ReplaySliced(machine, trace, options);
  return DigestMachine(machine, workers);
}

// The sliced scheduler's core contract (DESIGN.md §12): slices execute in
// global (round, core) order no matter how many host threads carry them, so
// the machine end state for N simulated cores is byte-identical for any M.
// M only changes which OS thread carries a slice.
TEST(SimDeterminism, SlicedDigestIndependentOfHostThreads) {
  const uint64_t m1 = RunSlicedDigest(8, 1, 20000);
  const uint64_t m2 = RunSlicedDigest(8, 2, 20000);
  const uint64_t m4 = RunSlicedDigest(8, 4, 20000);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m4);
}

// A quantum larger than the whole run degenerates round 0 into "run each
// core to completion, in core order" — which is the definition of
// ReplaySequential. The digests must agree exactly.
TEST(SimDeterminism, SlicedWithHugeQuantumMatchesSequential) {
  Machine sequential(MachineA(4));
  const ReplayTrace trace =
      GenerateReplayTrace(sequential, DigestTrace(4));
  ReplaySequential(sequential, trace);
  const uint64_t want = DigestMachine(sequential, 4);
  EXPECT_EQ(RunSlicedDigest(4, 1, uint64_t{1} << 40), want);
  EXPECT_EQ(RunSlicedDigest(4, 3, uint64_t{1} << 40), want);
}

// The quantum changes WHERE core switches land, so different quanta may
// legitimately produce different (each internally reproducible) schedules;
// the digest for a fixed quantum must still be independent of M.
TEST(SimDeterminism, SlicedSmallQuantumStillHostThreadInvariant) {
  EXPECT_EQ(RunSlicedDigest(4, 1, 500), RunSlicedDigest(4, 4, 500));
}

// ---- Analytical fast-forward equivalence ----

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

// The analytical fast-forward must be invisible in every observable number:
// replaying the same trace with fast-forward enabled (the default) and
// disabled (every op walks the full timing path) must aggregate identical
// hierarchy counters, identical per-core stats, and an identical machine
// digest. This is the strongest form of the "charge cycles and stat deltas
// in one step" claim — not statistically close, bit-equal.
TEST(SimDeterminism, FastForwardAggregatesIdenticalStatStripes) {
  ReplayTraceConfig cfg = EquivTraceConfig(2);
  uint64_t digests[2];
  MachineStats stats[2];
  CoreStats core0[2];
  uint64_t icount0[2];
  for (int ff = 0; ff < 2; ++ff) {
    Machine machine(MachineA(2));
    machine.SetAnalyticalFastForward(ff == 1);
    const ReplayTrace trace = GenerateReplayTrace(machine, cfg);
    const ReplayResult result = ReplaySequential(machine, trace);
    ASSERT_GT(result.accesses, 0u);
    digests[ff] = DigestMachine(machine, 2);
    stats[ff] = machine.hierarchy_stats();
    core0[ff] = machine.core(0).stats();
    icount0[ff] = machine.core(0).icount();
  }
  ExpectStatsEqual(stats[1], stats[0]);
  EXPECT_EQ(core0[1].loads, core0[0].loads);
  EXPECT_EQ(core0[1].stores, core0[0].stores);
  EXPECT_EQ(core0[1].l1_hits, core0[0].l1_hits);
  EXPECT_EQ(core0[1].l1_misses, core0[0].l1_misses);
  EXPECT_EQ(core0[1].cycles_load_miss, core0[0].cycles_load_miss);
  EXPECT_EQ(core0[1].publishes, core0[0].publishes);
  EXPECT_EQ(core0[1].publish_latency_sum, core0[0].publish_latency_sum);
  EXPECT_EQ(icount0[1], icount0[0]);
  EXPECT_EQ(digests[1], digests[0]);
}

// Same equivalence on the zipf-skewed mix (hot lines, more L1 hits, more
// write-combining traffic) and on the sliced scheduler path.
TEST(SimDeterminism, FastForwardEquivalenceZipfSliced) {
  ReplayTraceConfig cfg = EquivTraceConfig(2);
  cfg.zipf_theta = 0.99;
  uint64_t digests[2];
  for (int ff = 0; ff < 2; ++ff) {
    Machine machine(MachineA(2));
    machine.SetAnalyticalFastForward(ff == 1);
    const ReplayTrace trace = GenerateReplayTrace(machine, cfg);
    ReplaySlicedOptions options;
    options.host_threads = 2;
    (void)ReplaySliced(machine, trace, options);
    digests[ff] = DigestMachine(machine, 2);
  }
  EXPECT_EQ(digests[1], digests[0]);
}

// ---- Baton runner: RunParallel bodies interleave deterministically ----

// Two bodies that wait on each other through X9 inboxes: core 0 sends a
// stamped ping, core 1 answers with a pong, and each waits (SpinPause ->
// WaitForPeers) for the other. Every wait hands the baton over, so the
// interleaving — and with it every clock, counter and LLC line — must be
// the same on every run.
uint64_t PingPongDigest() {
  Machine machine(MachineBFast(2));
  X9Inbox to_1(machine, 8, 64);
  X9Inbox to_0(machine, 8, 64);
  constexpr uint64_t kRounds = 200;
  RunParallel(
      machine, 2,
      [&](Core& core, uint32_t tid) {
        uint64_t marker = 0;
        uint64_t stamp = 0;
        for (uint64_t i = 0; i < kRounds; ++i) {
          if (tid == 0) {
            while (!to_1.TryWriteStamped(core, i, MsgPrestore::kDemote)) {
              core.SpinPause(50);
            }
            while (!to_0.TryReadStamped(core, &marker, &stamp)) {
              core.SpinPause(30);
            }
          } else {
            while (!to_1.TryReadStamped(core, &marker, &stamp)) {
              core.SpinPause(30);
            }
            core.Execute(100);
            while (!to_0.TryWriteStamped(core, marker, MsgPrestore::kOff)) {
              core.SpinPause(50);
            }
          }
        }
      });
  return DigestMachine(machine, 2);
}

TEST(SimDeterminism, PingPongThroughX9InboxIsRepeatable) {
  const uint64_t first = PingPongDigest();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(PingPongDigest(), first) << "run " << i;
  }
}

// Four bodies contending on one CAS spinlock over a shared counter: lock
// hand-offs, interventions and the spinners' catch-up are all part of the
// digest, and the digest must repeat.
uint64_t ContendedLockDigest() {
  Machine machine(MachineA(4));
  const SimAddr lock = machine.Alloc(128);
  const SimAddr value = machine.Alloc(128);
  RunParallel(machine, 4, [&](Core& core, uint32_t) {
    for (int i = 0; i < 200; ++i) {
      uint64_t expected = 0;
      while (!core.CasU64(lock, expected, 1)) {
        expected = 0;
        core.SpinPause(10);
      }
      core.StoreU64(value, core.LoadU64(value) + 1);
      core.AtomicStoreU64(lock, 0);
      core.Execute(40);
    }
  });
  EXPECT_EQ(machine.core(0).LoadU64(value), 800u);
  return DigestMachine(machine, 4);
}

TEST(SimDeterminism, ContendedRunParallelIsRepeatable) {
  const uint64_t first = ContendedLockDigest();
  EXPECT_EQ(ContendedLockDigest(), first);
  EXPECT_EQ(ContendedLockDigest(), first);
}

TEST(SimDeterminism, SchedulerConfigRejectsZeroQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

TEST(SimDeterminism, SchedulerConfigRejectsZeroHostThreads) {
  SchedulerConfig cfg;
  cfg.host_threads = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace prestore
