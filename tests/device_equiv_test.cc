// The miss-leg fast path's whole-machine digest contract: the production
// engine (closed-form device charging, batched writeback/refill trains,
// analytical LLC-miss fast-forward) must produce BIT-IDENTICAL simulated
// end state to the reference configuration (naive event-at-a-time device
// meters, fast-forward disabled) — across every replacement policy the
// LLC can be configured with and under both deterministic schedulers. A
// single diverging cycle count, eviction choice, or media byte lands here
// as a digest mismatch before it can reach a recorded benchmark.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"
#include "src/util/rng.h"

namespace prestore {
namespace {

// Miss-heavy, store-heavy, clean-carrying trace: the private arena's cold
// tail busts the 2MB LLC so the run spends most of its time on the
// miss/eviction/writeback legs the fast path rebuilt, while the hot head
// keeps enough hits flowing to exercise the fast-forward hit legs too.
ReplayTraceConfig MissyTrace(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 12000;
  cfg.keys_per_worker = 16384;  // 4 MiB of private values per worker
  cfg.shared_keys = 256;
  cfg.shared_fraction = 0.1;
  cfg.value_size = 256;
  cfg.read_ratio = 0.4;  // store-heavy: dirty evictions and trains
  cfg.zipf_theta = 0.0;  // integer-only key stream
  cfg.clean_period = 8;
  cfg.miss_mix = 0.8;
  cfg.seed = 42;
  return cfg;
}

enum class Mode { kSequential, kSliced };

uint64_t RunDigest(ReplacementPolicy policy, bool reference, Mode mode,
                   uint32_t workers, uint32_t pmem_buffer_blocks = 8) {
  MachineConfig mc = MachineA(workers);
  mc.llc.policy = policy;
  mc.target.internal_buffer_blocks = pmem_buffer_blocks;
  if (reference) {
    mc.dram.reference_impl = true;
    mc.target.reference_impl = true;
  }
  Machine machine(mc);
  if (reference) {
    machine.SetAnalyticalFastForward(false);
  }
  const ReplayTrace trace = GenerateReplayTrace(machine, MissyTrace(workers));
  if (mode == Mode::kSliced) {
    ReplaySlicedOptions options;
    options.host_threads = 1;
    options.quantum = 20000;
    ReplaySliced(machine, trace, options);
  } else {
    ReplaySequential(machine, trace);
  }
  return DigestMachine(machine, workers);
}

constexpr ReplacementPolicy kAllPolicies[] = {
    ReplacementPolicy::kLru, ReplacementPolicy::kTreePlru,
    ReplacementPolicy::kRandom, ReplacementPolicy::kFifo,
    ReplacementPolicy::kQuadAge,
};

const char* PolicyName(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kTreePlru:
      return "tree-plru";
    case ReplacementPolicy::kRandom:
      return "random";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kQuadAge:
      return "quad-age";
  }
  return "?";
}

TEST(DeviceEquiv, FastMatchesReferenceAllPoliciesSequential) {
  for (ReplacementPolicy policy : kAllPolicies) {
    const uint64_t fast =
        RunDigest(policy, /*reference=*/false, Mode::kSequential, 2);
    const uint64_t ref =
        RunDigest(policy, /*reference=*/true, Mode::kSequential, 2);
    EXPECT_EQ(fast, ref) << "policy " << PolicyName(policy)
                         << ": fast-path digest diverged from reference";
  }
}

TEST(DeviceEquiv, FastMatchesReferenceAllPoliciesSliced) {
  for (ReplacementPolicy policy : kAllPolicies) {
    const uint64_t fast =
        RunDigest(policy, /*reference=*/false, Mode::kSliced, 4);
    const uint64_t ref =
        RunDigest(policy, /*reference=*/true, Mode::kSliced, 4);
    EXPECT_EQ(fast, ref) << "policy " << PolicyName(policy)
                         << ": fast-path digest diverged from reference";
  }
}

TEST(DeviceEquiv, FastForwardAloneMatchesSlowPath) {
  // Narrower bisection aid: production devices on BOTH sides, only the
  // analytical fast-forward toggled. A failure here with the full-contract
  // tests passing points at the device layer instead of the core FF legs.
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kQuadAge, ReplacementPolicy::kTreePlru}) {
    MachineConfig mc = MachineA(2);
    mc.llc.policy = policy;
    Machine ff_machine(mc);
    const ReplayTrace trace =
        GenerateReplayTrace(ff_machine, MissyTrace(2));
    ReplaySequential(ff_machine, trace);
    const uint64_t ff_digest = DigestMachine(ff_machine, 2);

    Machine slow_machine(mc);
    slow_machine.SetAnalyticalFastForward(false);
    const ReplayTrace slow_trace =
        GenerateReplayTrace(slow_machine, MissyTrace(2));
    ReplaySequential(slow_machine, slow_trace);
    EXPECT_EQ(ff_digest, DigestMachine(slow_machine, 2))
        << "policy " << PolicyName(policy);
  }
}

// XPBuffers of 256 and 1024 blocks per DIMM: past the 255 slot ids an
// 8-bit index could name (the ablation bench sweeps both sizes).
constexpr uint32_t kLargeBuffers[] = {256, 1024};

TEST(DeviceEquiv, FastMatchesReferenceLargePmemBuffer) {
  for (const uint32_t blocks : kLargeBuffers) {
    const uint64_t fast = RunDigest(ReplacementPolicy::kQuadAge,
                                    /*reference=*/false, Mode::kSequential,
                                    2, blocks);
    const uint64_t ref = RunDigest(ReplacementPolicy::kQuadAge,
                                   /*reference=*/true, Mode::kSequential, 2,
                                   blocks);
    EXPECT_EQ(fast, ref) << blocks << " buffer blocks";
  }
}

TEST(DeviceEquiv, LargePmemBufferOpForOp) {
  // Device-level cross-check: a random read/write stream over four times
  // the buffered blocks, so every slot fills, evicts and refills. Each op's
  // completion time and the final media accounting must match.
  for (const uint32_t blocks : kLargeBuffers) {
    DeviceConfig c = MachineA(1).target;
    c.internal_buffer_blocks = blocks;
    DeviceConfig ref_cfg = c;
    ref_cfg.reference_impl = true;
    PmemDevice fast(c);
    const std::unique_ptr<Device> ref = MakeDevice(ref_cfg);
    const uint64_t span =
        4ULL * blocks * c.interleave_dimms * c.internal_block_size;
    Xoshiro256 rng(blocks);
    uint64_t now = 0;
    for (int i = 0; i < 200000; ++i) {
      const uint64_t addr = rng.Below(span) & ~63ULL;
      const bool write = rng.Below(10) < 6;
      now += rng.Below(40);
      const uint64_t tf = write ? fast.Write(addr, 64, now)
                                : fast.Read(addr, 64, now);
      const uint64_t tr = write ? ref->Write(addr, 64, now)
                                : ref->Read(addr, 64, now);
      ASSERT_EQ(tf, tr) << blocks << " blocks, op " << i;
    }
    fast.Drain();
    ref->Drain();
    EXPECT_EQ(fast.Stats().media_bytes_written,
              ref->Stats().media_bytes_written)
        << blocks << " blocks";
    EXPECT_GT(fast.Stats().WriteAmplification(), 1.0) << blocks << " blocks";
  }
}

}  // namespace
}  // namespace prestore
