// Cross-core coherence behaviour: data visibility, interventions, and the
// directory-on-device cost structure of Machine B (§4.2).
#include <gtest/gtest.h>

#include <thread>

#include "src/sim/harness.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

TEST(Coherence, StoreVisibleToOtherCoreAfterFence) {
  Machine m(MachineBFast(2));
  Core& a = m.core(0);
  Core& b = m.core(1);
  const SimAddr addr = m.Alloc(128);
  a.StoreU64(addr, 0x42);
  a.Fence();
  EXPECT_EQ(b.LoadU64(addr), 0x42u);
}

TEST(Coherence, InterventionCostsMoreThanSharedHit) {
  Machine m(MachineA(2));
  Core& a = m.core(0);
  Core& b = m.core(1);
  const SimAddr addr = m.Alloc(128);
  a.StoreU64(addr, 1);
  a.Fence();  // line Modified in a's L1
  const uint64_t t0 = b.now();
  b.LoadU64(addr);  // must intervene
  const uint64_t intervention_cost = b.now() - t0;
  const uint64_t t1 = b.now();
  b.LoadU64(addr);  // now in b's L1
  const uint64_t hit_cost = b.now() - t1;
  EXPECT_GT(intervention_cost, hit_cost);
}

TEST(Coherence, WriteInvalidatesOtherCopies) {
  Machine m(MachineA(2));
  Core& a = m.core(0);
  Core& b = m.core(1);
  const SimAddr addr = m.Alloc(128);
  a.StoreU64(addr, 1);
  a.Fence();
  b.LoadU64(addr);  // b has a shared copy
  a.StoreU64(addr, 2);
  a.Fence();
  // b's copy was invalidated; the reload must not be an L1 hit.
  const uint64_t t = b.now();
  EXPECT_EQ(b.LoadU64(addr), 2u);
  EXPECT_GT(b.now() - t, static_cast<uint64_t>(m.config().l1.hit_latency));
}

// Deterministic driver for the miss-path re-probe window: core 0's LLC miss
// releases the shard lock for the speculative device read; this hook runs at
// the tail of that read (no simulator locks held) and publishes the same
// line from core 1, so core 0's re-probe finds the line freshly Modified in
// core 1's L1.
class FillLineDuringRead : public DeviceFaultHook {
 public:
  FillLineDuringRead(Machine* m, uint64_t line) : machine_(m), line_(line) {}

  uint64_t ExtraLatency(bool is_write, uint64_t) override {
    if (!is_write && armed_) {
      armed_ = false;  // the publish below re-enters Read
      machine_->PublishLine(1, line_, 0);
      fired_ = true;
    }
    return 0;
  }
  double BandwidthCostMultiplier(uint64_t) override { return 1.0; }
  uint32_t StolenBufferBlocks(uint64_t) override { return 0; }
  uint64_t ExtraDirectoryLatency(uint64_t) override { return 0; }

  bool fired() const { return fired_; }

 private:
  Machine* machine_;
  uint64_t line_;
  bool armed_ = true;
  bool fired_ = false;
};

TEST(Coherence, MissReprobeHitRunsFullHitProtocol) {
  Machine m(MachineA(2));
  const SimAddr addr = m.Alloc(128);
  const uint64_t line = m.LineBaseOf(addr);
  FillLineDuringRead hook(&m, line);
  m.SetDeviceFaultHook(&hook);

  // Core 0 writes the line. The first LLC probe misses; during the
  // speculative device read the hook gives core 1 a Modified copy, so the
  // re-probe hits a line with a foreign owner and must run the same hit
  // protocol as a first-probe hit (intervene, snoop, take ownership) — not
  // just overwrite the directory entry.
  m.LlcAccess(0, line, Machine::AccessMode::kWrite, 0);
  m.SetDeviceFaultHook(nullptr);
  ASSERT_TRUE(hook.fired());

  const MachineStats h = m.hierarchy_stats();
  // Core 1's publish was the only miss; core 0's access resolved as a hit
  // and intervened on core 1's Modified copy.
  EXPECT_EQ(h.llc_misses, 1u);
  EXPECT_EQ(h.llc_hits, 1u);
  EXPECT_EQ(h.interventions, 1u);
  // The write snooped core 1's L1 copy out.
  EXPECT_EQ(m.core(1).l1().Probe(line), nullptr);
}

TEST(Coherence, FarMemoryPublicationPaysDirectory) {
  // On Machine B, publishing a private store to FPGA-backed memory pays a
  // directory round trip + line read; DRAM-backed lines must be cheaper.
  MachineConfig cfg = MachineBSlow(2);
  Machine m(cfg);
  Core& core = m.core(0);
  const SimAddr far_addr = m.Alloc(4096, Region::kTarget);
  const SimAddr dram_addr = m.Alloc(4096, Region::kDram);

  core.StoreU64(far_addr, 1);
  uint64_t t = core.now();
  core.Fence();
  const uint64_t far_publish = core.now() - t;

  core.StoreU64(dram_addr, 1);
  t = core.now();
  core.Fence();
  const uint64_t dram_publish = core.now() - t;

  EXPECT_GT(far_publish, dram_publish);
  EXPECT_GE(far_publish, cfg.target.directory_latency);
}

TEST(Coherence, DirectoryAccessCountedOnFarMemoryWrites) {
  Machine m(MachineBFast(2));
  Core& core = m.core(0);
  const SimAddr addr = m.Alloc(1 << 16, Region::kTarget);
  m.ResetStats();
  for (int i = 0; i < 10; ++i) {
    core.StoreU64(addr + i * 128, i);
    core.Fence();
  }
  EXPECT_GE(m.target().Stats().directory_accesses, 10u);
}

TEST(Coherence, ConcurrentCountersAreExact) {
  // Functional correctness with four interleaved bodies: FetchAdd on a
  // shared counter must never lose updates.
  Machine m(MachineA(4));
  const SimAddr counter = m.Alloc(64);
  m.core(0).StoreU64(counter, 0);
  m.core(0).Fence();
  constexpr uint64_t kPerThread = 2000;
  RunParallel(m, 4, [&](Core& core, uint32_t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      core.FetchAddU64(counter, 1);
    }
  });
  EXPECT_EQ(m.core(0).AtomicLoadU64(counter), 4 * kPerThread);
}

TEST(Coherence, SpinlockMutualExclusion) {
  // A CAS spinlock built on the sim API must protect a plain variable.
  Machine m(MachineBFast(4));
  const SimAddr lock = m.Alloc(128);
  const SimAddr value = m.Alloc(128);
  m.core(0).StoreU64(lock, 0);
  m.core(0).StoreU64(value, 0);
  m.core(0).Fence();
  constexpr uint64_t kPerThread = 300;
  RunParallel(m, 4, [&](Core& core, uint32_t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      uint64_t expected = 0;
      while (!core.CasU64(lock, expected, 1)) {
        expected = 0;
        core.SpinPause(10);
      }
      core.StoreU64(value, core.LoadU64(value) + 1);
      core.AtomicStoreU64(lock, 0);
    }
  });
  EXPECT_EQ(m.core(0).LoadU64(value), 4 * kPerThread);
}

TEST(Coherence, FlushAllWritesDirtyData) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(1 << 16);
  m.ResetStats();
  for (int i = 0; i < 100; ++i) {
    core.StoreU64(a + i * 64, i);
  }
  m.FlushAll();
  // All 100 dirty lines must have reached the device.
  EXPECT_GE(m.target().Stats().bytes_received, 100 * 64u);
}

TEST(Coherence, LlcEvictionWritesBackThroughDevice) {
  // Write far more lines than the LLC holds: device must receive evictions
  // even without any flush.
  MachineConfig cfg = MachineA(2);
  Machine m(cfg);
  Core& core = m.core(0);
  const uint64_t llc_lines = cfg.llc.size_bytes / cfg.line_size;
  const SimAddr a = m.Alloc((llc_lines * 3) * 64);
  m.ResetStats();
  for (uint64_t i = 0; i < llc_lines * 3; ++i) {
    core.StoreU64(a + i * 64, i);
  }
  EXPECT_GT(m.target().Stats().bytes_received, 0u);
}

}  // namespace
}  // namespace prestore
