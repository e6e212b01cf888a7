// Machine preset invariants: the configurations every experiment stands on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/sim/config.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

TEST(Presets, MachineAMatchesPaperTable1) {
  const MachineConfig m = MachineA();
  EXPECT_EQ(m.line_size, 64u);                          // Intel CPU
  EXPECT_EQ(m.target.internal_block_size, 256u);        // Optane PMEM
  EXPECT_EQ(m.target.kind, DeviceKind::kPmem);
  EXPECT_EQ(m.drain, StoreDrainPolicy::kEagerTso);      // strong x86 model
  EXPECT_EQ(m.llc.policy, ReplacementPolicy::kQuadAge); // pseudo-LRU (§4.1)
}

TEST(Presets, MachineBMatchesPaperSection3) {
  const MachineConfig fast = MachineBFast();
  const MachineConfig slow = MachineBSlow();
  EXPECT_EQ(fast.line_size, 128u);  // ThunderX ARM CPU
  EXPECT_EQ(fast.drain, StoreDrainPolicy::kLazyWeak);
  EXPECT_EQ(fast.target.kind, DeviceKind::kFarMemory);
  // Fast: 60 cycles; slow: 200 cycles (§3).
  EXPECT_EQ(fast.target.read_latency, 60u);
  EXPECT_EQ(slow.target.read_latency, 200u);
  // Bandwidth ordering: the fast FPGA moves bytes cheaper.
  EXPECT_LT(fast.target.cycles_per_byte, slow.target.cycles_per_byte);
  // Directory on the device, cost scales with its latency (§4.2).
  EXPECT_EQ(fast.target.directory_latency, 60u);
  EXPECT_EQ(slow.target.directory_latency, 200u);
  // In-order cores drain the store buffer serially at fences.
  EXPECT_EQ(fast.fence_drain_parallelism, 1u);
}

TEST(Presets, CxlSsdDoublesTheBlockSize) {
  const MachineConfig m = MachineACxlSsd();
  EXPECT_EQ(m.target.internal_block_size, 512u);
  EXPECT_EQ(m.target.internal_block_size / m.line_size, 8u);  // 8x ceiling
  EXPECT_GT(m.target.read_latency, MachineA().target.read_latency);
}

TEST(Presets, CachesConsistent) {
  for (const MachineConfig& m :
       {MachineA(), MachineBFast(), MachineBSlow(), MachineACxlSsd()}) {
    EXPECT_EQ(m.l1.line_size, m.line_size) << m.name;
    EXPECT_EQ(m.llc.line_size, m.line_size) << m.name;
    EXPECT_GT(m.llc.size_bytes, m.l1.size_bytes) << m.name;
    EXPECT_GT(m.l1.NumSets(), 0u) << m.name;
    EXPECT_GT(m.llc.NumSets(), 0u) << m.name;
    EXPECT_GE(m.num_cores, 1u) << m.name;
    EXPECT_GE(m.store_buffer_entries, 8u) << m.name;
  }
}

TEST(Presets, CoreCountPropagates) {
  EXPECT_EQ(MachineA(3).num_cores, 3u);
  EXPECT_EQ(MachineBFast(7).num_cores, 7u);
}

// CacheConfig::Validate guards the invariants the cache model assumes:
// power-of-two line sizes (shift/mask indexing), ways within the kQuadAge
// victim-candidate buffer (uint32_t[64], one slot per way), power-of-two
// ways for the tree-PLRU walk, and at least one complete set.
TEST(CacheConfigValidate, AcceptsEveryPreset) {
  for (const MachineConfig& m :
       {MachineA(), MachineBFast(), MachineBSlow(), MachineACxlSsd()}) {
    EXPECT_NO_THROW(m.l1.Validate("l1")) << m.name;
    EXPECT_NO_THROW(m.llc.Validate("llc")) << m.name;
  }
}

TEST(CacheConfigValidate, RejectsZeroWays) {
  CacheConfig c = MachineA().llc;
  c.ways = 0;
  EXPECT_THROW(c.Validate("llc"), std::invalid_argument);
}

TEST(CacheConfigValidate, RejectsWaysBeyondCandidateBuffer) {
  CacheConfig c = MachineA().llc;
  c.ways = 65;  // kQuadAge gathers candidates into a 64-slot buffer
  c.size_bytes = 65 * 64 * 16;  // keep at least one complete set
  EXPECT_THROW(c.Validate("llc"), std::invalid_argument);
  c.ways = 64;
  EXPECT_NO_THROW(c.Validate("llc"));
}

TEST(CacheConfigValidate, RejectsNonPow2LineSize) {
  CacheConfig c = MachineA().l1;
  c.line_size = 96;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
  c.line_size = 0;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
}

TEST(CacheConfigValidate, RejectsNonPow2WaysForTreePlru) {
  CacheConfig c = MachineA().l1;
  ASSERT_EQ(c.policy, ReplacementPolicy::kTreePlru);
  c.ways = 6;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
  // The same geometry is fine under a policy without the tree walk.
  c.policy = ReplacementPolicy::kLru;
  EXPECT_NO_THROW(c.Validate("l1"));
}

TEST(CacheConfigValidate, RejectsSizeWithoutOneFullSet) {
  CacheConfig c = MachineA().l1;
  c.size_bytes = c.ways * c.line_size - 1;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
}

TEST(CacheConfigValidate, RejectsSetBlockOverBudget) {
  CacheConfig c = MachineA().llc;
  // 100 ways: header AlignUp(32 + 900) = 960, block 960 + 100*32 -> 4160 B,
  // over the 4096 B per-set budget. (65..96 ways still fit the block budget
  // and are caught by the candidate-buffer rule instead.)
  c.ways = 100;
  c.size_bytes = 100 * 64 * 16;  // keep at least one complete set
  ASSERT_GT(SetBlockBytes(c.ways), kSetBlockMaxBytes);
  try {
    c.Validate("llc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SetBlock"), std::string::npos)
        << e.what();
  }
  // The largest legal way count fits the budget with room to spare.
  EXPECT_LE(SetBlockBytes(64), kSetBlockMaxBytes);
}

TEST(CacheConfigValidate, SetBlockGeometryMatchesLayoutRules) {
  // The helpers are the single source of truth for the block layout; pin
  // the arithmetic for the preset geometries (DESIGN.md §14).
  EXPECT_EQ(SetBlockHeaderBytes(8), 128u);   // 32 + 8*(8+1) -> 128
  EXPECT_EQ(SetBlockBytes(8), 384u);         // 128 + 8*32 -> 384
  EXPECT_EQ(SetBlockHeaderBytes(16), 192u);  // 32 + 16*(8+1) -> 192
  EXPECT_EQ(SetBlockBytes(16), 704u);        // 192 + 16*32 -> 704
  for (uint32_t ways : {1u, 4u, 8u, 16u, 64u}) {
    EXPECT_EQ(SetBlockHeaderBytes(ways) % kSetBlockAlign, 0u) << ways;
    EXPECT_EQ(SetBlockBytes(ways) % kSetBlockAlign, 0u) << ways;
  }
}

// MachineConfig::Validate / DeviceConfig::Validate: configurations the
// simulator cannot build faithfully are refused when the Machine is built,
// in every build type, instead of aliasing addresses or overflowing masks.

// Expects `fn` to throw std::invalid_argument whose message names `needle`.
template <typename Fn>
void ExpectInvalid(Fn fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument mentioning " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(MachineConfigValidate, AcceptsEveryPresetAndTheAblationBuffers) {
  for (const MachineConfig& m : {MachineA(), MachineBFast(), MachineBSlow(),
                                 MachineACxlSsd(), MachineA(1),
                                 MachineA(64)}) {
    EXPECT_NO_THROW(m.Validate()) << m.name;
  }
  // bench_ablation_pmem_buffer sweeps these buffer sizes.
  for (const uint32_t blocks : {4u, 16u, 64u, 256u, 1024u}) {
    MachineConfig m = MachineA(2);
    m.target.internal_buffer_blocks = blocks;
    EXPECT_NO_THROW(m.Validate()) << blocks;
  }
}

TEST(MachineConfigValidate, DramRegionMustNotReachTargetBase) {
  MachineConfig m = MachineA(1);
  m.dram_region_bytes = kTargetBase - kDramBase;  // last byte below target
  EXPECT_NO_THROW(m.Validate());
  m.dram_region_bytes += 1;
  ExpectInvalid([&] { m.Validate(); }, "dram_region_bytes");
  // The Machine constructor refuses it before mapping anything.
  ExpectInvalid([&] { Machine machine(m); }, "dram_region_bytes");
}

TEST(MachineConfigValidate, RejectsEmptyRegions) {
  MachineConfig m = MachineA(1);
  m.dram_region_bytes = 0;
  ExpectInvalid([&] { m.Validate(); }, "dram_region_bytes");
  m = MachineA(1);
  m.target_region_bytes = 0;
  ExpectInvalid([&] { m.Validate(); }, "target_region_bytes");
  ExpectInvalid([&] { Machine machine(m); }, "target_region_bytes");
}

TEST(MachineConfigValidate, RejectsCoreCountsOutsideSharerMask) {
  ExpectInvalid([] { MachineA(0).Validate(); }, "num_cores");
  ExpectInvalid([] { MachineA(65).Validate(); }, "num_cores");
}

TEST(MachineConfigValidate, RejectsMismatchedLineSizes) {
  MachineConfig m = MachineA(1);
  m.l1.line_size = 128;
  m.l1.size_bytes = 32 << 10;
  ExpectInvalid([&] { m.Validate(); }, "line_size");
  ExpectInvalid([&] { Machine machine(m); }, "line_size");
}

TEST(MachineConfigValidate, CacheErrorsPropagate) {
  MachineConfig m = MachineA(1);
  m.llc.ways = 0;
  ExpectInvalid([&] { m.Validate(); }, "llc");
}

TEST(DeviceConfigValidate, RejectsPmemBufferOutsideLimits) {
  DeviceConfig d = MachineA().target;
  d.internal_buffer_blocks = kMaxPmemBufferBlocks;
  EXPECT_NO_THROW(d.Validate("target"));
  d.internal_buffer_blocks = kMaxPmemBufferBlocks + 1;
  ExpectInvalid([&] { d.Validate("target"); }, "internal_buffer_blocks");
  d.internal_buffer_blocks = 0;
  ExpectInvalid([&] { d.Validate("target"); }, "internal_buffer_blocks");
  // Machine validation covers the target device too.
  MachineConfig m = MachineA(1);
  m.target.internal_buffer_blocks = 0;
  ExpectInvalid([&] { m.Validate(); }, "target: internal_buffer_blocks");
}

TEST(DeviceConfigValidate, RejectsPmemBlockBeyondWrittenMask) {
  DeviceConfig d = MachineACxlSsd().target;
  EXPECT_EQ(d.internal_block_size, kMaxPmemBlockBytes);
  EXPECT_NO_THROW(d.Validate("target"));
  d.internal_block_size = 1024;
  ExpectInvalid([&] { d.Validate("target"); }, "internal_block_size");
  d.internal_block_size = 0;
  ExpectInvalid([&] { d.Validate("target"); }, "internal_block_size");
}

TEST(DeviceConfigValidate, RejectsZeroInterleave) {
  DeviceConfig d = MachineA().target;
  d.interleave_bytes = 0;
  ExpectInvalid([&] { d.Validate("target"); }, "interleave_bytes");
  ExpectInvalid([&] { PmemDevice device(d); }, "interleave_bytes");
}

TEST(DeviceConfigValidate, IgnoresPmemFieldsOnOtherKinds) {
  // DRAM and far memory have no write-combining buffer; the PMEM-only
  // fields are not read, so they are not checked either.
  for (DeviceConfig d : {MachineA().dram, MachineBFast().target}) {
    d.internal_buffer_blocks = 0;
    d.internal_block_size = 0;
    EXPECT_NO_THROW(d.Validate("device")) << d.name;
  }
}

}  // namespace
}  // namespace prestore
