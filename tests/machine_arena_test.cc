// The Machine's host backing memory is demand-zero: building a machine maps
// its regions without touching them, fresh memory reads as zero, the whole
// region is allocatable, and the first byte past a region faults.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>

#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/util/hugepage.h"

namespace prestore {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

uint64_t RegionBytes(const MachineConfig& c) {
  return c.dram_region_bytes + c.target_region_bytes;
}

TEST(MachineArena, ConstructionDoesNotTouchTheRegions) {
  if (kAsan) {
    GTEST_SKIP() << "ASan's allocator inflates resident memory";
  }
  const uint64_t before = ResidentBytes();
  const Machine a(MachineA(4));
  const Machine b_fast(MachineBFast(4));
  const Machine b_slow(MachineBSlow(4));
  const uint64_t grown = ResidentBytes() - before;
  const uint64_t regions = RegionBytes(a.config()) +
                           RegionBytes(b_fast.config()) +
                           RegionBytes(b_slow.config());
  // 1728 MB of regions; the caches and cores account for a few MB.
  EXPECT_LT(grown, regions / 32) << "grew " << (grown >> 20) << " MB for "
                                 << (regions >> 20) << " MB of regions";
}

TEST(MachineArena, FreshRegionsReadZeroAtBothEnds) {
  for (const MachineConfig& cfg : {MachineA(4), MachineBFast(4)}) {
    const Machine m(cfg);
    EXPECT_EQ(*m.HostPtr(kDramBase), 0) << cfg.name;
    EXPECT_EQ(*m.HostPtr(kDramBase + cfg.dram_region_bytes - 1), 0)
        << cfg.name;
    EXPECT_EQ(*m.HostPtr(kTargetBase), 0) << cfg.name;
    EXPECT_EQ(*m.HostPtr(kTargetBase + cfg.target_region_bytes - 1), 0)
        << cfg.name;
  }
}

MachineConfig SmallRegions() {
  MachineConfig cfg = MachineA(1);
  cfg.dram_region_bytes = 1 << 20;
  cfg.target_region_bytes = 4 << 20;
  return cfg;
}

TEST(MachineArena, AllocToTheExactRegionLimit) {
  const MachineConfig cfg = SmallRegions();
  Machine m(cfg);
  const SimAddr d = m.Alloc(cfg.dram_region_bytes, Region::kDram);
  const SimAddr t = m.Alloc(cfg.target_region_bytes - 64, Region::kTarget);
  const SimAddr t_last = m.Alloc(64, Region::kTarget);
  EXPECT_EQ(d, kDramBase);
  EXPECT_EQ(t, kTargetBase);
  EXPECT_EQ(t_last + 64, kTargetBase + cfg.target_region_bytes);
  // The last byte of each region is real, writable memory.
  *m.HostPtr(d + cfg.dram_region_bytes - 1) = 0xab;
  *m.HostPtr(t_last + 63) = 0xcd;
  EXPECT_EQ(*m.HostPtr(d + cfg.dram_region_bytes - 1), 0xab);
  EXPECT_EQ(*m.HostPtr(t_last + 63), 0xcd);
  EXPECT_EQ(m.target_allocated(), cfg.target_region_bytes);
}

TEST(MachineArenaDeathTest, AllocPastTheLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MachineConfig cfg = SmallRegions();
  EXPECT_DEATH(
      {
        Machine m(cfg);
        m.Alloc(cfg.target_region_bytes, Region::kTarget);
        m.Alloc(1, Region::kTarget);
      },
      "target region exhausted");
}

TEST(MachineArenaDeathTest, StorePastARegionHitsTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MachineConfig cfg = SmallRegions();
  EXPECT_DEATH(
      {
        Machine m(cfg);
        volatile uint8_t* p = m.HostPtr(kDramBase + cfg.dram_region_bytes);
        *p = 1;
      },
      "");
  EXPECT_DEATH(
      {
        Machine m(cfg);
        volatile uint8_t* p =
            m.HostPtr(kTargetBase + cfg.target_region_bytes);
        *p = 1;
      },
      "");
}

TEST(DemandZeroArena, OddSizesAreZeroAndWritableToTheLastByte) {
  for (const size_t bytes : {size_t{1}, size_t{4095}, size_t{4097},
                             size_t{(3 << 20) + 17}}) {
    DemandZeroArena arena(bytes);
    ASSERT_EQ(arena.size(), bytes);
    EXPECT_EQ(arena.data()[0], 0);
    EXPECT_EQ(arena.data()[bytes - 1], 0);
    arena.data()[bytes - 1] = 7;
    EXPECT_EQ(arena.data()[bytes - 1], 7);
  }
}

}  // namespace
}  // namespace prestore
