// RunParallel / SpinPause / SimArray: the scaffolding workloads stand on.
#include <gtest/gtest.h>

#include <atomic>

#include "src/sim/array.h"
#include "src/sim/harness.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

TEST(Harness, AlignsClocksAtStart) {
  Machine m(MachineA(2));
  m.core(0).Execute(5000);  // core 0 races ahead before the parallel phase
  RunParallel(m, 2, [&](Core& core, uint32_t) { core.Execute(10); });
  // Both cores started from the aligned max: their clocks are close.
  const uint64_t a = m.core(0).now();
  const uint64_t b = m.core(1).now();
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 5010u);
}

TEST(Harness, ReturnsSlowestCoreTime) {
  Machine m(MachineA(3));
  const uint64_t cycles = RunParallel(m, 3, [&](Core& core, uint32_t tid) {
    core.Execute(100 * (tid + 1));
  });
  EXPECT_EQ(cycles, 300u);
}

TEST(Harness, RunOnCoreMeasuresDelta) {
  Machine m(MachineA(1));
  m.core(0).Execute(123);
  const uint64_t cycles = RunOnCore(m, [](Core& core) { core.Execute(77); });
  EXPECT_EQ(cycles, 77u);
}

TEST(SpinPause, LaggardCatchesUpToLeader) {
  Machine m(MachineA(2));
  Core& leader = m.core(0);
  Core& laggard = m.core(1);
  leader.Execute(10000);
  leader.Fence();
  const uint64_t before = laggard.now();
  for (int i = 0; i < 1000; ++i) {
    laggard.SpinPause(30);
  }
  EXPECT_GT(laggard.now(), before);
  // The spin never overtakes the leader's clock.
  EXPECT_LE(laggard.now(), leader.now());
}

TEST(SpinPause, LeaderDoesNotRunAway) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  core.Execute(1000);
  core.Fence();
  const uint64_t before = core.now();
  for (int i = 0; i < 10000; ++i) {
    core.SpinPause(30);  // already the max: must not advance its own clock
  }
  EXPECT_EQ(core.now(), before);
}

TEST(SimArray, TypedRoundTrips) {
  Machine m(MachineA(1));
  Core& core = m.core(0);
  SimArray<uint64_t> u64s(m, 100);
  SimArray<uint32_t> u32s(m, 100);
  SimArray<double> doubles(m, 100);
  struct Pair {
    uint32_t a;
    uint32_t b;
    uint64_t c;
  };
  SimArray<Pair> pairs(m, 10);

  u64s.Set(core, 7, 0x1122334455667788ULL);
  EXPECT_EQ(u64s.Get(core, 7), 0x1122334455667788ULL);
  u32s.Set(core, 3, 0xabcdef01u);
  EXPECT_EQ(u32s.Get(core, 3), 0xabcdef01u);
  doubles.Set(core, 9, -2.5);
  EXPECT_DOUBLE_EQ(doubles.Get(core, 9), -2.5);
  pairs.Set(core, 2, Pair{1, 2, 3});
  const Pair p = pairs.Get(core, 2);
  EXPECT_EQ(p.a, 1u);
  EXPECT_EQ(p.b, 2u);
  EXPECT_EQ(p.c, 3u);
}

TEST(SimArray, AddressingIsContiguous) {
  Machine m(MachineA(1));
  SimArray<uint64_t> arr(m, 16);
  EXPECT_EQ(arr.AddrOf(0), arr.base());
  EXPECT_EQ(arr.AddrOf(5), arr.base() + 40);
  EXPECT_EQ(arr.bytes(), 128u);
}

TEST(SimArray, NtAndPrestorePreserveData) {
  Machine m(MachineA(1));
  Core& core = m.core(0);
  SimArray<uint64_t> arr(m, 64);
  for (uint64_t i = 0; i < 64; ++i) {
    arr.SetNt(core, i, i * 3);
  }
  arr.Prestore(core, 0, 64, PrestoreOp::kClean);
  core.Fence();
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(arr.Get(core, i), i * 3);
  }
}

}  // namespace
}  // namespace prestore
