// Ablation (DESIGN.md §5): size of the PMEM-internal write-combining buffer.
// The buffer bounds how far apart two 64B writebacks of the same 256B block
// may arrive and still coalesce; tiny buffers amplify even sequential
// streams under multi-threaded interleaving, huge buffers absorb scattered
// evictions and shrink the pre-store benefit.
#include <iostream>

#include "bench/listings.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 2500));

  std::cout << "=== Ablation: PMEM internal buffer (Listing 1, 2 threads, "
               "1KB elements) ===\n\n";

  TextTable t({"buffer_blocks", "amp_base", "amp_clean", "clean_speedup"});
  double amp_smallest = 0.0;
  double amp_largest = 0.0;
  for (const uint32_t blocks : {4u, 16u, 64u, 256u, 1024u}) {
    MachineConfig cfg = MachineA(2);
    cfg.target.internal_buffer_blocks = blocks;
    const auto base = RunListing1(cfg, 2, 1024, false, iters);
    const auto clean = RunListing1(cfg, 2, 1024, true, iters);
    t.AddRow(blocks, base.amplification, clean.amplification,
             static_cast<double>(base.cycles) / clean.cycles);
    if (blocks == 4) {
      amp_smallest = base.amplification;
    }
    amp_largest = base.amplification;
  }
  t.Print(std::cout);

  // The ablation's claim: a larger buffer coalesces more of the scattered
  // writebacks, so baseline amplification falls from 4 to 1024 blocks.
  const bool ok = amp_largest < amp_smallest;
  std::cout << "\nacceptance: amp_base falls from 4 to 1024 blocks ("
            << amp_smallest << "x -> " << amp_largest << "x): "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
