// Configuration of the cycle-approximate machine simulator, plus presets for
// the paper's two evaluation platforms (§3).
#ifndef SRC_SIM_CONFIG_H_
#define SRC_SIM_CONFIG_H_

#include <cstdint>
#include <string>

namespace prestore {

// Cache replacement policies. The paper (§4.1) stresses that real caches do
// NOT implement strict LRU: Intel LLCs use a pseudo-LRU with quasi-random
// evictions, ARM caches mix LRU / FIFO / random. kQuadAge approximates the
// Intel behaviour (2-bit ages, random choice among oldest).
enum class ReplacementPolicy : uint8_t {
  kLru,
  kTreePlru,
  kRandom,
  kFifo,
  kQuadAge,
};

// ---- SetBlock layout (src/sim/cache.h, DESIGN.md §14) ----
// SetAssocCache stores each set as ONE contiguous, kSetBlockAlign-aligned
// block: a fixed scalar header (PLRU bits, stamp counter, RNG state, way
// hint, valid count), the packed way tags (8 B per way), the packed
// replacement ages (1 B per way — kQuadAge victim scans never leave the
// header), padding up to the alignment, then the per-way CacheLineMeta
// records (32 B per way — static_asserted against sizeof(CacheLineMeta) in
// cache.h). The sizes are published here so CacheConfig::Validate can
// reject geometries whose block would blow the per-set budget before a
// cache is ever built.
inline constexpr uint64_t kSetBlockAlign = 64;
inline constexpr uint64_t kSetBlockScalarBytes = 32;
inline constexpr uint64_t kSetBlockTagBytes = 8;
inline constexpr uint64_t kSetBlockAgeBytes = 1;
inline constexpr uint64_t kSetBlockMetaBytes = 32;
// One host page per set block. Anything larger defeats the point of the
// layout (a lookup should touch one or two host lines, not a page walk).
inline constexpr uint64_t kSetBlockMaxBytes = 4096;

constexpr uint64_t SetBlockAlignUp(uint64_t v) {
  return (v + kSetBlockAlign - 1) & ~(kSetBlockAlign - 1);
}
// Byte offset of the CacheLineMeta array inside a SetBlock.
constexpr uint64_t SetBlockHeaderBytes(uint32_t ways) {
  return SetBlockAlignUp(kSetBlockScalarBytes +
                         (kSetBlockTagBytes + kSetBlockAgeBytes) * ways);
}
// Total bytes of one SetBlock (also the stride between consecutive sets).
constexpr uint64_t SetBlockBytes(uint32_t ways) {
  return SetBlockAlignUp(SetBlockHeaderBytes(ways) + kSetBlockMetaBytes * ways);
}

struct CacheConfig {
  uint64_t size_bytes = 0;
  uint32_t ways = 8;
  uint32_t line_size = 64;
  uint32_t hit_latency = 4;  // cycles
  ReplacementPolicy policy = ReplacementPolicy::kLru;

  uint64_t NumSets() const {
    return size_bytes / (static_cast<uint64_t>(ways) * line_size);
  }

  // Throws std::invalid_argument (message prefixed with `what`) if the
  // geometry is unusable: line_size must be a nonzero power of two, the
  // SetBlock for `ways` must fit kSetBlockMaxBytes, ways in [1, 64]
  // (kQuadAge victim selection keeps one candidate slot per way in a fixed
  // 64-entry buffer; more ways would silently overflow it), kTreePlru needs
  // power-of-two ways, and the cache must hold at least one set.
  void Validate(const char* what) const;
};

// The simulated address map: the DRAM region starts at kDramBase and the
// target region at kTargetBase. Machine::HostPtr and Machine::DeviceFor
// route an address by comparing it with kTargetBase.
inline constexpr uint64_t kDramBase = 0x10000;
inline constexpr uint64_t kTargetBase = 1ULL << 32;

enum class DeviceKind : uint8_t {
  kDram,
  kPmem,       // Optane-like: internal write granularity > CPU line size
  kFarMemory,  // CXL / cache-coherent FPGA: long latency, directory on device
};

struct DeviceConfig {
  DeviceKind kind = DeviceKind::kDram;
  std::string name = "dram";
  uint64_t capacity = 1ULL << 30;

  uint32_t read_latency = 80;   // cycles until first data
  uint32_t write_latency = 80;  // cycles to accept a write into device buffers
  double cycles_per_byte = 0.04;  // interface bandwidth (reservation model)

  // kPmem only: internal write-combining buffer in front of the media.
  // 64B cache-line writebacks that land in a buffered 256B block coalesce;
  // buffer evictions write a full internal block to the media (the source of
  // write amplification, §4.1).
  uint32_t internal_block_size = 256;
  // Per-DIMM write-combining slots (the XPBuffer of one module).
  uint32_t internal_buffer_blocks = 8;
  // Address interleaving across modules: sequential streams stay within one
  // module's buffer for an interleave unit; scattered traffic thrashes all.
  uint32_t interleave_dimms = 8;
  uint32_t interleave_bytes = 4096;
  double media_cycles_per_byte = 0.45;  // media write bandwidth
  // Media read bandwidth: Optane media reads are ~3x faster than writes.
  // 0 = derive as media_cycles_per_byte / 3.
  double media_read_cycles_per_byte = 0.0;

  // kFarMemory only: cost of a cache-directory access. The paper (§4.2)
  // observes that the directory for device-backed lines lives on the device
  // itself, so every line-state change pays device latency.
  uint32_t directory_latency = 60;

  // Selects the preserved pre-rework device implementation (linear XPBuffer
  // scan, eager per-DIMM backlog walk, per-line writeback trains — see
  // src/sim/reference_device.h) instead of the indexed fast path. The two
  // must produce bit-identical machine digests; equivalence suites and the
  // tier-1 miss-heavy smoke run both and compare. Reference-path runs also
  // disable the analytical fast-forward at the call sites that honor this
  // flag (sim_throughput_cli --device-path=reference), giving a fully
  // interpreted A/B baseline.
  bool reference_impl = false;

  // Throws std::invalid_argument (message prefixed with `what`) for a PMEM
  // geometry the device model cannot honour: internal_block_size must be
  // in [1, kMaxPmemBlockBytes] (the per-block written-line mask holds one
  // bit per 64B line), interleave_bytes nonzero, and internal_buffer_blocks
  // in [1, kMaxPmemBufferBlocks]. Other device kinds have no such fields.
  void Validate(const char* what) const;
};

// Largest PMEM internal block: PmemDevice tracks which 64B lines of a
// buffered block were written in an 8-bit mask.
inline constexpr uint32_t kMaxPmemBlockBytes = 8 * 64;
// Largest PMEM write-combining buffer per DIMM. The slot index has no
// narrower limit; this one bounds the host memory a config can ask for
// (and the O(capacity) victim scan) at a size far past any real XPBuffer.
inline constexpr uint32_t kMaxPmemBufferBlocks = 1u << 16;

// How the core drains its store buffer (private write buffers, §4.2).
enum class StoreDrainPolicy : uint8_t {
  // x86/TSO-like: stores become globally visible eagerly, in the background.
  kEagerTso,
  // Weakly-ordered ARM-like: stores stay private until capacity pressure, a
  // pre-store, or a fence/atomic forces publication.
  kLazyWeak,
};

struct MachineConfig {
  std::string name = "machine";
  uint32_t num_cores = 4;
  uint32_t line_size = 64;
  uint64_t seed = 42;

  CacheConfig l1;
  CacheConfig llc;

  uint32_t store_buffer_entries = 56;
  uint32_t wc_buffer_entries = 12;       // write-combining slots for clean/NT
  uint32_t max_background_ops = 16;      // outstanding async publications
  uint32_t fence_drain_parallelism = 4;  // overlapping publications at a fence
  uint32_t snoop_latency = 30;           // cross-core L1 intervention cost
  uint32_t atomic_latency = 15;          // execution cost of an atomic op
  StoreDrainPolicy drain = StoreDrainPolicy::kEagerTso;

  DeviceConfig dram;
  DeviceConfig target;  // the "interesting" memory under the caches

  // Capacities of the two address regions (backing host buffers).
  uint64_t dram_region_bytes = 64ULL << 20;
  uint64_t target_region_bytes = 512ULL << 20;

  // Throws std::invalid_argument for a machine the simulator cannot build
  // faithfully: num_cores in [1, 64] (L1 sharer sets are 64-bit masks), both
  // caches valid (CacheConfig::Validate) with the machine's line size, both
  // devices valid (DeviceConfig::Validate), both regions nonempty, and the
  // DRAM region no larger than kTargetBase - kDramBase, so that no DRAM
  // address reaches the target region's base. The Machine constructor calls
  // this in every build type.
  void Validate() const;
};

// Machine A (§3): 2-socket Xeon Gold 6230 + Optane NV-DIMMs. The CPU caches
// at 64B granularity; the PMEM internally writes 256B blocks. Cache sizes are
// scaled down ~8x from the real part so that benchmark working sets (also
// scaled) keep the same cache-to-working-set ratios while simulating fast.
MachineConfig MachineA(uint32_t num_cores = 10);

// Machine B (§3): Enzian — 48-core ThunderX-1 (128B cache lines, weak memory
// model) in front of cache-coherent FPGA memory. Two latency configurations.
MachineConfig MachineBFast(uint32_t num_cores = 10);
MachineConfig MachineBSlow(uint32_t num_cores = 10);

// Extension (Table 1): Machine A with a CXL-SSD-like target instead of
// PMEM — 512B internal blocks (current CXL SSD technology), higher latency,
// lower media bandwidth. The write-amplification ceiling doubles to 8x.
MachineConfig MachineACxlSsd(uint32_t num_cores = 10);

}  // namespace prestore

#endif  // SRC_SIM_CONFIG_H_
