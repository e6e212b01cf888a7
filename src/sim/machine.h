// The simulated machine: address space, devices, shared LLC, coherence.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/core.h"
#include "src/sim/device.h"
#include "src/sim/hooks.h"
#include "src/trace/trace.h"
#include "src/util/hugepage.h"

namespace prestore {

// The two address regions. Workloads place their data in kTarget (the memory
// under study: PMEM on Machine A, FPGA memory on Machine B); kDram exists for
// completeness and for data the paper keeps in ordinary memory.
enum class Region : uint8_t {
  kDram,
  kTarget,
};

// Shared-hierarchy event counters. The machine keeps one set per core
// (attributed to the core whose access caused the event);
// Machine::hierarchy_stats() returns their sum.
struct MachineStats {
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;
  uint64_t llc_evictions = 0;
  uint64_t back_invalidations = 0;  // L1 lines stripped by LLC
  uint64_t interventions = 0;       // dirty-owner snoops
  uint64_t wbq_stall_cycles = 0;    // writeback-queue waits
  uint64_t dir_upgrades = 0;        // far-memory dir round trips
};


class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  Core& core(uint32_t i) { return *cores_[i]; }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  Device& dram() { return *dram_; }
  Device& target() { return *target_; }
  Device& DeviceFor(SimAddr addr) {
    return addr >= kTargetBase ? *target_ : *dram_;
  }

  // ---- Address space ----

  // Bump-allocates `bytes` in the given region, aligned to `align` (default:
  // one cache line, to keep separately allocated objects conflict-free).
  SimAddr Alloc(uint64_t bytes, Region region = Region::kTarget,
                uint64_t align = 0);

  uint8_t* HostPtr(SimAddr addr) {
    return addr >= kTargetBase
               ? target_backing_.data() + (addr - kTargetBase)
               : dram_backing_.data() + (addr - kDramBase);
  }
  const uint8_t* HostPtr(SimAddr addr) const {
    return const_cast<Machine*>(this)->HostPtr(addr);
  }

  // ---- Tracing & symbolization ----

  FunctionRegistry& registry() { return registry_; }
  // Install/clear the trace sink. Each core caches the pointer (refreshed
  // here), so its per-op emit check is one plain load instead of a pointer
  // chase through the machine.
  void SetTraceSink(TraceSink* sink) {
    sink_ = sink;
    RefreshCoreFastPaths();
  }
  TraceSink* trace_sink() const { return sink_; }

  // ---- Robustness hooks (install before a measured run; not thread-safe
  // against running cores; hooks must outlive the run) ----

  // Installs a device-side fault hook on both devices (nullptr clears).
  void SetDeviceFaultHook(DeviceFaultHook* hook) {
    dram_->SetFaultHook(hook);
    target_->SetFaultHook(hook);
  }

  // Registers a pre-store issue-path hook (fault injector, governor, ...).
  // A hint issues only if every registered hook allows it.
  void AddPrestoreHook(PrestoreHook* hook) {
    prestore_hooks_.push_back(hook);
    RefreshCoreFastPaths();
  }
  void ClearPrestoreHooks() {
    prestore_hooks_.clear();
    RefreshCoreFastPaths();
  }
  const std::vector<PrestoreHook*>& prestore_hooks() const {
    return prestore_hooks_;
  }

  // Installs (or clears, with nullptr) the single sampled-access observer
  // (src/monitor). Same contract as the pre-store hooks: install with cores
  // quiesced, hook outlives the run. Disables analytical fast-forward while
  // installed (Core::FastForwardOps bails — observed runs see every op).
  void SetAccessSampleHook(AccessSampleHook* hook) {
    access_sampler_ = hook;
    RefreshCoreFastPaths();
  }
  AccessSampleHook* access_sample_hook() const { return access_sampler_; }

  // ---- Execution (DESIGN.md §12) ----
  //
  // At most one host thread drives the machine at any instant: a single
  // caller, SimScheduler's slices, or the baton runner's bodies (baton.h),
  // which hand over with release/acquire. The engine therefore keeps its
  // state in plain fields with no locks.

  // Analytical fast-forward (Core::FastForwardOps) enable; default on.
  // Turning it off forces every replay op down the full timing path — the
  // fast-forward equivalence tests compare the two. Toggle only while no
  // cores are running.
  void SetAnalyticalFastForward(bool on) {
    fast_forward_ = on;
    RefreshCoreFastPaths();
  }
  bool fast_forward_enabled() const { return fast_forward_; }

  // ---- Measurement helpers ----

  // Aligns every core's local clock to the global maximum (start of a
  // measured phase) and returns that time.
  uint64_t AlignCores();
  uint64_t GlobalTime() const;
  void ResetStats();

  // Retires all queued device work (interface and media meters), modeling
  // the idle gap every real experiment leaves between its load phase and
  // its measurement window. Pair with FlushAll + ResetStats when a run's
  // latency numbers must not inherit the preload's eviction backlog.
  void QuiesceDevices() {
    dram_->Quiesce();
    target_->Quiesce();
  }

  // Publishes all private stores, writes every dirty line back and drains
  // device buffers, so that media-byte accounting covers all traffic.
  void FlushAll();

  // ---- Coherence (called by Core) ----

  enum class AccessMode : uint8_t { kRead, kWrite, kDemote };

  // Ensures `line_addr` is present in the LLC with the coherence state the
  // mode requires, charging directory/device costs. `streamed` applies the
  // sequential-stream latency discount (hardware-prefetch stand-in).
  // `incoming_dirty` is used by kDemote to push modified data down.
  uint64_t LlcAccess(uint8_t self, uint64_t line_addr, AccessMode mode,
                     uint64_t start, bool streamed = false,
                     bool incoming_dirty = false);

  // Makes a private store globally visible: line ends up Modified in core
  // `self`'s L1. Returns completion time. (The §4.2 "publication" cost.)
  uint64_t PublishLine(uint8_t self, uint64_t line_addr, uint64_t start);

  // Demote pre-store: publication straight into the LLC; the L1 copy (if
  // any) moves down with its dirtiness.
  uint64_t PublishLineDemote(uint8_t self, uint64_t line_addr, uint64_t start);

  // Clean pre-store: write the line's dirty data (wherever it is) back to
  // its device, keeping it cached. Returns writeback completion (== start
  // when nothing was dirty).
  uint64_t CleanLine(uint8_t self, uint64_t line_addr, uint64_t start);

  // Invalidate the line everywhere (non-temporal store path). Dirty data is
  // dropped from the timing model (the NT store supersedes it functionally).
  void InvalidateLine(uint8_t self, uint64_t line_addr);

  // Handles a dirty line evicted from an L1: merge into LLC or write through
  // to the device. Inline: runs on every L1 fill whose victim was valid,
  // which a miss-dominated stream makes nearly every op.
  void L1VictimWriteback(uint8_t self, uint64_t line_addr, bool dirty,
                         uint64_t now) {
    CacheLineMeta* meta = ShardFor(line_addr).cache->Probe(line_addr);
    if (meta != nullptr) {
      meta->sharers &= ~(1ULL << self);
      if (meta->owner == self) {
        meta->owner = kNoOwner;
      }
      if (dirty) {
        meta->dirty = true;
      }
      return;
    }
    // Dirty victim with no LLC copy: write it through to memory.
    if (dirty) {
      DeviceFor(line_addr).Write(line_addr, config_.line_size, now);
    }
  }

  // ---- Analytical fast path (Core::FastForwardOps) ----

  // Outcome of the inline LLC probe below: the access either committed as
  // a reduced hit (kHit), is a genuine LLC miss the caller may commit
  // analytically via FastLlcMiss (kMiss), or needs the full coherence
  // protocol (kBail — intervention, snoop, or far-memory directory work).
  enum class FastLlc : uint8_t { kHit, kMiss, kBail };

  // Tries to charge an LLC hit analytically. Eligible iff the line is
  // LLC-resident with no FOREIGN Modified owner and, for kWrite, no
  // foreign sharers and a non-far backing device — exactly the cases where
  // LlcAccess's hit path reduces to {replacement touch, llc_hits bump, hit
  // latency, directory update} with no snoop, intervention, or device
  // work. On kHit commits that reduced hit path bit-exactly and writes
  // the completion time (start + LLC hit latency) to `completion`. On
  // kMiss/kBail mutates nothing but the set's way hint, so the caller
  // (FastLlcMiss on kMiss, the full LlcAccess on kBail) replays the access
  // from a bit-identical machine. Inline because it runs for nearly every
  // L1 miss of a fast-forwarded replay.
  FastLlc TryFastLlcHit(uint8_t self, uint64_t line_addr, AccessMode mode,
                        uint64_t start, uint64_t* completion) {
    SetAssocCache& llc = *ShardFor(line_addr).cache;
    CacheLineMeta* meta = llc.Probe(line_addr);
    if (meta == nullptr) {
      return FastLlc::kMiss;  // device read + insert + possible eviction
    }
    if (meta->owner != kNoOwner && meta->owner != self) {
      return FastLlc::kBail;  // foreign Modified owner: intervention
    }
    if (mode == AccessMode::kWrite) {
      if ((meta->sharers & ~(1ULL << self)) != 0) {
        return FastLlc::kBail;  // foreign sharers: snoop + back-invalidation
      }
      if (meta->owner != self &&
          DeviceFor(line_addr).config().kind == DeviceKind::kFarMemory) {
        return FastLlc::kBail;  // upgrade needs the on-device directory
      }
    }
    // Same replacement touch LlcAccess's first probe performs (the probe
    // above left the way hint at the line, so the tag scan is one
    // compare), then the hit path's accounting and directory update, minus
    // the branches just proven dead.
    llc.Touch(line_addr);
    ++hstats_[self].llc_hits;
    ApplyAccessMode(meta, self, mode, /*incoming_dirty=*/false);
    *completion = start + config_.llc.hit_latency;
    return FastLlc::kHit;
  }

  // Whether a TryFastLlcHit kMiss may be committed analytically by
  // FastLlcMiss. Bails on the two miss-path hazards whose costs the
  // analytical leg does not model: an installed device fault hook (whose
  // time-varying multipliers belong to observed robustness runs, not
  // fast-forwarded ones) and far-memory writes (whose misses pay a
  // pre-read DirectoryAccess plus a dir_upgrades bump).
  bool FastMissEligible(uint64_t line_addr, bool is_write) {
    Device& dev = DeviceFor(line_addr);
    if (dev.HasFaultHook()) {
      return false;
    }
    if (is_write && dev.config().kind == DeviceKind::kFarMemory) {
      return false;
    }
    return true;
  }

  // Commits a genuine LLC miss analytically: the exact LlcAccess miss
  // sequence — device read, stream discount, miss accounting, insert,
  // victim handling, directory update, eviction writeback — minus the
  // branches FastMissEligible and the single driving thread prove dead:
  //   * the re-probe after the device read is a guaranteed re-miss: the
  //     failed Touch in TryFastLlcHit mutated nothing and no other core
  //     ran, so the line cannot have appeared;
  //   * far-write directory work is excluded by FastMissEligible.
  // A dirty victim's device Write still happens HERE, in program order at
  // the access start (XPBuffer state is order-sensitive); only the
  // bounded-queue admission bookkeeping joins the core's deferred train,
  // and only when CanDeferEvictionWriteback proves the per-line path would
  // have returned `start` with no stall bump (see core.h). The caller
  // checked FastMissEligible.
  uint64_t FastLlcMiss(uint8_t self, uint64_t line_addr, AccessMode mode,
                       uint64_t start, bool streamed) {
    Device& dev = DeviceFor(line_addr);
    SetAssocCache& llc = *ShardFor(line_addr).cache;
    const uint64_t read_done = dev.Read(line_addr, config_.line_size, start);
    uint64_t t =
        StreamDiscount(start, read_done, dev.config().read_latency, streamed);
    ++hstats_[self].llc_misses;
    CacheLineMeta* meta = nullptr;
    const SetAssocCache::Victim victim = llc.Insert(line_addr, false, &meta);
    const bool wb_owed = HandleLlcVictim(self, victim);
    ApplyAccessMode(meta, self, mode, /*incoming_dirty=*/false);
    if (wb_owed) {
      Core& core = *cores_[self];
      if (core.CanDeferEvictionWriteback()) {
        const uint64_t acceptance = DeviceFor(victim.line_addr)
                                        .Write(victim.line_addr,
                                               config_.line_size, start);
        core.DeferEvictionWriteback(acceptance, start);
      } else {
        core.FlushEvictionTrain();
        t = std::max(t,
                     FinishEvictionWriteback(self, victim.line_addr, start));
      }
    }
    return t;
  }

  // Host-side prefetch of the simulator structures a near-future replay op
  // will touch: the line's LLC tag/meta set arrays and its backing host
  // data. Pure hardware hint — mutates no simulated state, so issuing it
  // for any address (even one the op stream later skips) cannot change a
  // result. The replay fast path calls this a fixed distance ahead of the
  // op cursor because the engine is host-cache-miss-bound on exactly these
  // arrays once the simulated working set outgrows the host LLC.
  // `deep` selects the miss-oriented variant (PrefetchSetAll): a miss-leg
  // op additionally walks the full tag array and the victim's meta record,
  // none of which the hinted two-line prefetch covers. Callers flip it on
  // when their recent op stream has been miss-dominated, and must have
  // issued PrefetchHeadersForAccess for the line a beat earlier (the deep
  // variant reads the set header to predict the victim).
  // `host_data` additionally warms the line's backing host bytes — wanted
  // only for ops that will actually read or write them (stores; loads are
  // timing-only in the replay fast path), so callers can skip a whole
  // wasted host-memory fetch per load.
  void PrefetchForAccess(uint64_t line_addr, bool deep, bool host_data) {
    if (deep) {
      ShardFor(line_addr).cache->PrefetchSetAll(line_addr);
    } else {
      ShardFor(line_addr).cache->PrefetchSet(line_addr);
    }
    if (host_data) {
      __builtin_prefetch(HostPtr(line_addr), 1, 1);
    }
  }

  // First stage of the two-distance prefetch pipeline: pure address
  // arithmetic, reads no simulator state, so it can run arbitrarily far
  // ahead of the op cursor without stalling on cold lines.
  void PrefetchHeadersForAccess(uint64_t line_addr) {
    ShardFor(line_addr).cache->PrefetchSetHeader(line_addr);
  }

  uint64_t LineBaseOf(SimAddr addr) const {
    return LineBase(addr, config_.line_size);
  }

  // Non-mutating residency probe against the (inclusive) LLC. Used by the
  // rewrite-after-clean detector: a rewrite wastes the clean's writeback
  // only while the line is still cached (absent the clean the dirty data
  // would have coalesced); a long-evicted line owed its writeback anyway.
  bool LlcResident(uint64_t line_addr) {
    return ShardFor(line_addr).cache->Peek(line_addr) != nullptr;
  }

  // LlcResident plus the line's dirtiness — the region monitor's
  // once-per-region-per-interval pull probe. Non-mutating (no replacement
  // touch, no way-hint update, no stats — hence Peek); `*dirty` is written
  // only on residency.
  bool LlcProbe(uint64_t line_addr, bool* dirty) {
    const CacheLineMeta* meta = ShardFor(line_addr).cache->Peek(line_addr);
    if (meta == nullptr) {
      return false;
    }
    *dirty = meta->dirty;
    return true;
  }

  // Bytes bump-allocated in the target region so far. Lets callers (e.g. a
  // whole-workload region monitor) cover exactly the allocated target span
  // [kTargetBase, kTargetBase + target_allocated()).
  uint64_t target_allocated() const { return target_brk_; }

  // Sum of the per-core counters.
  MachineStats hierarchy_stats() const {
    MachineStats out;
    for (const MachineStats& s : hstats_) {
      out.llc_hits += s.llc_hits;
      out.llc_misses += s.llc_misses;
      out.llc_evictions += s.llc_evictions;
      out.back_invalidations += s.back_invalidations;
      out.interventions += s.interventions;
      out.wbq_stall_cycles += s.wbq_stall_cycles;
      out.dir_upgrades += s.dir_upgrades;
    }
    return out;
  }

  // Sorted addresses of every line currently valid in the LLC. Diagnostics
  // and determinism digests only — call when no cores are running.
  std::vector<uint64_t> LlcValidLines() const;

 private:
  // One LLC shard: every kNumShards-th set of the logical LLC, with its own
  // replacement state. The shard of global set g is g % kNumShards; each
  // shard's per-set RNG is drawn in global set order, so the sharded LLC
  // makes the same decisions a monolithic one would.
  struct LlcShard {
    std::unique_ptr<SetAssocCache> cache;
  };

  size_t LlcShardIndexOf(uint64_t line_addr) const {
    const uint64_t frame = line_addr >> llc_line_shift_;
    const uint64_t g = llc_set_mask_ != 0 ? (frame & llc_set_mask_)
                                          : llc_set_mod_.Mod(frame);
    return g & (kNumShards - 1);
  }
  LlcShard& ShardFor(uint64_t line_addr) {
    return llc_shards_[LlcShardIndexOf(line_addr)];
  }

  // Streamed (sequential) misses hide most of the device access time
  // behind the previous transfers, standing in for hardware stride
  // prefetching: the prefetcher issued this fetch several lines ago, so
  // both the device latency and most of its queueing are already absorbed.
  // The device meter still carries the full work (bandwidth is conserved);
  // only the streaming requester's experienced wait shrinks. Shared by
  // LlcAccess (machine.cc) and the inline FastLlcMiss above.
  static uint64_t StreamDiscount(uint64_t start, uint64_t completion,
                                 uint32_t read_latency, bool streamed) {
    if (!streamed || completion <= start) {
      return completion;
    }
    const uint64_t total = completion - start;
    const uint64_t floor = read_latency / 8 + 1;
    const uint64_t discounted = total / 4 > floor ? total / 4 : floor;
    return discounted < total ? start + discounted : completion;
  }

  // Directory update for the access mode; the final step of every LLC
  // access once the coherence protocol has run.
  static void ApplyAccessMode(CacheLineMeta* meta, uint8_t self,
                                    AccessMode mode, bool incoming_dirty) {
    switch (mode) {
      case AccessMode::kRead:
        meta->sharers |= 1ULL << self;
        break;
      case AccessMode::kWrite:
        meta->sharers = 1ULL << self;
        meta->owner = self;
        break;
      case AccessMode::kDemote:
        meta->sharers &= ~(1ULL << self);
        meta->owner = kNoOwner;
        meta->dirty = meta->dirty || incoming_dirty;
        break;
    }
  }

  // Hit-path coherence protocol: hit accounting, intervention on a
  // Modified owner, snoop of other sharers on non-read access, the
  // far-memory directory upgrade, and the mode's directory update. Shared by
  // the first probe and the post-miss re-probe so a line a device fault hook
  // filled during the miss's device read gets the identical treatment.
  // Returns the access completion time.
  uint64_t LlcHit(uint8_t self, uint64_t line_addr, AccessMode mode,
                  bool incoming_dirty, Device& dev, bool far,
                  CacheLineMeta* meta, uint64_t t);

  // Handles an LLC victim: back-invalidates L1 copies and accounts the
  // eviction. Returns true when a dirty writeback is owed; the caller
  // performs it via FinishEvictionWriteback once the insert is complete.
  bool HandleLlcVictim(uint8_t self, const SetAssocCache::Victim& victim);

  // Issues an eviction writeback to the victim's device. Returns the time
  // the evicting access of core `self` may proceed: eviction writebacks go
  // through the core's bounded writeback queue, so a device that has fallen
  // behind stalls the cache (without this, deferred eviction traffic would
  // be free and the §4.1 write amplification could never cost baseline
  // runtime).
  uint64_t FinishEvictionWriteback(uint8_t self, uint64_t line_addr,
                                   uint64_t now);

  void RefreshCoreFastPaths();

  static constexpr size_t kNumShards = 64;

  MachineConfig config_;
  std::unique_ptr<Device> dram_;
  std::unique_ptr<Device> target_;

  std::vector<LlcShard> llc_shards_;
  uint64_t llc_global_sets_ = 0;
  uint64_t llc_set_mask_ = 0;  // llc_global_sets_ - 1 when pow2, else 0
  // Remainder by llc_global_sets_ for the non-power-of-two fallback (same
  // magic-multiply trick as SetAssocCache::GlobalSetOf).
  ModReciprocal llc_set_mod_;
  uint32_t llc_line_shift_ = 0;

  std::vector<std::unique_ptr<Core>> cores_;

  // Demand-zero host memory behind the two regions: construction is O(1)
  // and resident memory grows only with the bytes the simulation touches.
  DemandZeroArena dram_backing_;
  DemandZeroArena target_backing_;
  uint64_t dram_brk_ = 0;
  uint64_t target_brk_ = 0;

  std::vector<MachineStats> hstats_;  // shared-hierarchy counters per core
  FunctionRegistry registry_;
  TraceSink* sink_ = nullptr;
  std::vector<PrestoreHook*> prestore_hooks_;
  AccessSampleHook* access_sampler_ = nullptr;
  bool fast_forward_ = true;
};

}  // namespace prestore

#endif  // SRC_SIM_MACHINE_H_
