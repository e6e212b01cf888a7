#include "src/sim/machine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace prestore {

namespace {

const MachineConfig& Validated(const MachineConfig& config) {
  config.Validate();
  return config;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(Validated(config)),
      dram_(MakeDevice(config.dram)),
      target_(MakeDevice(config.target)),
      dram_backing_(config.dram_region_bytes),
      target_backing_(config.target_region_bytes) {
  // The LLC is kNumShards independent sub-caches; global set g lives in
  // shard g % kNumShards. The per-shard SetAssocCache draws its sets'
  // replacement RNG from the shared global-set-order stream, so the sharded
  // LLC makes bit-identical decisions to the monolithic one it replaced.
  llc_shards_ = std::vector<LlcShard>(kNumShards);
  for (size_t s = 0; s < kNumShards; ++s) {
    llc_shards_[s].cache = std::make_unique<SetAssocCache>(
        config.llc, config.seed ^ 0x11c, s, kNumShards);
  }
  llc_global_sets_ = llc_shards_[0].cache->global_sets();
  llc_set_mask_ = (llc_global_sets_ & (llc_global_sets_ - 1)) == 0
                      ? llc_global_sets_ - 1
                      : 0;
  llc_set_mod_ = ModReciprocal(llc_global_sets_);
  for (uint32_t ls = config_.llc.line_size; ls > 1; ls >>= 1) {
    ++llc_line_shift_;
  }
  hstats_.resize(config_.num_cores);
  cores_.reserve(config_.num_cores);
  for (uint32_t i = 0; i < config_.num_cores; ++i) {
    cores_.push_back(
        std::make_unique<Core>(this, static_cast<uint8_t>(i), config_));
  }
}

Machine::~Machine() = default;

void Machine::RefreshCoreFastPaths() {
  for (auto& c : cores_) {
    c->RefreshFastPathFlags();
  }
}

SimAddr Machine::Alloc(uint64_t bytes, Region region, uint64_t align) {
  if (align == 0) {
    align = config_.line_size;
  }
  uint64_t& brk = region == Region::kTarget ? target_brk_ : dram_brk_;
  const uint64_t limit = region == Region::kTarget ? target_backing_.size()
                                                   : dram_backing_.size();
  const uint64_t start = (brk + align - 1) & ~(align - 1);
  if (start + bytes > limit) {
    std::fprintf(stderr, "simulated %s region exhausted (%llu + %llu > %llu)\n",
                 region == Region::kTarget ? "target" : "dram",
                 static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(limit));
    std::abort();
  }
  brk = start + bytes;
  return (region == Region::kTarget ? kTargetBase : kDramBase) + start;
}

uint64_t Machine::GlobalTime() const {
  uint64_t t = 0;
  for (const auto& c : cores_) {
    t = std::max(t, c->now());
  }
  return t;
}

uint64_t Machine::AlignCores() {
  const uint64_t t = GlobalTime();
  for (auto& c : cores_) {
    c->SetNow(t);
  }
  return t;
}

void Machine::ResetStats() {
  std::fill(hstats_.begin(), hstats_.end(), MachineStats{});
  dram_->ResetStats();
  target_->ResetStats();
  for (auto& c : cores_) {
    c->ResetStats();
  }
}

// Back-invalidates the victim's L1 sharers and accounts the eviction.
// Returns true when a dirty writeback is owed (the caller issues it through
// FinishEvictionWriteback).
bool Machine::HandleLlcVictim(uint8_t self,
                              const SetAssocCache::Victim& victim) {
  if (!victim.valid) {
    return false;
  }
  ++hstats_[self].llc_evictions;
  bool dirty = victim.dirty;
  uint64_t sharers = victim.sharers;
  while (sharers != 0) {
    const int s = __builtin_ctzll(sharers);
    sharers &= sharers - 1;
    CacheLineMeta was;
    if (cores_[s]->l1().Remove(victim.line_addr, &was)) {
      ++hstats_[self].back_invalidations;
      if (was.dirty) {
        dirty = true;
      }
    }
  }
  return dirty;
}

uint64_t Machine::FinishEvictionWriteback(uint8_t self, uint64_t line_addr,
                                          uint64_t now) {
  // Eviction writeback: off the evicting core's critical path while its
  // bounded writeback queue has room; once the device falls behind, the
  // evicting access stalls (the backpressure behind Figure 3).
  const uint64_t acceptance =
      DeviceFor(line_addr).Write(line_addr, config_.line_size, now);
  const uint64_t proceed = cores_[self]->NoteEvictionWriteback(acceptance, now);
  if (proceed > now) {
    hstats_[self].wbq_stall_cycles += proceed - now;
  }
  return proceed;
}

uint64_t Machine::LlcHit(uint8_t self, uint64_t line_addr, AccessMode mode,
                         bool incoming_dirty, Device& dev, bool far,
                         CacheLineMeta* meta, uint64_t t) {
  ++hstats_[self].llc_hits;
  t += config_.llc.hit_latency;
  const uint8_t prev_owner = meta->owner;
  if (prev_owner != kNoOwner && prev_owner != self) {
    // Another core's L1 holds the line Modified: intervene.
    ++hstats_[self].interventions;
    t += config_.snoop_latency;
    Core& owner = *cores_[prev_owner];
    CacheLineMeta* ol = owner.l1().Probe(line_addr);
    if (mode == AccessMode::kRead) {
      if (ol != nullptr) {
        ol->dirty = false;
        ol->exclusive = false;
      }
    } else {
      if (ol != nullptr) {
        owner.l1().Remove(line_addr);
      }
      meta->sharers &= ~(1ULL << prev_owner);
    }
    meta->dirty = true;  // modified data is now at the LLC level
    meta->owner = kNoOwner;
  }
  if (mode != AccessMode::kRead) {
    uint64_t others = meta->sharers & ~(1ULL << self);
    if (others != 0) {
      t += config_.snoop_latency;
      while (others != 0) {
        const int s = __builtin_ctzll(others);
        others &= others - 1;
        cores_[s]->l1().Remove(line_addr);
        meta->sharers &= ~(1ULL << s);
      }
    }
    if (far && prev_owner != self) {
      // Line-state upgrade: the directory lives on the device (§4.2).
      t = dev.DirectoryAccess(t);
    }
  }
  ApplyAccessMode(meta, self, mode, incoming_dirty);
  return t;
}

uint64_t Machine::LlcAccess(uint8_t self, uint64_t line_addr, AccessMode mode,
                            uint64_t start, bool streamed,
                            bool incoming_dirty) {
  Device& dev = DeviceFor(line_addr);
  const bool far = dev.config().kind == DeviceKind::kFarMemory;
  uint64_t t = start;

  SetAssocCache& llc = *ShardFor(line_addr).cache;
  CacheLineMeta* meta = llc.Touch(line_addr);
  if (meta != nullptr) {
    return LlcHit(self, line_addr, mode, incoming_dirty, dev, far, meta, t);
  }

  // Miss: (for writes to far memory) directory update, then the line read.
  // Hit/miss accounting waits until the re-probe below settles which one
  // this is.
  if (mode != AccessMode::kRead && far) {
    t = dev.DirectoryAccess(t);
  }
  const uint64_t read_done = dev.Read(line_addr, config_.line_size, t);
  t = StreamDiscount(t, read_done, dev.config().read_latency, streamed);

  // Re-probe: a device fault hook runs inside the device read and may have
  // filled the line (a failed Touch mutates nothing, so an ordinary miss
  // re-misses with untouched state). A refilled line may carry a new
  // Modified owner or new sharers, so the access must run the full hit
  // protocol, exactly as if the first probe had hit; it is counted as a hit.
  // The device read (and, for far writes, the directory access) already
  // reserved its meter work and stays in `t`.
  meta = llc.Touch(line_addr);
  if (meta != nullptr) {
    return LlcHit(self, line_addr, mode, incoming_dirty, dev, far, meta, t);
  }
  ++hstats_[self].llc_misses;
  if (mode != AccessMode::kRead && far) {
    ++hstats_[self].dir_upgrades;
  }
  const SetAssocCache::Victim victim = llc.Insert(line_addr, false, &meta);
  const bool wb_owed = HandleLlcVictim(self, victim);
  ApplyAccessMode(meta, self, mode, incoming_dirty);
  if (wb_owed) {
    t = std::max(t, FinishEvictionWriteback(self, victim.line_addr, start));
  }
  return t;
}

uint64_t Machine::PublishLine(uint8_t self, uint64_t line_addr,
                              uint64_t start) {
  Core& core = *cores_[self];
  CacheLineMeta* meta = core.l1().Touch(line_addr);
  if (meta != nullptr && meta->exclusive) {
    meta->dirty = true;
    return start + 1;
  }
  const uint64_t t = LlcAccess(self, line_addr, AccessMode::kWrite, start);
  core.FillL1(line_addr, /*exclusive=*/true, /*dirty=*/true);
  return t;
}

uint64_t Machine::PublishLineDemote(uint8_t self, uint64_t line_addr,
                                    uint64_t start) {
  bool dirty = true;  // demoted data from the store buffer is modified
  CacheLineMeta was;
  if (cores_[self]->l1().Remove(line_addr, &was)) {
    dirty = was.dirty;
  }
  return LlcAccess(self, line_addr, AccessMode::kDemote, start,
                   /*streamed=*/false, /*incoming_dirty=*/dirty);
}

uint64_t Machine::CleanLine(uint8_t self, uint64_t line_addr, uint64_t start) {
  bool dirty = false;
  CacheLineMeta* l1_meta = cores_[self]->l1().Probe(line_addr);
  if (l1_meta != nullptr && l1_meta->dirty) {
    l1_meta->dirty = false;
    dirty = true;
  }
  CacheLineMeta* meta = ShardFor(line_addr).cache->Probe(line_addr);
  if (meta != nullptr) {
    if (meta->owner != kNoOwner && meta->owner != self) {
      CacheLineMeta* ol = cores_[meta->owner]->l1().Probe(line_addr);
      if (ol != nullptr && ol->dirty) {
        ol->dirty = false;
        dirty = true;
      }
    }
    if (meta->dirty) {
      meta->dirty = false;
      dirty = true;
    }
  }
  if (!dirty) {
    return start;  // cleaning a clean line costs (almost) nothing (§5)
  }
  return DeviceFor(line_addr).Write(line_addr, config_.line_size, start);
}

void Machine::InvalidateLine(uint8_t self, uint64_t line_addr) {
  SetAssocCache& llc = *ShardFor(line_addr).cache;
  CacheLineMeta* meta = llc.Probe(line_addr);
  if (meta != nullptr) {
    uint64_t sharers = meta->sharers;
    while (sharers != 0) {
      const int s = __builtin_ctzll(sharers);
      sharers &= sharers - 1;
      cores_[s]->l1().Remove(line_addr);
    }
    llc.Remove(line_addr);
  }
  cores_[self]->l1().Remove(line_addr);
}

std::vector<uint64_t> Machine::LlcValidLines() const {
  std::vector<uint64_t> lines;
  lines.reserve(llc_global_sets_ * config_.llc.ways);
  for (const LlcShard& shard : llc_shards_) {
    for (uint64_t line : shard.cache->ValidLines()) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void Machine::FlushAll() {
  for (auto& c : cores_) {
    c->Fence();
  }
  const uint64_t now = GlobalTime();
  // Collect the dirty lines per device, in walk order, and issue each
  // device's lines as one write train (Device::WriteTrain — the batched
  // clean-sweep charging path). Same-device write order is preserved
  // exactly — the L1 walks then the GLOBAL-set-order, way-minor LLC walk,
  // the order the per-line code issued — because PMEM write-combining
  // (XPBuffer LRU and coalescing) makes media-byte counters depend on it.
  // Splitting by device reorders only across devices, which commutes:
  // the two devices share no meter, buffer, or stats state, and every
  // write is issued at the same single timestamp `now`.
  std::vector<uint64_t> dram_lines;
  std::vector<uint64_t> target_lines;
  auto collect = [&](uint64_t line) {
    (line >= kTargetBase ? target_lines : dram_lines).push_back(line);
  };
  for (auto& c : cores_) {
    for (uint64_t line : c->l1().ValidLines()) {
      CacheLineMeta* meta = c->l1().Probe(line);
      if (meta->dirty) {
        meta->dirty = false;
        collect(line);
      }
    }
  }
  for (uint64_t g = 0; g < llc_global_sets_; ++g) {
    LlcShard& shard = llc_shards_[g & (kNumShards - 1)];
    const uint64_t local = g / kNumShards;
    if (local >= shard.cache->num_sets()) {
      continue;
    }
    CacheLineMeta* base = shard.cache->SetData(local);
    for (uint32_t w = 0; w < config_.llc.ways; ++w) {
      CacheLineMeta& meta = base[w];
      if (meta.valid && meta.dirty) {
        meta.dirty = false;
        collect(meta.line_addr);
      }
    }
  }
  dram_->WriteTrain(dram_lines.data(), dram_lines.size(), config_.line_size,
                    now);
  target_->WriteTrain(target_lines.data(), target_lines.size(),
                      config_.line_size, now);
  dram_->Drain();
  target_->Drain();
}

}  // namespace prestore
