#include "src/sim/core.h"

#include <algorithm>
#include <cassert>

#include "src/sim/baton.h"
#include "src/sim/machine.h"

namespace prestore {

namespace {
constexpr uint64_t kFenceIssueCost = 5;
constexpr uint64_t kStoreIssueCost = 1;
}  // namespace

Core::Core(Machine* machine, uint8_t id, const MachineConfig& config)
    : machine_(machine), id_(id), config_(config), l1_(config.l1, config.seed ^ (0x17ULL * id + 3)) {}

void Core::RefreshFastPathFlags() {
  sink_fast_ = machine_->trace_sink();
  has_hooks_ = !machine_->prestore_hooks().empty();
  fast_forward_ = machine_->fast_forward_enabled();
  AccessSampleHook* sampler = machine_->access_sample_hook();
  sampler_fast_ = sampler;
  const uint32_t period = sampler != nullptr ? sampler->SamplePeriod() : 0;
  if (period != sample_period_) {
    sample_period_ = period;
    sample_countdown_ = period;
  }
}

void Core::PushFunc(FuncToken token) {
  const uint32_t parent = cur_chain_;
  fstack_.push_back(token.id);
  chain_stack_.push_back(parent);
  const uint64_t key = (static_cast<uint64_t>(parent) << 32) | token.id;
  auto it = chain_cache_.find(key);
  if (it == chain_cache_.end()) {
    cur_chain_ = machine_->registry().InternChain(fstack_);
    chain_cache_.emplace(key, cur_chain_);
  } else {
    cur_chain_ = it->second;
  }
}

void Core::PopFunc() {
  assert(!fstack_.empty());
  fstack_.pop_back();
  cur_chain_ = chain_stack_.back();
  chain_stack_.pop_back();
}

// ---- Store buffer ----

bool Core::SbContains(uint64_t line_addr) const {
  return std::find(sb_.begin(), sb_.end(), line_addr) != sb_.end();
}

void Core::SbRemove(uint64_t line_addr) {
  auto it = std::find(sb_.begin(), sb_.end(), line_addr);
  if (it != sb_.end()) {
    sb_.erase(it);
  }
}

void Core::SbInsert(uint64_t line_addr) {
  if (sb_.size() >= config_.store_buffer_entries) {
    // Capacity pressure: the oldest private store is published in the
    // background (§4.2: CPUs advertise writes "when they run out of private
    // buffer space").
    const uint64_t oldest = sb_.front();
    sb_.pop_front();
    ++stats_.sb_capacity_drains;
    PushBg(machine_->PublishLine(id_, oldest, now_));
  }
  sb_.push_back(line_addr);
}

uint64_t Core::DrainSbAll(uint64_t start) {
  if (sb_.empty()) {
    return start;
  }
  // Publications at a fence proceed with limited overlap: entry i may start
  // only once entry i-P has completed (P = fence_drain_parallelism).
  const uint32_t p = std::max(1u, config_.fence_drain_parallelism);
  std::vector<uint64_t> completions;
  completions.reserve(sb_.size());
  uint64_t max_completion = start;
  size_t i = 0;
  for (uint64_t line : sb_) {
    uint64_t s = start;
    if (i >= p) {
      s = std::max(s, completions[i - p]);
    }
    const uint64_t c = machine_->PublishLine(id_, line, s);
    completions.push_back(c);
    max_completion = std::max(max_completion, c);
    ++i;
  }
  sb_.clear();
  return max_completion;
}

// ---- Background / write-combining queues ----

uint64_t Core::WaitAll(std::deque<uint64_t>& q, uint64_t t) {
  for (uint64_t c : q) {
    t = std::max(t, c);
  }
  q.clear();
  return t;
}

uint64_t Core::WaitAllWc(uint64_t t) {
  for (const WcEntry& e : wc_) {
    t = std::max(t, e.completion);
  }
  wc_.clear();
  std::memset(wc_filter_, 0, sizeof(wc_filter_));
  return t;
}

void Core::PushBg(uint64_t completion) {
  while (!bg_.empty() && bg_.front() <= now_) {
    bg_.pop_front();
  }
  bg_.push_back(completion);
  while (bg_.size() > config_.max_background_ops) {
    if (bg_.front() > now_) {
      stats_.cycles_bg_wait += bg_.front() - now_;
      now_ = bg_.front();
    }
    bg_.pop_front();
  }
}

void Core::PushWc(uint64_t line_addr, uint64_t completion) {
  while (!wc_.empty() && wc_.front().completion <= now_) {
    --wc_filter_[WcSlot(wc_.front().line_addr)];
    wc_.pop_front();
  }
  wc_.push_back(WcEntry{line_addr, completion});
  ++wc_filter_[WcSlot(line_addr)];
  while (wc_.size() > config_.wc_buffer_entries) {
    if (wc_.front().completion > now_) {
      stats_.cycles_wc_wait += wc_.front().completion - now_;
      now_ = wc_.front().completion;
    }
    --wc_filter_[WcSlot(wc_.front().line_addr)];
    wc_.pop_front();
  }
}

bool Core::WaitPendingWriteback(uint64_t line_addr) {
  if (wc_filter_[WcSlot(line_addr)] == 0) {
    return false;  // nothing in flight: every store/load-miss takes this exit
  }
  bool found = false;
  for (auto it = wc_.begin(); it != wc_.end();) {
    if (it->line_addr == line_addr) {
      if (it->completion > now_) {
        stats_.cycles_wb_pending += it->completion - now_;
        now_ = it->completion;
      }
      --wc_filter_[WcSlot(line_addr)];
      it = wc_.erase(it);
      found = true;
    } else {
      ++it;
    }
  }
  return found;
}

// ---- L1 fill ----

void Core::FillL1(uint64_t line_addr, bool exclusive, bool dirty) {
  CacheLineMeta* present = l1_.Touch(line_addr);
  if (present != nullptr) {
    present->exclusive = present->exclusive || exclusive;
    present->dirty = present->dirty || dirty;
    return;
  }
  CacheLineMeta* meta = nullptr;
  const SetAssocCache::Victim victim = l1_.Insert(line_addr, dirty, &meta);
  meta->exclusive = exclusive;
  if (victim.valid) {
    machine_->L1VictimWriteback(id_, victim.line_addr, victim.dirty, now_);
  }
}

// ---- Per-line timing paths ----

void Core::LineLoad(uint64_t line_addr) {
  if (l1_.Touch(line_addr) != nullptr) {
    ++stats_.l1_hits;
    now_ += config_.l1.hit_latency;
    return;
  }
  if (SbContains(line_addr)) {
    // Store-to-load forwarding from the private buffer.
    ++stats_.sb_forwards;
    now_ += kStoreIssueCost;
    return;
  }
  // A line with an in-flight writeback and no cached copy (the non-temporal
  // store case — §7.2.1 "skipping the cache doubles the time spent loading
  // the value of the previously written packet") must wait for the
  // writeback before it can be read back — and the prefetcher cannot have
  // fetched it (it was not in memory yet), so no stream discount either.
  const bool was_in_flight =
      WaitPendingWriteback(line_addr) || RecentlyNtWritten(line_addr);
  ++stats_.l1_misses;
  bool streamed = false;
  if (!was_in_flight) {
    for (size_t i = 0; i < kMissStreams; ++i) {
      if (miss_streams_[i] + config_.line_size == line_addr) {
        miss_streams_[i] = line_addr;  // stream advances in place
        streamed = true;
        break;
      }
    }
    if (!streamed) {
      miss_streams_[next_stream_] = line_addr;
      next_stream_ = (next_stream_ + 1) % kMissStreams;
    }
  }
  const uint64_t before = now_;
  now_ = machine_->LlcAccess(id_, line_addr, Machine::AccessMode::kRead, now_,
                             streamed);
  stats_.cycles_load_miss += now_ - before;
  FillL1(line_addr, /*exclusive=*/false, /*dirty=*/false);
}

void Core::NoteCleanedLine(uint64_t line_addr) {
  // Direct-mapped table, allocated on first use (only runs with an installed
  // PrestoreHook pay for it). A colliding clean evicts the previous entry —
  // a false negative, never a false positive (slots store the full address).
  // O(1) per clean and per store keeps hook-observed runs near full speed,
  // and the capacity covers multi-megabyte rewrite distances (e.g. the IS
  // rank scatter revisits a cleaned line ~32k cleans later).
  if (recent_clean_.empty()) {
    recent_clean_.assign(kCleanTableSize, 0);
  }
  recent_clean_[(line_addr >> 6) & (kCleanTableSize - 1)] = line_addr;
}

void Core::NotifyRewriteIfCleaned(uint64_t line_addr) {
  if (recent_clean_.empty()) {
    return;
  }
  uint64_t& slot = recent_clean_[(line_addr >> 6) & (kCleanTableSize - 1)];
  if (slot == line_addr) {
    slot = 0;  // report each clean at most once
    // Only a rewrite that catches the line still cached wasted the clean's
    // writeback (the dirty data would have coalesced in cache); once the
    // line has been evicted, the writeback was owed regardless of the
    // clean, so the hint did no harm. Distinguishes Listing-3 / FT-scratch
    // misuse (L1-resident) and the IS rank scatter (LLC-resident) from
    // Listing-1's benign far-distance element repeats (long evicted).
    if (!machine_->LlcResident(line_addr)) {
      return;
    }
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnRewriteAfterClean(id_, line_addr, now_);
    }
  }
}

void Core::LineStore(uint64_t line_addr) {
  if (HasHooks()) {
    NotifyRewriteIfCleaned(line_addr);
  }
  WaitPendingWriteback(line_addr);
  CacheLineMeta* meta = l1_.Touch(line_addr);
  if (meta != nullptr && meta->exclusive) {
    meta->dirty = true;
    now_ += kStoreIssueCost;
    return;
  }
  now_ += kStoreIssueCost;
  if (config_.drain == StoreDrainPolicy::kEagerTso) {
    // TSO: the store becomes globally visible eagerly, in the background
    // (read-for-ownership overlapped via the background-op window).
    const uint64_t completion = machine_->PublishLine(id_, line_addr, now_);
    stats_.publish_latency_sum += completion - now_;
    ++stats_.publishes;
    PushBg(completion);
  } else {
    // Weak ordering: the write stays private until something forces it out.
    if (!SbContains(line_addr)) {
      SbInsert(line_addr);
    }
  }
}

// How far ahead of the op cursor the fast-forward loop warms host caches.
// Far enough to cover a host memory round trip at ~tens of ns/op, near
// enough that the prefetched lines are not evicted again before use.
constexpr size_t kPrefetchAhead = 12;

size_t Core::FastForwardOps(const ReplayOp* ops, size_t n,
                            uint64_t deadline) {
  // Run-level hazards: any observer (trace sink, pre-store hook, access
  // sampler) must see every op at full fidelity, so an observed run never
  // fast-forwards.
  if (n == 0 || !fast_forward_ || sink_fast_ != nullptr || HasHooks() ||
      sample_period_ != 0) {
    return 0;
  }
  const uint64_t ls = config_.line_size;
  const uint64_t line_mask = ls - 1;
  const uint64_t hit_latency = config_.l1.hit_latency;
  // The L1-miss legs (LLC-hit load, store publication) additionally need an
  // empty store buffer (so the slow path's forwarding / drain interactions
  // are provably no-ops; always empty under eager TSO). The
  // buffer cannot grow inside the loop (no leg inserts into it), so one
  // check up front covers the whole run. The write-combining queue is NOT
  // required to be empty — completed entries linger until lazily popped —
  // but an entry MATCHING the op's line means the slow path would join the
  // in-flight writeback (WaitPendingWriteback erases it and may advance
  // the clock), so each leg scans for a match and bails on one; a
  // non-matching scan mutates nothing on either path.
  const bool miss_legs = sb_.empty();
  const bool tso = config_.drain == StoreDrainPolicy::kEagerTso;
  // Accumulate in locals and charge once at exit: the loop body is a probe,
  // a compare, and register bumps — no member traffic per op.
  uint64_t now = now_;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t l1_hits_n = 0;
  uint64_t l1_misses_n = 0;
  uint64_t cycles_load_miss = 0;
  uint64_t publishes = 0;
  uint64_t publish_latency_sum = 0;
  size_t i = 0;
  for (; i < n; ++i) {
    if (now >= deadline) {
      break;  // quantum exhausted: the op belongs to a later slice
    }
    const ReplayOp& op = ops[i];
    // The trace is pre-generated, so the lines future ops touch are
    // known: warm the host caches for the op kPrefetchAhead slots out
    // while this one executes. Once the simulated working set outgrows
    // the host LLC, the engine is bound by dependent host misses on the
    // shard tag/meta arrays and the backing data — overlapping them
    // across ops is worth more than any instruction-level tuning here.
    if (i + kPrefetchAhead < n) {
      const ReplayOp& ahead = ops[i + kPrefetchAhead];
      if (ahead.kind != ReplayOpKind::kClean) {
        // Deep (whole-header) prefetch once the recent stream has been
        // miss-dominated: a miss walks the full tag array, which the
        // hinted prefetch doesn't cover. The score is host-side state
        // feeding a pure hardware hint, so its phase lag is harmless.
        // Host data bytes are only touched by stores (loads are
        // timing-only here), so loads skip that fetch entirely.
        machine_->PrefetchForAccess(
            ahead.addr, deep_prefetch_score_ >= 16,
            /*host_data=*/ahead.kind == ReplayOpKind::kStore);
      }
    }
    if (op.kind == ReplayOpKind::kClean ||
        (op.addr & line_mask) + 8 > ls) {
      break;  // cleans and line-straddling ops take the slow path
    }
    if (op.kind == ReplayOpKind::kStore) {
      // The slow path consults the write-combining queue BEFORE the L1
      // probe (an in-flight writeback of this line must be joined), so a
      // matching entry disqualifies the op before any replacement-state
      // update. Probe (no replacement update) first, Touch only once the
      // op is known eligible — a bail-out must leave LRU/PLRU stamps
      // exactly as the slow path's first touch will set them.
      if (wc_filter_[WcSlot(op.addr)] != 0) {
        bool pending = false;
        for (const WcEntry& e : wc_) {
          if (e.line_addr == op.addr) {
            pending = true;
            break;
          }
        }
        if (pending) {
          break;
        }
      }
      CacheLineMeta* meta = l1_.Probe(op.addr);
      if (meta != nullptr && meta->exclusive) {
        l1_.Touch(op.addr);
        meta->dirty = true;
        now += kStoreIssueCost;
        deep_prefetch_score_ -= (deep_prefetch_score_ != 0);
        ++stores;
        // Functional store, same value pattern the replay driver writes.
        const uint64_t v = ReplayStoreValue(op.addr);
        std::memcpy(machine_->HostPtr(op.addr), &v, 8);
        continue;
      }
      // Store-publication leg: L1 miss or shared hit, TSO. The slow path
      // is LineStore -> PublishLine -> LlcAccess(kWrite) -> FillL1; when
      // the LLC access is trivial — a TryFastLlcHit hit, or a genuine
      // miss FastLlcMiss may commit analytically — that chain reduces to
      // the exact sequence below. On a hit the LLC commit runs before
      // the L1 touches (a hit mutates no L1 state, so the structures are
      // disjoint and the final state identical) because a bailing probe
      // must mutate nothing. On a miss the commit runs between
      // PublishLine's probe and its FillL1 — exactly where the slow
      // path's LlcAccess (and its victim back-invalidation, which CAN
      // touch this L1) runs. Replacement exactness: the slow path
      // touches the L1 line three times (LineStore's probe, PublishLine's
      // probe, FillL1) — so does this leg.
      if (!miss_legs || !tso) {
        break;
      }
      uint64_t t;
      const Machine::FastLlc sr = machine_->TryFastLlcHit(
          id_, op.addr, Machine::AccessMode::kWrite,
          now + kStoreIssueCost, &t);
      if (sr == Machine::FastLlc::kBail ||
          (sr == Machine::FastLlc::kMiss &&
           !machine_->FastMissEligible(op.addr, /*is_write=*/true))) {
        break;
      }
      l1_.Touch(op.addr);  // LineStore's probe (hit updates replacement)
      now += kStoreIssueCost;
      l1_.Touch(op.addr);  // PublishLine's probe
      if (sr == Machine::FastLlc::kMiss) {
        deep_prefetch_score_ =
            deep_prefetch_score_ > 56 ? 64 : deep_prefetch_score_ + 8;
        // Warm the L1 victim's LLC set before the device leg so the
        // L1VictimWriteback probe below doesn't stall on it (host-only
        // peek; a wrong or impossible peek costs nothing).
        if (const CacheLineMeta* pv = l1_.PeekVictimMeta(op.addr)) {
          machine_->PrefetchHeadersForAccess(pv->line_addr);
        }
        // Analytical LLC-miss commit (stores are never streamed: the
        // slow path calls LlcAccess with the default streamed=false).
        t = machine_->FastLlcMiss(id_, op.addr, Machine::AccessMode::kWrite,
                                  now, /*streamed=*/false);
      }
      // PublishLine's FillL1(line, exclusive=true, dirty=true).
      CacheLineMeta* fill = l1_.Touch(op.addr);
      if (fill != nullptr) {
        fill->exclusive = true;
        fill->dirty = true;
      } else {
        SetAssocCache::Victim victim =
            l1_.Insert(op.addr, /*dirty=*/true, &fill);
        fill->exclusive = true;
        if (victim.valid) {
          machine_->L1VictimWriteback(id_, victim.line_addr, victim.dirty,
                                      now);
        }
      }
      publish_latency_sum += t - now;
      ++publishes;
      now_ = now;  // PushBg reads and may advance the member clock
      PushBg(t);
      now = now_;
      ++stores;
      const uint64_t v = ReplayStoreValue(op.addr);
      std::memcpy(machine_->HostPtr(op.addr), &v, 8);
    } else {
      if (l1_.Touch(op.addr) != nullptr) {
        now += hit_latency;
        deep_prefetch_score_ -= (deep_prefetch_score_ != 0);
        ++loads;
        ++l1_hits_n;
        continue;
      }
      // LLC-hit load leg: the slow path is LineLoad -> LlcAccess(kRead)
      // -> FillL1; with no in-flight writeback of this line, no recent NT
      // write, and a trivial LLC hit it reduces to the sequence below. A
      // failed L1 Touch mutates nothing, so bailing here still leaves
      // the slow path a bit-identical starting state.
      if (!miss_legs || RecentlyNtWritten(op.addr)) {
        break;
      }
      if (wc_filter_[WcSlot(op.addr)] != 0) {
        bool pending = false;
        for (const WcEntry& e : wc_) {
          if (e.line_addr == op.addr) {
            pending = true;
            break;
          }
        }
        if (pending) {
          break;  // the slow path joins the in-flight writeback
        }
      }
      uint64_t t;
      const Machine::FastLlc lr = machine_->TryFastLlcHit(
          id_, op.addr, Machine::AccessMode::kRead, now, &t);
      if (lr == Machine::FastLlc::kBail ||
          (lr == Machine::FastLlc::kMiss &&
           !machine_->FastMissEligible(op.addr, /*is_write=*/false))) {
        break;
      }
      ++l1_misses_n;
      // LineLoad's stream-detector update, verbatim. On the LLC-miss leg
      // it runs BEFORE the device access — the slow path's order, and
      // `streamed` feeds the discount. On the hit leg it runs after the
      // commit in TryFastLlcHit, which is equivalent: the discount never
      // applies to hits, and the stream table and the LLC are disjoint,
      // so updating after the commit leaves the same final state as the
      // slow path's update-before-access order.
      bool streamed = false;
      for (size_t s = 0; s < kMissStreams; ++s) {
        if (miss_streams_[s] + ls == op.addr) {
          miss_streams_[s] = op.addr;
          streamed = true;
          break;
        }
      }
      if (!streamed) {
        miss_streams_[next_stream_] = op.addr;
        next_stream_ = (next_stream_ + 1) % kMissStreams;
      }
      if (lr == Machine::FastLlc::kMiss) {
        deep_prefetch_score_ =
            deep_prefetch_score_ > 56 ? 64 : deep_prefetch_score_ + 8;
        // Warm the L1 victim's LLC set before the device leg (see the
        // store leg) — the fill insert below will evict it and probe
        // its LLC set in L1VictimWriteback.
        if (const CacheLineMeta* pv = l1_.PeekVictimMeta(op.addr)) {
          machine_->PrefetchHeadersForAccess(pv->line_addr);
        }
        // Analytical LLC-miss commit (the exact LlcAccess miss
        // sequence, including the victim back-invalidation that may
        // remove an unrelated line from this L1 — before the fill
        // insert below, as on the slow path).
        t = machine_->FastLlcMiss(id_, op.addr, Machine::AccessMode::kRead,
                                  now, streamed);
      }
      cycles_load_miss += t - now;
      now = t;
      // FillL1(line, exclusive=false, dirty=false): the line is absent
      // (the probe above just missed, and the only L1 mutation since —
      // a miss leg's victim back-invalidation — only removes lines), so
      // the slow path's present-check Touch would be a mutation-free
      // miss — skip straight to the insert.
      CacheLineMeta* fill = nullptr;
      SetAssocCache::Victim victim =
          l1_.Insert(op.addr, /*dirty=*/false, &fill);
      fill->exclusive = false;
      if (victim.valid) {
        machine_->L1VictimWriteback(id_, victim.line_addr, victim.dirty,
                                    now);
      }
      ++loads;
    }
  }
  // Replay the deferred eviction-writeback admission notes before anything
  // else (slow path, next slice, stats) can observe the queue. Empty
  // whenever no miss leg deferred work this run.
  FlushEvictionTrain();
  now_ = now;
  icount_ += i;  // one instruction per line-granular 8-byte op
  stats_.loads += loads;
  stats_.l1_hits += l1_hits_n;
  stats_.l1_misses += l1_misses_n;
  stats_.cycles_load_miss += cycles_load_miss;
  stats_.stores += stores;
  stats_.publishes += publishes;
  stats_.publish_latency_sum += publish_latency_sum;
  return i;
}

void Core::TimedAccess(SimAddr addr, size_t size, bool is_store) {
  const uint64_t ls = config_.line_size;
  SimAddr a = addr;
  size_t remaining = size;
  while (remaining > 0) {
    const uint64_t line = LineBase(a, ls);
    const size_t in_line =
        std::min<size_t>(remaining, line + ls - a);
    if (is_store) {
      ++stats_.stores;
      LineStore(line);
      Emit(TraceKind::kStore, a, static_cast<uint32_t>(in_line));
    } else {
      ++stats_.loads;
      LineLoad(line);
      Emit(TraceKind::kLoad, a, static_cast<uint32_t>(in_line));
    }
    MaybeSampleAccess(line, is_store);
    icount_ += std::max<size_t>(1, in_line / 8);
    a += in_line;
    remaining -= in_line;
  }
}

// ---- Data operations ----

uint64_t Core::LoadU64(SimAddr addr) {
  CheckDeadline();
  uint64_t v;
  std::memcpy(&v, machine_->HostPtr(addr), 8);
  TimedAccess(addr, 8, /*is_store=*/false);
  return v;
}

uint32_t Core::LoadU32(SimAddr addr) {
  CheckDeadline();
  uint32_t v;
  std::memcpy(&v, machine_->HostPtr(addr), 4);
  TimedAccess(addr, 4, /*is_store=*/false);
  return v;
}

void Core::StoreU64(SimAddr addr, uint64_t value) {
  CheckDeadline();
  std::memcpy(machine_->HostPtr(addr), &value, 8);
  TimedAccess(addr, 8, /*is_store=*/true);
}

void Core::StoreU32(SimAddr addr, uint32_t value) {
  CheckDeadline();
  std::memcpy(machine_->HostPtr(addr), &value, 4);
  TimedAccess(addr, 4, /*is_store=*/true);
}

double Core::LoadF64(SimAddr addr) {
  CheckDeadline();
  double v;
  std::memcpy(&v, machine_->HostPtr(addr), 8);
  TimedAccess(addr, 8, /*is_store=*/false);
  return v;
}

void Core::StoreF64(SimAddr addr, double value) {
  CheckDeadline();
  std::memcpy(machine_->HostPtr(addr), &value, 8);
  TimedAccess(addr, 8, /*is_store=*/true);
}

void Core::MemCopyToSim(SimAddr dst, const void* src, size_t size) {
  CheckDeadline();
  std::memcpy(machine_->HostPtr(dst), src, size);
  TimedAccess(dst, size, /*is_store=*/true);
}

void Core::MemCopyFromSim(void* dst, SimAddr src, size_t size) {
  CheckDeadline();
  std::memcpy(dst, machine_->HostPtr(src), size);
  TimedAccess(src, size, /*is_store=*/false);
}

void Core::MemCopySimToSim(SimAddr dst, SimAddr src, size_t size) {
  CheckDeadline();
  std::memmove(machine_->HostPtr(dst), machine_->HostPtr(src), size);
  TimedAccess(src, size, /*is_store=*/false);
  TimedAccess(dst, size, /*is_store=*/true);
}

void Core::MemSet(SimAddr dst, uint8_t byte, size_t size) {
  CheckDeadline();
  std::memset(machine_->HostPtr(dst), byte, size);
  TimedAccess(dst, size, /*is_store=*/true);
}

// ---- Ordering ----

void Core::EndSlice() { YieldAtDeadline(*this); }

void Core::SpinPause(uint64_t cycles) {
  CheckDeadline();
  ++icount_;
  const uint64_t target = machine_->GlobalTime();
  if (now_ < target) {
    now_ = std::min(now_ + cycles, target);
  } else {
    WaitForPeers();
  }
}

void Core::Fence() {
  CheckDeadline();
  ++stats_.fences;
  ++icount_;
  if (HasHooks()) {
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnFence(id_, now_);
    }
  }
  const uint64_t begin = now_;
  uint64_t t = DrainSbAll(now_);
  t = WaitAll(bg_, t);
  t = WaitAllWc(t);
  now_ = std::max(now_ + kFenceIssueCost, t);
  stats_.fence_stall_cycles += now_ - begin;
  Emit(TraceKind::kFence, 0, 0);
}

bool Core::CasU64(SimAddr addr, uint64_t& expected, uint64_t desired) {
  CheckDeadline();
  ++stats_.atomics;
  ++icount_;
  // Atomics carry fence semantics (§4.2): all private stores publish first,
  // and fence-sensitive observers (governor gate, region monitor) must see
  // them or CAS-publish patterns (X9) read as fence-free.
  if (HasHooks()) {
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnFence(id_, now_);
    }
  }
  uint64_t t = DrainSbAll(now_);
  t = WaitAll(bg_, t);
  t = WaitAllWc(t);
  now_ = std::max(now_, t);
  const uint64_t line = machine_->LineBaseOf(addr);
  now_ = machine_->PublishLine(id_, line, now_) + config_.atomic_latency;
  Emit(TraceKind::kAtomic, addr, 8);
  uint8_t* p = machine_->HostPtr(addr);
  uint64_t v;
  std::memcpy(&v, p, 8);
  if (v != expected) {
    expected = v;
    return false;
  }
  std::memcpy(p, &desired, 8);
  return true;
}

uint64_t Core::FetchAddU64(SimAddr addr, uint64_t delta) {
  CheckDeadline();
  ++stats_.atomics;
  ++icount_;
  if (HasHooks()) {
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnFence(id_, now_);
    }
  }
  uint64_t t = DrainSbAll(now_);
  t = WaitAll(bg_, t);
  t = WaitAllWc(t);
  now_ = std::max(now_, t);
  const uint64_t line = machine_->LineBaseOf(addr);
  now_ = machine_->PublishLine(id_, line, now_) + config_.atomic_latency;
  Emit(TraceKind::kAtomic, addr, 8);
  uint8_t* p = machine_->HostPtr(addr);
  uint64_t old;
  std::memcpy(&old, p, 8);
  const uint64_t sum = old + delta;
  std::memcpy(p, &sum, 8);
  return old;
}

uint64_t Core::AtomicLoadU64(SimAddr addr) {
  CheckDeadline();
  const uint64_t line = machine_->LineBaseOf(addr);
  LineLoad(line);
  ++stats_.loads;
  ++icount_;
  Emit(TraceKind::kLoad, addr, 8);
  uint64_t v;
  std::memcpy(&v, machine_->HostPtr(addr), 8);
  return v;
}

void Core::AtomicStoreU64(SimAddr addr, uint64_t value) {
  CheckDeadline();
  ++stats_.atomics;
  ++icount_;
  // Release: prior stores must be visible first.
  const uint64_t t = DrainSbAll(now_);
  now_ = std::max(now_, t);
  const uint64_t line = machine_->LineBaseOf(addr);
  now_ = machine_->PublishLine(id_, line, now_) + config_.atomic_latency;
  Emit(TraceKind::kAtomic, addr, 8);
  std::memcpy(machine_->HostPtr(addr), &value, 8);
}

// ---- Pre-stores ----

void Core::Prestore(SimAddr addr, size_t size, PrestoreOp op) {
  CheckDeadline();
  if (size == 0) {
    return;
  }
  const uint64_t ls = config_.line_size;
  const uint64_t first = LineBase(addr, ls);
  const uint64_t last = LineBase(addr + size - 1, ls);
  const std::vector<PrestoreHook*>& hooks = machine_->prestore_hooks();
  for (uint64_t line = first; line <= last; line += ls) {
    if (HasHooks()) {
      uint64_t delay = 0;
      bool drop = false;
      for (PrestoreHook* hook : hooks) {
        if (hook->OnPrestoreHint(id_, line, op, now_, &delay) ==
            HintFate::kDrop) {
          drop = true;
        }
      }
      now_ += delay;
      if (drop) {
        // A suppressed hint issues no instruction: the governor's check is
        // a predicted branch around the hint, so no issue cycle is charged.
        ++stats_.prestores_suppressed;
        continue;
      }
    }
    ++icount_;
    now_ += kStoreIssueCost;  // issuing a pre-store is ~1 cycle (§5)
    switch (op) {
      case PrestoreOp::kDemote: {
        ++stats_.prestores_demote;
        if (SbContains(line)) {
          SbRemove(line);
          PushBg(machine_->PublishLineDemote(id_, line, now_));
        } else {
          // Residency check only — Peek so a useless demote hint can't
          // perturb the set's way hint.
          if (l1_.Peek(line) != nullptr) {
            PushBg(machine_->PublishLineDemote(id_, line, now_));
          } else {
            // Not in a private buffer and not in L1: nothing to demote.
            for (PrestoreHook* hook : hooks) {
              hook->OnUselessHint(id_, line, op);
            }
          }
        }
        break;
      }
      case PrestoreOp::kClean: {
        ++stats_.prestores_clean;
        if (SbContains(line)) {
          SbRemove(line);
          // The publication occupies a miss-handling slot; the writeback
          // occupies a write-combining slot.
          const uint64_t published = machine_->PublishLine(id_, line, now_);
          PushBg(published);
          PushWc(line, machine_->CleanLine(id_, line, published));
          if (HasHooks()) {
            NoteCleanedLine(line);
          }
        } else {
          const uint64_t c = machine_->CleanLine(id_, line, now_);
          if (c != now_) {
            PushWc(line, c);
            if (HasHooks()) {
              NoteCleanedLine(line);
            }
          } else {
            // The line was already clean: the hint moved nothing.
            for (PrestoreHook* hook : hooks) {
              hook->OnUselessHint(id_, line, op);
            }
          }
        }
        break;
      }
    }
    Emit(TraceKind::kPrestore, line, static_cast<uint32_t>(ls));
  }
}

void Core::StoreNt(SimAddr dst, const void* src, size_t size) {
  CheckDeadline();
  std::memcpy(machine_->HostPtr(dst), src, size);
  nt_used_ = true;
  const uint64_t ls = config_.line_size;
  SimAddr a = dst;
  size_t remaining = size;
  while (remaining > 0) {
    const uint64_t line = LineBase(a, ls);
    const size_t in_line = std::min<size_t>(remaining, line + ls - a);
    SbRemove(line);
    machine_->InvalidateLine(id_, line);
    if (!RecentlyNtWritten(line)) {
      recent_nt_[next_nt_] = line;
      next_nt_ = (next_nt_ + 1) % kRecentNt;
    }
    ++stats_.nt_lines;
    ++stats_.stores;
    const uint64_t chunk_cost = std::max<size_t>(1, in_line / 8);
    icount_ += chunk_cost;
    now_ += chunk_cost;
    PushWc(line, machine_->DeviceFor(line).Write(
                     line, static_cast<uint32_t>(in_line), now_));
    Emit(TraceKind::kNtStore, a, static_cast<uint32_t>(in_line));
    a += in_line;
    remaining -= in_line;
  }
}

void Core::StoreNtU64(SimAddr dst, uint64_t value) {
  StoreNt(dst, &value, 8);
}

}  // namespace prestore
