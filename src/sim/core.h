// A simulated hardware thread (core): the execution context workloads run on.
//
// Functional-first, timing-directed simulation: data moves to/from backing
// host memory immediately; the cache/store-buffer state machines track where
// each line *would* be and charge cycles accordingly. Per-core local clocks
// plus reservation-based shared devices let several cores share one machine;
// the baton runner (baton.h) interleaves their bodies deterministically, one
// at a time.
#ifndef SRC_SIM_CORE_H_
#define SRC_SIM_CORE_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/prestore.h"
#include "src/sim/cache.h"
#include "src/sim/invariant.h"
#include "src/sim/config.h"
#include "src/sim/hooks.h"
#include "src/sim/replay_ops.h"
#include "src/trace/trace.h"

namespace prestore {

class Machine;

using SimAddr = uint64_t;

struct CoreStats {
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t sb_forwards = 0;
  uint64_t fences = 0;
  uint64_t fence_stall_cycles = 0;
  uint64_t atomics = 0;
  uint64_t prestores_demote = 0;
  uint64_t prestores_clean = 0;
  // Hints suppressed by an installed PrestoreHook (governor backoff or
  // injected hint-drop faults). Suppressed hints issue no instruction.
  uint64_t prestores_suppressed = 0;
  uint64_t nt_lines = 0;
  uint64_t sb_capacity_drains = 0;
  // Cycle attribution (where the core's clock advanced).
  uint64_t cycles_bg_wait = 0;    // background-op window full
  uint64_t cycles_wc_wait = 0;    // write-combining buffer full
  uint64_t cycles_wb_pending = 0; // store hit a line with in-flight writeback
  uint64_t cycles_load_miss = 0;  // synchronous load misses
  uint64_t publish_latency_sum = 0;  // sum of async publication latencies
  uint64_t publishes = 0;
};

// Pre-interned function annotation (see FunctionRegistry).
struct FuncToken {
  uint32_t id = kInvalidFunc;
};

class Core {
 public:
  Core(Machine* machine, uint8_t id, const MachineConfig& config);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  uint8_t id() const { return id_; }
  uint64_t now() const { return now_; }
  uint64_t icount() const { return icount_; }
  const CoreStats& stats() const { return stats_; }
  Machine& machine() { return *machine_; }

  // ---- Data operations (functional + timed) ----

  uint64_t LoadU64(SimAddr addr);
  uint32_t LoadU32(SimAddr addr);
  void StoreU64(SimAddr addr, uint64_t value);
  void StoreU32(SimAddr addr, uint32_t value);
  double LoadF64(SimAddr addr);
  void StoreF64(SimAddr addr, double value);

  void MemCopyToSim(SimAddr dst, const void* src, size_t size);
  void MemCopyFromSim(void* dst, SimAddr src, size_t size);
  void MemCopySimToSim(SimAddr dst, SimAddr src, size_t size);
  void MemSet(SimAddr dst, uint8_t byte, size_t size);

  // Plain ALU work: n instructions, n cycles.
  void Execute(uint64_t n) {
    CheckDeadline();
    icount_ += n;
    now_ += n;
  }

  // Spin-wait pause. A spinning core must not race ahead of the cores doing
  // real work (its local clock would poison shared-device reservations), so
  // the pause advances the local clock only up to the machine's fastest
  // core; a core already ahead waits for its peers instead (WaitForPeers:
  // its body passes the baton).
  void SpinPause(uint64_t cycles = 30);

  // The round deadline of the baton-runner slice this core's body is in
  // (UINT64_MAX outside a runner). Every op first checks it: an op that
  // would start at or past the deadline first ends the slice (baton.h).
  void SetSliceDeadline(uint64_t deadline) { slice_deadline_ = deadline; }

  // Tracks an eviction writeback this core's access triggered. The per-core
  // queue is bounded: when the device falls behind, the evicting access
  // stalls (returns the time it may proceed; == start when the queue keeps
  // up). Per-core so that clock skew between cores cannot masquerade as
  // queueing.
  uint64_t NoteEvictionWriteback(uint64_t acceptance, uint64_t start) {
    while (ewb_size_ != 0 && ewb_ring_[ewb_head_ & kEwbRingMask] <= start) {
      ++ewb_head_;
      --ewb_size_;
    }
    ewb_ring_[(ewb_head_ + ewb_size_) & kEwbRingMask] = acceptance;
    ++ewb_size_;
    if (ewb_size_ > kEvictionWbDepth) {
      const uint64_t wait = ewb_ring_[ewb_head_ & kEwbRingMask];
      ++ewb_head_;
      --ewb_size_;
      return wait > start ? wait : start;
    }
    return start;
  }

  static constexpr size_t kEvictionWbDepth = 16;

  // ---- Deferred eviction-writeback train (analytical miss legs) ----
  //
  // The fast-forward miss legs defer the per-eviction NoteEvictionWriteback
  // bookkeeping into a small train and replay it in order when the run
  // ends. This is exact only when no deferred note could overflow the
  // bounded queue: the replay pops completed entries before each push, so
  // the queue can only shrink relative to the conservative bound below,
  // each replayed note returns `start` (no stall, no wbq_stall_cycles
  // bump), and the caller's completion time — already past the access
  // start — is unchanged. CanDeferEvictionWriteback enforces the bound;
  // when it fails, the caller flushes the train and takes the per-line
  // path. Device-side state is NOT deferred: the Write() reserving device
  // bandwidth happens immediately, in program order, at the same timestamp
  // as the per-line path.
  bool CanDeferEvictionWriteback() const {
    return pending_ewb_n_ < kEvictionTrainCap &&
           ewb_size_ + pending_ewb_n_ < kEvictionWbDepth;
  }

  void DeferEvictionWriteback(uint64_t acceptance, uint64_t start) {
    pending_ewb_[pending_ewb_n_].acceptance = acceptance;
    pending_ewb_[pending_ewb_n_].start = start;
    ++pending_ewb_n_;
  }

  void FlushEvictionTrain() {
    for (uint32_t i = 0; i < pending_ewb_n_; ++i) {
      const uint64_t proceed = NoteEvictionWriteback(
          pending_ewb_[i].acceptance, pending_ewb_[i].start);
      PRESTORE_INVARIANT(proceed == pending_ewb_[i].start,
                         "deferred eviction writeback stalled; "
                         "CanDeferEvictionWriteback bound violated");
      (void)proceed;
    }
    pending_ewb_n_ = 0;
  }

  // ---- Ordering operations ----

  // Full memory fence: publishes all private stores, waits for outstanding
  // pre-stores and write-combining traffic (paper §4.2).
  void Fence();

  // Atomics have fence semantics (§4.2: "atomic instructions that force the
  // CPU to order memory accesses").
  bool CasU64(SimAddr addr, uint64_t& expected, uint64_t desired);
  uint64_t FetchAddU64(SimAddr addr, uint64_t delta);
  uint64_t AtomicLoadU64(SimAddr addr);   // acquire: no store drain
  void AtomicStoreU64(SimAddr addr, uint64_t value);  // release: drains stores

  // ---- Analytical fast-forward (DESIGN.md §12) ----

  // Executes a maximal eligible prefix of `ops` on this core without walking
  // the full per-op timing path, and returns how many ops were consumed
  // (possibly 0; never more than n). An op is eligible when it can be
  // charged analytically — its cycle cost and stat deltas follow from a
  // handful of probes with no protocol branches left open:
  //   - a load whose line is L1-resident (cost: one L1 hit latency);
  //   - a store whose line is L1-resident in exclusive state with no
  //     in-flight write-combining entry for the line (cost: one issue
  //     cycle);
  // and, with an empty store buffer:
  //   - a load whose line is a trivial LLC hit (no foreign owner —
  //     Machine::TryFastLlcHit), charged hit latency + fill + L1 victim
  //     writeback;
  //   - an eager-TSO store publication whose line is a trivial LLC write
  //     hit (no foreign owner or sharers, non-far device), charged the
  //     publication sequence.
  // The run bails out to the slow path (returns early) on any other
  // hazard: an installed trace sink or pre-store hook, a clean op, an LLC
  // miss, coherence interaction with another core, a recently-NT-written
  // line, a pending writeback, or a line-straddling access. Every bail-out
  // happens before any state mutation for that op, so the slow path replays
  // it from a bit-identical machine. Consumed ops charge their cycles,
  // instruction counts, and stat deltas in one step at exit; the arithmetic
  // is bit-identical to the slow path (the recorded digests in
  // sim_determinism_test pin this).
  //
  // `deadline` stops the run before any op whose START time would be >=
  // deadline — the same "begin an op only while now < deadline" rule the
  // sliced scheduler's slow path applies per op. Because every consumed op
  // charges exactly the slow-path cycles, a sliced replay covers the same
  // (round, core, op) schedule whether fast-forward is on or off, so the
  // two produce bit-identical end states (sim_determinism_test pins this).
  size_t FastForwardOps(const ReplayOp* ops, size_t n,
                        uint64_t deadline = ~uint64_t{0});

  // ---- Pre-stores (the paper's contribution, §2) ----

  // Non-blocking hint covering [addr, addr+size). kDemote moves the data out
  // of private buffers / L1 down to the shared cache; kClean additionally
  // writes dirty data back to memory. Data stays cached in both cases.
  void Prestore(SimAddr addr, size_t size, PrestoreOp op);

  // Non-temporal ("skip the cache") store: data goes straight to memory via
  // the write-combining buffer and is not allocated in the caches.
  void StoreNt(SimAddr dst, const void* src, size_t size);
  void StoreNtU64(SimAddr dst, uint64_t value);

  // ---- Annotation (symbolization stand-in for DirtBuster) ----

  void PushFunc(FuncToken token);
  void PopFunc();
  uint32_t CurrentFunc() const {
    return fstack_.empty() ? kInvalidFunc : fstack_.back();
  }
  uint32_t CurrentChain() const { return cur_chain_; }

  void ResetStats() { stats_ = CoreStats{}; }
  void SetNow(uint64_t t) { now_ = t; }

  // Internal: used by Machine for cross-core coherence actions.
  SetAssocCache& l1() { return l1_; }

  // Re-reads the machine's trace-sink and pre-store-hook registrations into
  // the core-local fast-path fields below. Machine calls this whenever a
  // sink or hook is (un)installed.
  void RefreshFastPathFlags();

 private:
  friend class Machine;

  // Per-line timing paths.
  void LineLoad(uint64_t line_addr);
  void LineStore(uint64_t line_addr);
  void TimedAccess(SimAddr addr, size_t size, bool is_store);

  // Store-buffer handling.
  bool SbContains(uint64_t line_addr) const;
  void SbInsert(uint64_t line_addr);
  void SbRemove(uint64_t line_addr);
  uint64_t DrainSbAll(uint64_t start);  // returns completion

  // Background-op / write-combining bookkeeping.
  struct WcEntry {
    uint64_t line_addr;
    uint64_t completion;
  };
  void PushBg(uint64_t completion);
  void PushWc(uint64_t line_addr, uint64_t completion);
  uint64_t WaitAll(std::deque<uint64_t>& q, uint64_t t);
  uint64_t WaitAllWc(uint64_t t);
  // A store to a line with an in-flight writeback must wait for it (the line
  // is on its way to memory and has to be re-acquired) — the §5 Listing-3
  // pitfall cost. Returns true when an in-flight writeback was found.
  bool WaitPendingWriteback(uint64_t line_addr);

  // L1 fill with victim handling.
  void FillL1(uint64_t line_addr, bool exclusive, bool dirty);

  // Per-op trace emission. The unhooked case must cost one predicted
  // branch, so the sink pointer is cached core-locally (refreshed by
  // RefreshFastPathFlags) instead of being chased through the machine on
  // every memory operation.
  void Emit(TraceKind kind, SimAddr addr, uint32_t size) {
    if (sink_fast_ == nullptr) {
      return;
    }
    sink_fast_->Record(TraceRecord{kind, id_, size, addr, icount_,
                                   CurrentFunc(), cur_chain_});
  }

  void CheckDeadline() {
    if (now_ >= slice_deadline_) [[unlikely]] {
      EndSlice();
    }
  }
  void EndSlice();

  Machine* machine_;
  uint8_t id_;
  const MachineConfig& config_;

  // Cached fast-path state (see RefreshFastPathFlags).
  TraceSink* sink_fast_ = nullptr;
  bool has_hooks_ = false;
  bool HasHooks() const { return has_hooks_; }
  // Analytical fast-forward enable (Machine::SetAnalyticalFastForward);
  // off = every op walks the full timing path (the fast-forward
  // equivalence tests compare the two).
  bool fast_forward_ = true;

  // Sampled-access observation (Machine::SetAccessSampleHook). The period
  // is cached core-locally so the unobserved per-line cost is one plain
  // load + predicted branch (period == 0); the countdown survives refreshes
  // that do not change the installation, so unrelated SetTraceSink calls
  // cannot perturb the deterministic sample schedule.
  AccessSampleHook* sampler_fast_ = nullptr;
  uint32_t sample_period_ = 0;
  uint32_t sample_countdown_ = 0;
  void MaybeSampleAccess(uint64_t line_addr, bool is_store) {
    if (sample_period_ == 0 || --sample_countdown_ != 0) {
      return;
    }
    sample_countdown_ = sample_period_;
    if (sampler_fast_ != nullptr) {
      sampler_fast_->OnSampledAccess(id_, line_addr, is_store, now_);
    }
  }

  uint64_t now_ = 0;
  uint64_t icount_ = 0;
  uint64_t slice_deadline_ = UINT64_MAX;

  SetAssocCache l1_;

  std::deque<uint64_t> sb_;  // private store buffer: line addresses, FIFO
  std::deque<uint64_t> bg_;  // completion times of async publications
  std::deque<WcEntry> wc_;   // in-flight clean / NT writebacks

  // Eviction-writeback acceptance times: fixed power-of-two ring (capacity
  // kEwbRingSize > kEvictionWbDepth + 1, the max occupancy right after the
  // overflow push). Entries live in [ewb_head_, ewb_head_ + ewb_size_).
  static constexpr uint32_t kEwbRingSize = 32;
  static constexpr uint32_t kEwbRingMask = kEwbRingSize - 1;
  uint64_t ewb_ring_[kEwbRingSize] = {};
  uint32_t ewb_head_ = 0;
  uint32_t ewb_size_ = 0;

  // Deferred eviction-writeback notes accumulated by one fast-forward run.
  static constexpr uint32_t kEvictionTrainCap = 8;
  struct EvictionNote {
    uint64_t acceptance = 0;
    uint64_t start = 0;
  };
  EvictionNote pending_ewb_[kEvictionTrainCap];
  uint32_t pending_ewb_n_ = 0;

  // Host-side saturating score [0, 64] of how miss-dominated the recent
  // fast-forward stream has been (+8 per LLC miss, -1 per L1 hit). Gates
  // the deep whole-SetBlock prefetch variant. Feeds only hardware
  // prefetch hints, so it carries no simulated state.
  uint32_t deep_prefetch_score_ = 0;

  // Exact counting filter over wc_'s line addresses: wc_filter_[WcSlot(a)]
  // is the number of wc_ entries whose line hashes to that slot, updated at
  // every wc_ push/erase/clear. A zero slot proves the line has NO entry
  // (no false negatives), letting the per-access pending-writeback check —
  // the common all-clear case on both the timed path and the fast-forward
  // legs — skip the deque scan. A nonzero slot falls back to the precise
  // scan. Host-side accelerator only: simulated results are unchanged.
  static uint32_t WcSlot(uint64_t line_addr) {
    return static_cast<uint32_t>((line_addr * 0x9e3779b97f4a7c15ULL) >> 56);
  }
  uint16_t wc_filter_[256] = {};

  // Streaming detection (hardware-prefetch stand-in): a load miss adjacent
  // to any tracked stream gets the latency discount. Real prefetchers track
  // many concurrent streams; 8 covers the multi-array kernels here.
  static constexpr size_t kMissStreams = 8;
  uint64_t miss_streams_[kMissStreams] = {};
  size_t next_stream_ = 0;

  // Lines recently written with non-temporal stores: reading one back
  // interferes with the write-combining path and is never prefetched, so it
  // pays the full memory latency (§7.2.1's skip penalty).
  static constexpr size_t kRecentNt = 256;
  uint64_t recent_nt_[kRecentNt] = {};
  size_t next_nt_ = 0;
  // Set once this core issues its first non-temporal store; until then every
  // load miss skips the kRecentNt-entry scan entirely (most workloads never
  // use NT stores, and the scan sits on the load-miss path).
  bool nt_used_ = false;
  bool RecentlyNtWritten(uint64_t line_addr) const {
    if (!nt_used_) {
      return false;
    }
    for (uint64_t l : recent_nt_) {
      if (l == line_addr) {
        return true;
      }
    }
    return false;
  }

  // Lines whose dirty data a clean pre-store wrote back (only maintained
  // while PrestoreHooks are installed): a store to one of them while the
  // line is still LLC-resident means the writeback was wasted — the
  // Listing-3 signal the governor feeds on. (Rewrites of long-evicted lines
  // are benign: their writeback was owed anyway.) Each clean is reported at
  // most once. Direct-mapped by line address, lazily allocated (512 KiB per
  // core, but only on hook-observed runs).
  static constexpr size_t kCleanTableSize = 1 << 16;
  std::vector<uint64_t> recent_clean_;
  void NoteCleanedLine(uint64_t line_addr);
  void NotifyRewriteIfCleaned(uint64_t line_addr);

  CoreStats stats_;

  std::vector<uint32_t> fstack_;
  uint32_t cur_chain_ = kInvalidChain;
  std::unordered_map<uint64_t, uint32_t> chain_cache_;
  std::vector<uint32_t> chain_stack_;  // parallel chain ids for O(1) pop
};

// RAII function annotation. Mirrors the symbol information DirtBuster gets
// from perf/PIN on real binaries.
class ScopedFunction {
 public:
  ScopedFunction(Core& core, FuncToken token) : core_(core) {
    core_.PushFunc(token);
  }
  ~ScopedFunction() { core_.PopFunc(); }

  ScopedFunction(const ScopedFunction&) = delete;
  ScopedFunction& operator=(const ScopedFunction&) = delete;

 private:
  Core& core_;
};

}  // namespace prestore

#endif  // SRC_SIM_CORE_H_
