// In-process sharded KV server (DESIGN.md §9).
//
// N shard workers, each owning a private KV index (CLHT or Masstree), a
// bounded X9Inbox admission queue, and a recycled value arena. Clients
// route requests by key hash, get backpressure from full queues, and
// receive replies through per-client X9Inboxes whose freshly filled slots
// are demoted (the §7.3.2 message pattern). Shard workers batch admitted
// requests and close each batch with a clean pre-store sweep over the
// value-arena lines the batch dirtied (§7.2.3's craft-then-clean, hoisted
// out of the store into the server loop). With `governed` set, the server
// owns a PrestoreGovernor and aligns each shard's arena to the governor's
// region size, so per-shard rewrite/useless telemetry maps one-to-one onto
// governor regions and a misbehaving shard backs off on its own.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/kv/kvstore.h"
#include "src/monitor/region_monitor.h"
#include "src/msg/x9.h"
#include "src/robust/governor.h"
#include "src/serve/request.h"
#include "src/serve/serve_config.h"
#include "src/sim/machine.h"
#include "src/util/zipf.h"

namespace prestore {

// Per-shard view of the governor's regions (arena-address-range matched).
// Only the clean sweep emits hints into a shard's arena regions, so these
// counters isolate that shard's pre-store behaviour.
struct ShardPolicy {
  uint32_t shard = 0;
  uint32_t regions = 0;             // governor regions seen for this arena
  uint32_t backed_off_regions = 0;  // currently in RegionBackoff::kBackoff
  uint64_t admitted = 0;
  uint64_t suppressed = 0;
  uint64_t rewrites = 0;
  uint64_t useless = 0;
  uint32_t backoffs = 0;
  uint32_t reopens = 0;
};

// Construction helpers shared by KvServer and the cluster's per-node
// serving state (cluster.cc): index choice and the region-aligned,
// DIMM-phase-staggered shard arena described in KvServer's constructor.
std::unique_ptr<KvStore> MakeServeStore(Machine& machine, ServeIndex index,
                                        uint64_t keys_per_shard);
std::unique_ptr<ValueArena> MakeShardArena(Machine& machine,
                                           const ServeConfig& config,
                                           uint32_t shard);
// Maps a governor snapshot onto per-shard arena address ranges (empty when
// `governor` is null).
std::vector<ShardPolicy> CollectShardPolicies(
    const PrestoreGovernor* governor,
    const std::vector<const ValueArena*>& arenas);

class KvServer {
 public:
  // Throws std::invalid_argument when config.Validate() reports a problem.
  // The machine must have at least num_shards + ycsb.threads cores.
  KvServer(Machine& machine, const ServeConfig& config);

  const ServeConfig& config() const { return config_; }
  uint32_t num_shards() const { return config_.num_shards; }
  uint32_t num_clients() const { return config_.ycsb.threads; }

  // Key-hash shard router.
  uint32_t ShardFor(uint64_t key) const {
    return static_cast<uint32_t>(ZipfianGenerator::FnvHash64(key) %
                                 config_.num_shards);
  }

  // Loads keys 1..ycsb.num_keys into the shard indexes (dedicated slots, as
  // the YCSB load phase does). Idempotent; ServeYcsb calls it on first run.
  void Preload();
  bool preloaded() const { return preloaded_; }

  // Client side. TrySubmit routes by req.key; false = admission queue full
  // (backpressure — retry after config().retry_backoff_cycles).
  bool TrySubmit(Core& core, const RequestMsg& req);
  bool TryGetResponse(Core& core, uint32_t client, ResponseMsg* out);
  // Host-side probe of the client's response inbox (no simulated cost; see
  // X9Inbox::Peek). Gates charged TryGetResponse polls so a waiting
  // client's clock does not accumulate per-poll work.
  bool HasResponse(uint32_t client) { return responses_[client]->Peek(); }

  // Runs shard `shard`'s worker loop on `core` until every client has
  // called ClientDone() and the admission queue is drained.
  void ShardWorkerLoop(Core& core, uint32_t shard);

  // Run lifecycle (driven by ServeYcsb; exposed for tests).
  void BeginRun();     // resets the client gate and per-run counters
  void ClientDone();   // a client finished: all its requests are answered

  // Shifts the serving mix for subsequent runs (e.g. a write-heavy ingest
  // window followed by a read-mostly window against the same governed
  // arenas). `ops_per_thread` of 0 keeps the current value. Only call
  // between runs — the queues must be drained.
  void SetWorkload(YcsbWorkload workload, uint32_t ops_per_thread = 0);

  uint64_t TotalBatches() const;

  // Null when not governed. Attached to the machine for the server's
  // lifetime; take care not to stack a second governor on the same machine.
  PrestoreGovernor* governor() { return governor_.get(); }

  // Null unless `monitored`: the adaptive region monitor covering every
  // shard arena (one monitored range per shard), advising the governor and
  // gating the batch-close sweep (DESIGN.md §13).
  RegionMonitor* monitor() { return monitor_.get(); }

  // Sweep Prestore calls skipped host-side on the monitor's verdicts.
  uint64_t TotalSweepsGated() const;

  // Per-shard policy state from the governor snapshot (empty if ungoverned).
  std::vector<ShardPolicy> ShardPolicies() const;

 private:
  struct Shard {
    std::unique_ptr<KvStore> store;
    std::unique_ptr<X9Inbox> requests;
    std::unique_ptr<ValueArena> arena;
    uint64_t batches = 0;  // written only by the shard's worker core
    uint64_t sweeps_gated = 0;  // slots the monitor excluded from the sweep
  };

  Machine& machine_;
  ServeConfig config_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<X9Inbox>> responses_;  // one per client
  std::unique_ptr<PrestoreGovernor> governor_;
  std::unique_ptr<RegionMonitor> monitor_;
  uint32_t clients_done_ = 0;
  bool preloaded_ = false;

  FuncToken craft_func_;
  FuncToken serve_func_;
  FuncToken sweep_func_;
};

}  // namespace prestore

#endif  // SRC_SERVE_SERVER_H_
