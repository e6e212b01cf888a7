// Replicated KV serving cluster (DESIGN.md §11).
//
// A KvCluster hosts N serving nodes, each a full sharded KV server on its
// OWN simulated Machine (heterogeneous presets — A, B-Fast, B-Slow — are
// first-class: a node's line size, drain policy, and target device are its
// machine's). A front-end ShardRouter places every key on
// `replication_factor` distinct nodes by consistent hashing over virtual
// ring points; writes are accepted by the first healthy placement member
// (the coordinator), applied locally, pushed to the other replicas over
// per-(sender, shard) X9Inbox replication channels (demote-on-send, the
// §7.3.2 message pattern), and only then acknowledged — so an acked write
// exists on every live replica's timeline before the client sees it.
//
// Failure model (driven by the deterministic FaultInjector's node faults):
//  - kNodeKill: the node refuses every request whose attempt-arrival time
//    is past the kill cycle; in-flight work (accepted earlier on its
//    schedule) still completes. Peers stop replicating to it and drop its
//    hints. Permanent.
//  - kNodeDrain: as kill for the window's duration; peers buffer the
//    drained node's replica writes as HINTS and replay them over the
//    normal channels when the node rejoins (hinted handoff).
//  - kNodeDegrade: each request served during the window is charged extra
//    service cycles (a throttled/contended node).
//
// Every refusal decision — client-side pre-check and server-side NACK —
// is keyed on the request attempt's SCHEDULED arrival time, a pure
// function of the client's arrival schedule and deterministic backoffs.
// Workers and drivers run as bodies of one baton runner in a fixed
// (round, node, core) order, so outcomes, latencies and every counter
// replay byte-identically under the same seed + fault plan (DESIGN.md
// §11).
#ifndef SRC_SERVE_CLUSTER_H_
#define SRC_SERVE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/msg/x9.h"
#include "src/robust/fault_injector.h"
#include "src/serve/latency_meter.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/serve/serve_config.h"
#include "src/sim/machine.h"

namespace prestore {

// Consistent-hash placement: each node contributes `virtual_nodes` points
// on a 64-bit ring; a key's replica set is the first `replication`
// DISTINCT nodes clockwise from the key's hash. Immutable after
// construction and shared read-only by every driver.
class ShardRouter {
 public:
  ShardRouter(uint32_t nodes, uint32_t virtual_nodes, uint32_t replication,
              uint64_t seed);

  uint32_t nodes() const { return nodes_; }
  uint32_t replication() const { return replication_; }

  // Fills out[0 .. replication) with distinct node ids, primary first.
  void Placement(uint64_t key, uint32_t* out) const;
  uint32_t Primary(uint64_t key) const;

 private:
  struct Point {
    uint64_t pos;
    uint32_t node;
  };
  std::vector<Point> ring_;  // sorted by pos
  uint32_t nodes_;
  uint32_t replication_;
};

// Router-side per-node health: consecutive retry-after/refused counts and
// capped exponential probe backoff. One instance per LOGICAL CLIENT (each
// client learns about failures through its own requests), which keeps the
// failover decisions a function of that client's own request history.
class NodeHealthView {
 public:
  NodeHealthView(uint32_t nodes, const ServeConfig& cfg)
      : state_(nodes),
        unhealthy_after_(cfg.unhealthy_after),
        base_(cfg.failover_backoff_base_cycles),
        cap_(cfg.failover_backoff_cap_cycles) {}

  // May this client try `node` for an attempt decided at cycle `at`?
  bool Usable(uint32_t node, uint64_t at) const {
    const State& s = state_[node];
    return s.consecutive < unhealthy_after_ || at >= s.next_probe;
  }

  void Fail(uint32_t node, uint64_t at) {
    State& s = state_[node];
    ++s.consecutive;
    if (s.consecutive >= unhealthy_after_) {
      const uint32_t excess =
          std::min<uint32_t>(s.consecutive - unhealthy_after_, 16);
      const uint64_t backoff = std::min(cap_, base_ << excess);
      s.next_probe = at + backoff;
    }
  }

  void Success(uint32_t node) { state_[node] = State{}; }

 private:
  struct State {
    uint32_t consecutive = 0;
    uint64_t next_probe = 0;
  };
  std::vector<State> state_;
  uint32_t unhealthy_after_;
  uint64_t base_;
  uint64_t cap_;
};

enum class SubmitStatus : uint8_t {
  kOk,          // accepted; a response will arrive
  kRefused,     // node killed/draining at the attempt's arrival time
  kRetryAfter,  // admission queue full (backpressure)
};

// Response status values (ResponseMsg::status).
inline constexpr uint64_t kStatusMiss = 0;
inline constexpr uint64_t kStatusOk = 1;
inline constexpr uint64_t kStatusRetryAfter = 2;  // server-side NACK

// Per-node post-run report.
struct NodeReport {
  uint32_t node = 0;
  std::string machine_name;
  bool killed = false;   // a kill window targeted this node
  bool drained = false;  // a drain window targeted this node
  uint64_t served = 0;   // requests answered (ok or miss)
  uint64_t nacks = 0;    // server-side retry-after responses
  uint64_t batches = 0;
  uint64_t applied_replications = 0;  // replica writes applied
  uint64_t repl_skipped_dead = 0;     // replica writes skipped: peer killed
  uint64_t hints_stored = 0;          // replica writes buffered for a
                                      // draining peer
  uint64_t hints_replayed = 0;
  uint64_t hints_dropped = 0;  // peer died before rejoining
  double write_amplification = 1.0;
  std::vector<ShardPolicy> shard_policies;  // empty when ungoverned
};

// One phase of the cluster run (steady / during-failure / post-recovery),
// bucketed by scheduled submit time.
struct ClusterPhase {
  std::string name;
  uint64_t from = 0;  // run-relative [from, to)
  uint64_t to = 0;
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t puts = 0;
  double throughput_per_mcycle = 0.0;
  LatencySummary get_latency;
  LatencySummary put_latency;
};

struct ClusterResult {
  uint64_t cycles = 0;  // serving-window span (max over node machines)
  uint64_t ops = 0;     // requests resolved ok/miss
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t failed_gets = 0;    // GET misses
  uint64_t gave_up = 0;        // abandoned after max_attempts passes
  uint64_t refusals = 0;       // client-side refusals (node faulted)
  uint64_t nacks = 0;          // server-side retry-after responses
  uint64_t retries = 0;        // admission-queue backpressure events
  uint64_t failovers = 0;      // requests resolved by a non-primary node
  uint64_t acked_puts = 0;     // PUTs acknowledged ok
  uint64_t lost_acked_puts = 0;  // acked PUTs on NO live node (must be 0)
  LatencySummary get_latency;
  LatencySummary put_latency;
  std::vector<ClusterPhase> phases;
  std::vector<NodeReport> nodes;
  // Per-request outcome log "c=<id> seq=<n> op=.. key=.. node=.. status=..",
  // sorted by (client, seq); empty unless ClusterRunOptions.record_outcomes.
  std::string outcome_log;

  double ThroughputPerMcycle() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(ops) * 1e6 /
                             static_cast<double>(cycles);
  }
};

struct ClusterRunOptions {
  // Run-relative phase boundaries; k marks split the run into k+1 phases
  // named phase0..phasek (the bench labels steady/failure/recovered).
  std::vector<uint64_t> phase_marks;
  bool record_outcomes = false;
};

class KvCluster {
 public:
  // One MachineConfig per node (cfg.cluster_nodes of them; num_cores is
  // overridden with the cluster's core budget). `injector` may be null (no
  // faults); it must outlive the cluster and is consumed through the
  // node-fault queries only — device-level kinds are not auto-attached.
  // Throws std::invalid_argument on config problems.
  KvCluster(const ServeConfig& config, std::vector<MachineConfig> nodes,
            FaultInjector* injector = nullptr);
  ~KvCluster();

  const ServeConfig& config() const { return config_; }
  const ShardRouter& router() const { return router_; }
  FaultInjector* injector() { return injector_; }
  uint32_t num_nodes() const { return config_.cluster_nodes; }
  uint32_t num_shards() const { return config_.num_shards; }
  uint32_t num_drivers() const { return config_.ycsb.threads; }
  uint32_t num_clients() const {
    return config_.logical_clients != 0 ? config_.logical_clients
                                        : config_.ycsb.threads;
  }

  Machine& machine(uint32_t node);
  KvStore& store(uint32_t node, uint32_t shard);

  uint32_t ShardFor(uint64_t key) const {
    return static_cast<uint32_t>(ZipfianGenerator::FnvHash64(key) %
                                 config_.num_shards);
  }

  // Loads every key onto each node of its replica set. Idempotent.
  void Preload();

  // Run lifecycle. `origin` anchors run-relative time: every node-fault
  // window and every schedule cycle is relative to it.
  void BeginRun(uint64_t origin);
  uint64_t origin() const { return origin_; }
  uint64_t RelTime(uint64_t abs) const {
    return abs > origin_ ? abs - origin_ : 0;
  }
  void DriversDone();  // all drivers resolved all their requests

  // Client side (drivers). `driver` doubles as the injector's
  // rejection-log lane. req.not_before must carry the attempt's arrival
  // time (decision + one net hop).
  SubmitStatus TrySubmit(uint32_t driver, uint32_t node,
                         const RequestMsg& req);
  bool HasResponse(uint32_t node, uint32_t driver);
  bool TryGetResponse(uint32_t node, uint32_t driver, ResponseMsg* out);
  Core& driver_core(uint32_t driver, uint32_t node);

  // Shard worker loop for (node, shard); runs until every driver is done,
  // queues are drained, and hints are replayed or dropped.
  void WorkerLoop(uint32_t node, uint32_t shard);

  // ---- Post-run inspection (call after the run has returned) ----
  std::vector<NodeReport> NodeReports() const;
  // Applied-write token: identifies one acknowledged PUT across replicas.
  static uint64_t Token(uint64_t client, uint64_t seq) {
    return (client << 32) | (seq & 0xffffffffULL);
  }
  // Was `token` applied on at least one node that was never killed? The
  // zero-lost-acked-writes check.
  bool AppliedOnLiveNode(uint64_t token) const;
  // Was it applied on `node` specifically (hinted-handoff verification)?
  bool AppliedOn(uint32_t node, uint64_t token) const;
  bool NodeEverKilled(uint32_t node) const;
  bool NodeEverDrained(uint32_t node) const;

 private:
  struct ReplChannel;
  struct NodeShard;
  struct Node;

  // Worker-loop pieces (all run in (node, shard)'s worker body).
  void DrainRepl(Core& core, uint32_t node, uint32_t shard,
                 std::vector<SimAddr>* touched, bool* progress);
  void ServeOne(Core& core, uint32_t node, uint32_t shard,
                const RequestMsg& req, std::vector<SimAddr>* touched);
  void Respond(Core& core, uint32_t node, const ResponseMsg& resp);
  // Replica write at the coordinator: push to every live placement peer,
  // hint the draining ones, skip the dead ones.
  void Replicate(Core& core, uint32_t node, uint32_t shard,
                 const RequestMsg& req, std::vector<SimAddr>* touched);
  void SendRepl(Core& core, uint32_t from, uint32_t to, uint32_t shard,
                const RequestMsg& rec, std::vector<SimAddr>* touched);
  void ApplyRepl(Core& core, uint32_t node, uint32_t shard,
                 const RequestMsg& rec, std::vector<SimAddr>* touched);
  void ReplayHints(Core& core, uint32_t node, uint32_t shard, bool* progress,
                   bool* unresolved, uint64_t* next_replay,
                   std::vector<SimAddr>* touched);
  void BuildAppliedSets() const;

  ServeConfig config_;
  ShardRouter router_;
  FaultInjector* injector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // channels_[from][to][shard]: X9Inbox on node `to`'s machine, written
  // through a dedicated ingress core of that machine (one per (sender,
  // shard), so each channel has exactly one writing body).
  std::vector<std::vector<std::vector<std::unique_ptr<ReplChannel>>>>
      channels_;
  uint64_t origin_ = 0;
  bool drivers_done_ = false;
  uint32_t workers_send_done_ = 0;
  bool preloaded_ = false;

  // Lazy post-run cache of per-node applied-token sets.
  mutable std::vector<std::unordered_set<uint64_t>> applied_sets_;
  mutable bool applied_built_ = false;
};

// Runs the open-loop cluster YCSB workload: N*S shard workers plus
// ycsb.threads drivers multiplexing num_clients() logical open-loop
// clients, all bodies of one baton runner in (round, node, core) order with
// the drivers last. Preloads on first use; stats cover the serving window
// only. See DESIGN.md §11.
ClusterResult RunClusterYcsb(KvCluster& cluster,
                             const ClusterRunOptions& options = {});

}  // namespace prestore

#endif  // SRC_SERVE_CLUSTER_H_
