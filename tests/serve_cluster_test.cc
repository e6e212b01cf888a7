// The replicated serving cluster (DESIGN.md §11): consistent-hash
// placement properties, R-way replication reaching every replica,
// kill-failover with zero lost acknowledged writes, drain-rejoin hinted
// handoff, and byte-identical replay of the request outcome log and the
// injector event log under the same seed + fault plan.
//
// Every cluster run here uses max_inflight = 1 — the fully deterministic
// regime (see the cluster_loadgen.cc header): each logical client has at
// most one request outstanding, so its health view and failover decisions
// are a pure function of its own schedule.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/robust/fault_injector.h"
#include "src/serve/cluster.h"

namespace prestore {
namespace {

ServeConfig SmallCluster(uint32_t nodes, uint32_t replication) {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;
  cfg.ycsb.num_keys = 512;
  cfg.ycsb.value_size = 256;
  cfg.ycsb.threads = 2;  // driver host threads
  cfg.ycsb.ops_per_thread = 60;
  cfg.ycsb.arena_slots = 64;
  cfg.num_shards = 2;
  cfg.batch_max = 4;
  cfg.batch_window_cycles = 600;
  cfg.open_loop = true;
  cfg.open_loop_interval = 40000;
  cfg.max_inflight = 1;
  cfg.logical_clients = 4;
  cfg.cluster_nodes = nodes;
  cfg.replication_factor = replication;
  cfg.virtual_nodes = 32;
  cfg.net_latency_cycles = 500;
  return cfg;
}

std::vector<MachineConfig> Nodes(uint32_t count) {
  std::vector<MachineConfig> configs;
  for (uint32_t n = 0; n < count; ++n) {
    switch (n % 3) {
      case 0:
        configs.push_back(MachineA(1));
        break;
      case 1:
        configs.push_back(MachineBFast(1));
        break;
      default:
        configs.push_back(MachineBSlow(1));
        break;
    }
  }
  return configs;
}

uint64_t SpanOf(const ServeConfig& cfg) {
  return cfg.open_loop_interval *
         static_cast<uint64_t>(cfg.ycsb.ops_per_thread);
}

FaultPlan OneNodeFault(FaultKind kind, uint32_t node, uint64_t at,
                       uint64_t duration, double magnitude = 1.0) {
  FaultPlan plan;
  plan.seed = 29;
  plan.specs.push_back(FaultSpec{.kind = kind,
                                 .mean_period_cycles = at,
                                 .duration_cycles = duration,
                                 .magnitude = magnitude,
                                 .count = 1,
                                 .node = node});
  return plan;
}

}  // namespace

TEST(ShardRouterTest, PlacementIsDistinctDeterministicAndCovering) {
  const ShardRouter router(5, 64, 3, 0x5ca1ab1e);
  const ShardRouter router2(5, 64, 3, 0x5ca1ab1e);
  std::set<uint32_t> primaries;
  for (uint64_t key = 1; key <= 4096; ++key) {
    uint32_t a[3];
    uint32_t b[3];
    router.Placement(key, a);
    router2.Placement(key, b);
    // Deterministic: independent routers with the same seed agree.
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(a[i], b[i]);
      EXPECT_LT(a[i], 5u);
    }
    // Distinct replicas.
    EXPECT_NE(a[0], a[1]);
    EXPECT_NE(a[0], a[2]);
    EXPECT_NE(a[1], a[2]);
    EXPECT_EQ(a[0], router.Primary(key));
    primaries.insert(a[0]);
  }
  // Coverage: with 64 virtual points per node, every node is primary for
  // some key in a few thousand draws.
  EXPECT_EQ(primaries.size(), 5u);
}

TEST(ShardRouterTest, FullReplicationPlacesOnEveryNode) {
  const ShardRouter router(3, 32, 3, 1);
  for (uint64_t key = 1; key <= 256; ++key) {
    uint32_t out[3];
    router.Placement(key, out);
    std::set<uint32_t> nodes(out, out + 3);
    EXPECT_EQ(nodes.size(), 3u);
  }
}

TEST(KvClusterTest, ReplicationReachesEveryReplica) {
  const ServeConfig cfg = SmallCluster(3, 2);
  KvCluster cluster(cfg, Nodes(3), nullptr);
  ClusterRunOptions options;
  options.record_outcomes = true;
  const ClusterResult r = RunClusterYcsb(cluster, options);

  EXPECT_EQ(r.gave_up, 0u);
  EXPECT_EQ(r.refusals, 0u);
  EXPECT_GT(r.acked_puts, 0u);
  EXPECT_EQ(r.lost_acked_puts, 0u);

  // Every acked PUT is applied on BOTH nodes of its placement: semi-sync
  // replication enqueues the replica write before the ack.
  uint64_t checked = 0;
  std::istringstream in(r.outcome_log);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long client = 0;
    unsigned long long seq = 0;
    unsigned long long key = 0;
    char op[8] = {0};
    int node = -1;
    char status[8] = {0};
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "c=%llu seq=%llu op=%7[a-z] key=%llu node=%d "
                          "status=%7[a-z]",
                          &client, &seq, op, &key, &node, status),
              6)
        << line;
    if (std::string(op) != "put" || std::string(status) != "ok") {
      continue;
    }
    const uint64_t token = KvCluster::Token(client, seq);
    uint32_t placement[2];
    cluster.router().Placement(key, placement);
    EXPECT_TRUE(cluster.AppliedOn(placement[0], token)) << line;
    EXPECT_TRUE(cluster.AppliedOn(placement[1], token)) << line;
    ++checked;
  }
  EXPECT_EQ(checked, r.acked_puts);

  // Replica traffic actually flowed (not everything coordinated locally).
  uint64_t applied = 0;
  for (const NodeReport& n : r.nodes) {
    applied += n.applied_replications;
  }
  EXPECT_GT(applied, 0u);
}

TEST(KvClusterTest, KillFailoverLosesNoAckedWrites) {
  const ServeConfig cfg = SmallCluster(3, 3);
  FaultInjector injector(
      OneNodeFault(FaultKind::kNodeKill, 1, SpanOf(cfg) / 2, 1));
  KvCluster cluster(cfg, Nodes(3), &injector);
  ASSERT_TRUE(cluster.NodeEverKilled(1));
  ASSERT_FALSE(cluster.NodeEverKilled(0));

  const ClusterResult r = RunClusterYcsb(cluster);
  // Every request resolves: two live replicas absorb the kill.
  EXPECT_EQ(r.gave_up, 0u);
  EXPECT_EQ(r.ops, static_cast<uint64_t>(cluster.num_clients()) *
                       cfg.ycsb.ops_per_thread);
  // The kill was hit and detoured around.
  EXPECT_GT(r.refusals + r.nacks, 0u);
  EXPECT_GT(r.failovers, 0u);
  // The durability bar.
  EXPECT_GT(r.acked_puts, 0u);
  EXPECT_EQ(r.lost_acked_puts, 0u);
  ASSERT_EQ(r.nodes.size(), 3u);
  EXPECT_TRUE(r.nodes[1].killed);
  EXPECT_FALSE(r.nodes[0].killed);
  // Live coordinators skipped replicating to the dead node.
  EXPECT_GT(r.nodes[0].repl_skipped_dead + r.nodes[2].repl_skipped_dead, 0u);
}

TEST(KvClusterTest, DrainRejoinReplaysHintedHandoff) {
  ServeConfig cfg = SmallCluster(3, 3);
  cfg.ycsb.ops_per_thread = 80;
  // Drain node 2 for a window in the middle of the run; it rejoins well
  // before the schedule ends.
  const uint64_t at = SpanOf(cfg) / 3;
  const uint64_t duration = SpanOf(cfg) / 4;
  FaultInjector injector(
      OneNodeFault(FaultKind::kNodeDrain, 2, at, duration));
  KvCluster cluster(cfg, Nodes(3), &injector);
  ASSERT_TRUE(cluster.NodeEverDrained(2));
  ASSERT_FALSE(cluster.NodeEverKilled(2));

  ClusterRunOptions options;
  options.record_outcomes = true;
  const ClusterResult r = RunClusterYcsb(cluster, options);
  EXPECT_EQ(r.gave_up, 0u);
  EXPECT_EQ(r.lost_acked_puts, 0u);
  ASSERT_EQ(r.nodes.size(), 3u);
  EXPECT_TRUE(r.nodes[2].drained);

  // Coordinators buffered hints for the drained node and replayed them on
  // rejoin; nothing was dropped (the node was never killed).
  uint64_t stored = 0;
  uint64_t replayed = 0;
  uint64_t dropped = 0;
  for (const NodeReport& n : r.nodes) {
    stored += n.hints_stored;
    replayed += n.hints_replayed;
    dropped += n.hints_dropped;
  }
  EXPECT_GT(stored, 0u);
  EXPECT_EQ(replayed, stored);
  EXPECT_EQ(dropped, 0u);

  // After replay the rejoined node holds EVERY acked write placed on it,
  // including those acked while it was draining (R=3: placement is all
  // nodes).
  std::istringstream in(r.outcome_log);
  std::string line;
  uint64_t checked = 0;
  while (std::getline(in, line)) {
    unsigned long long client = 0;
    unsigned long long seq = 0;
    unsigned long long key = 0;
    char op[8] = {0};
    int node = -1;
    char status[8] = {0};
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "c=%llu seq=%llu op=%7[a-z] key=%llu node=%d "
                          "status=%7[a-z]",
                          &client, &seq, op, &key, &node, status),
              6)
        << line;
    if (std::string(op) != "put" || std::string(status) != "ok") {
      continue;
    }
    EXPECT_TRUE(cluster.AppliedOn(2, KvCluster::Token(client, seq)))
        << "acked write missing on rejoined node: " << line;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(KvClusterTest, DegradeSlowsButServesEverything) {
  ServeConfig cfg = SmallCluster(2, 2);
  const uint64_t at = SpanOf(cfg) / 3;
  FaultInjector injector(OneNodeFault(FaultKind::kNodeDegrade, 0, at,
                                      SpanOf(cfg) / 3, /*magnitude=*/15000));
  KvCluster cluster(cfg, Nodes(2), &injector);
  const ClusterResult r = RunClusterYcsb(cluster);
  EXPECT_EQ(r.gave_up, 0u);
  EXPECT_EQ(r.refusals, 0u);  // degrade throttles, it does not refuse
  EXPECT_EQ(r.lost_acked_puts, 0u);
  EXPECT_EQ(r.ops, static_cast<uint64_t>(cluster.num_clients()) *
                       cfg.ycsb.ops_per_thread);
}

TEST(KvClusterTest, GovernedReplicasKeepPolicyDuringHandoffReplay) {
  // The governor stays attached on every replica while hints replay: the
  // run must complete with per-shard policy telemetry on every node.
  ServeConfig cfg = SmallCluster(3, 3);
  cfg.ycsb.ops_per_thread = 80;
  cfg.governed = true;
  cfg.governor.window_hints = 8;
  cfg.governor.probe_period = 16;
  cfg.governor.probe_window = 4;
  cfg.governor.global_eval_window = 64;
  FaultInjector injector(OneNodeFault(FaultKind::kNodeDrain, 1,
                                      SpanOf(cfg) / 3, SpanOf(cfg) / 4));
  KvCluster cluster(cfg, Nodes(3), &injector);
  const ClusterResult r = RunClusterYcsb(cluster);
  EXPECT_EQ(r.gave_up, 0u);
  EXPECT_EQ(r.lost_acked_puts, 0u);
  for (const NodeReport& n : r.nodes) {
    EXPECT_EQ(n.shard_policies.size(), cfg.num_shards) << "node " << n.node;
  }
}

void ExpectSameLatency(const LatencySummary& a, const LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
  EXPECT_EQ(a.max, b.max);
}

TEST(KvClusterTest, OutcomeAndEventLogsReplayByteIdentically) {
  // The whole cluster runs in one baton order (DESIGN.md §11), so the
  // outcome log, the injector's event log and every latency percentile
  // replay byte-identically — with one request in flight per client and
  // with a pipeline of four.
  for (const uint32_t inflight : {1u, 4u}) {
    ServeConfig cfg = SmallCluster(3, 3);
    cfg.logical_clients = 2;  // == ycsb.threads driver lanes
    cfg.max_inflight = inflight;
    if (inflight > 1) {
      cfg.open_loop_interval = 10000;  // keep several requests in flight
    }

    auto run = [&cfg](std::string* events) {
      FaultInjector injector(
          OneNodeFault(FaultKind::kNodeKill, 0, SpanOf(cfg) / 2, 1));
      KvCluster cluster(cfg, Nodes(3), &injector);
      ClusterRunOptions options;
      options.record_outcomes = true;
      const ClusterResult r = RunClusterYcsb(cluster, options);
      *events = injector.EventLog();
      return r;
    };

    std::string events_a;
    std::string events_b;
    const ClusterResult a = run(&events_a);
    const ClusterResult b = run(&events_b);
    SCOPED_TRACE("max_inflight=" + std::to_string(inflight));
    ASSERT_FALSE(a.outcome_log.empty());
    EXPECT_EQ(a.outcome_log, b.outcome_log);
    EXPECT_EQ(events_a, events_b);
    EXPECT_GT(a.refusals + a.nacks, 0u);  // the log contains fault traffic
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.acked_puts, b.acked_puts);
    EXPECT_EQ(a.lost_acked_puts, 0u);
    EXPECT_EQ(a.cycles, b.cycles);
    ExpectSameLatency(a.get_latency, b.get_latency);
    ExpectSameLatency(a.put_latency, b.put_latency);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t k = 0; k < a.phases.size(); ++k) {
      ExpectSameLatency(a.phases[k].get_latency, b.phases[k].get_latency);
      ExpectSameLatency(a.phases[k].put_latency, b.phases[k].put_latency);
    }
  }
}

TEST(KvClusterTest, PreloadPlacesKeysOnReplicaSetOnly) {
  ServeConfig cfg = SmallCluster(3, 2);
  cfg.ycsb.num_keys = 128;
  KvCluster cluster(cfg, Nodes(3), nullptr);
  cluster.Preload();
  for (uint64_t key = 1; key <= cfg.ycsb.num_keys; ++key) {
    uint32_t placement[2];
    cluster.router().Placement(key, placement);
    const uint32_t shard = cluster.ShardFor(key);
    for (uint32_t n = 0; n < 3; ++n) {
      const bool is_replica = n == placement[0] || n == placement[1];
      const SimAddr value =
          cluster.store(n, shard).Get(cluster.machine(n).core(shard), key);
      EXPECT_EQ(value != 0, is_replica) << "key " << key << " node " << n;
    }
  }
}

}  // namespace prestore
