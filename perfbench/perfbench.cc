// Benchmark runner: runs one named workload through the simulator's public
// entry points, repeating a fixed unit of work ("rep": set up, measured
// window, checks) until a host-time budget is spent, and prints one JSON
// result line (see perfbench/run.py and BENCHMARK.json).
//
//   perfbench --workload=replay-hit --seed=42 --seconds=10 --trace=0
//
// Every rep builds its machine(s) from scratch. For a workload declared
// exact, every simulated number is then a pure function of config and seed:
// the reps of a run are compared exactly (simulated metrics and sim_digest)
// and a mismatch marks the run incorrect. Host times are medians over the
// reps.
//
// --trace=1 alternates untraced and traced reps. A traced rep records a
// span (name, start, end, parent) around each call into the simulator and
// reads the layer counters at each span's end; spans stay in memory and are
// written to --spans=FILE at exit. Per-layer metrics come from traced reps,
// and the ratio of traced to untraced throughput is the tracing overhead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/robust/fault_injector.h"
#include "src/robust/governor.h"
#include "src/serve/cluster.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"
#include "src/util/cli.h"
#include "src/util/stats.h"

using namespace prestore;

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

// ---------------------------------------------------------------- digests

class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= v & 0xff;
      h_ *= 0x100000001b3ULL;
      v >>= 8;
    }
  }
  void Mix(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Mix(bits);
  }
  void Mix(const LatencySummary& s) {
    Mix(s.count);
    Mix(s.p50);
    Mix(s.p95);
    Mix(s.p99);
    Mix(s.p999);
    Mix(s.max);
  }
  void Mix(const MachineStats& h) {
    Mix(h.llc_hits);
    Mix(h.llc_misses);
    Mix(h.llc_evictions);
    Mix(h.back_invalidations);
    Mix(h.interventions);
    Mix(h.wbq_stall_cycles);
    Mix(h.dir_upgrades);
  }
  void Mix(const ShardPolicy& p) {
    Mix(uint64_t{p.shard});
    Mix(uint64_t{p.regions});
    Mix(uint64_t{p.backed_off_regions});
    Mix(p.admitted);
    Mix(p.suppressed);
    Mix(p.rewrites);
    Mix(p.useless);
    Mix(uint64_t{p.backoffs});
    Mix(uint64_t{p.reopens});
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ----------------------------------------------------------- layer counters

// Simulated per-layer counters summed over every core and target device of
// the given machines. Deterministic for a deterministic workload.
Metrics ReadLayerCounters(const std::vector<Machine*>& machines) {
  CoreStats c;
  MachineStats h;
  DeviceStats d;
  for (Machine* m : machines) {
    for (uint32_t i = 0; i < m->num_cores(); ++i) {
      const CoreStats& s = m->core(i).stats();
      c.l1_hits += s.l1_hits;
      c.l1_misses += s.l1_misses;
      c.fence_stall_cycles += s.fence_stall_cycles;
      c.prestores_clean += s.prestores_clean;
      c.prestores_demote += s.prestores_demote;
      c.prestores_suppressed += s.prestores_suppressed;
      c.cycles_wb_pending += s.cycles_wb_pending;
      c.cycles_load_miss += s.cycles_load_miss;
      c.loads += s.loads;
      c.stores += s.stores;
    }
    const MachineStats hs = m->hierarchy_stats();
    h.llc_hits += hs.llc_hits;
    h.llc_misses += hs.llc_misses;
    h.llc_evictions += hs.llc_evictions;
    h.back_invalidations += hs.back_invalidations;
    h.interventions += hs.interventions;
    h.wbq_stall_cycles += hs.wbq_stall_cycles;
    h.dir_upgrades += hs.dir_upgrades;
    const DeviceStats ds = m->target().Stats();
    d.reads += ds.reads;
    d.writes += ds.writes;
    d.bytes_received += ds.bytes_received;
    d.media_bytes_written += ds.media_bytes_written;
    d.directory_accesses += ds.directory_accesses;
  }
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto f = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.core.loads", f(c.loads)},
      {"sim.core.stores", f(c.stores)},
      {"sim.core.l1_hit_ratio", ratio(c.l1_hits, c.l1_hits + c.l1_misses)},
      {"sim.core.l1_misses", f(c.l1_misses)},
      {"sim.core.load_miss_cycles", f(c.cycles_load_miss)},
      {"sim.core.wb_pending_cycles", f(c.cycles_wb_pending)},
      {"sim.core.fence_stall_cycles", f(c.fence_stall_cycles)},
      {"sim.core.prestores_clean", f(c.prestores_clean)},
      {"sim.core.prestores_demote", f(c.prestores_demote)},
      {"sim.core.prestores_suppressed", f(c.prestores_suppressed)},
      {"sim.llc.hits", f(h.llc_hits)},
      {"sim.llc.misses", f(h.llc_misses)},
      {"sim.llc.hit_ratio", ratio(h.llc_hits, h.llc_hits + h.llc_misses)},
      {"sim.llc.evictions", f(h.llc_evictions)},
      {"sim.llc.back_invalidations", f(h.back_invalidations)},
      {"sim.machine.interventions", f(h.interventions)},
      {"sim.machine.dir_upgrades", f(h.dir_upgrades)},
      {"sim.machine.wbq_stall_cycles", f(h.wbq_stall_cycles)},
      {"sim.device.target_reads", f(d.reads)},
      {"sim.device.target_writes", f(d.writes)},
      {"sim.device.bytes_received", f(d.bytes_received)},
      {"sim.device.media_bytes_written", f(d.media_bytes_written)},
      {"sim.device.directory_accesses", f(d.directory_accesses)},
      {"write_amp", d.bytes_received == 0
                        ? 1.0
                        : ratio(d.media_bytes_written, d.bytes_received)},
  };
}

// ------------------------------------------------------------------ tracing

struct Span {
  std::string name;
  int rep = 0;
  int parent = -1;  // index into the span log, -1 for a rep's root
  double start_s = 0.0;
  double end_s = 0.0;
  Metrics counters;  // layer counters read at the span's end
};

// Times the calls of one rep. With tracing on it also keeps every span (and
// the layer counters read at its end) for the span log.
class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}

  // Starts rep `rep`'s root span.
  void BeginRep(int rep, bool traced, const std::string& root_name) {
    rep_ = rep;
    traced_ = traced;
    children_s_ = 0.0;
    root_start_ = Now();
    root_index_ = -1;
    if (traced_) {
      root_index_ = static_cast<int>(spans_.size());
      spans_.push_back(Span{root_name, rep, -1, root_start_, 0.0, {}});
    }
  }

  // Runs `fn` inside a child span of the rep's root; returns its seconds.
  // `reader`, when set, supplies the layer counters at the span's end.
  double Child(const char* name, const std::function<void()>& fn,
               const std::function<Metrics()>& reader = nullptr) {
    const double start = Now();
    fn();
    const double end = Now();
    children_s_ += end - start;
    if (traced_) {
      spans_.push_back(Span{name, rep_, root_index_, start, end,
                            reader ? reader() : Metrics{}});
    }
    return end - start;
  }

  // Ends the root span; returns {root seconds, seconds its children cover}.
  std::pair<double, double> EndRep() {
    const double end = Now();
    if (traced_) {
      spans_[root_index_].end_s = end;
    }
    return {end - root_start_, children_s_};
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int rep_ = 0;
  bool traced_ = false;
  int root_index_ = -1;
  double root_start_ = 0.0;
  double children_s_ = 0.0;
};

// -------------------------------------------------------------- workloads

struct Options {
  uint64_t seed = 42;
  bool small = false;  // reduced sizes, for the determinism self-test
};

// What one rep measured. `sim` holds the simulated metrics (bit-identical
// across the reps of an exact workload); the host times are per-rep samples.
struct Rep {
  double ctor_s = 0.0;
  double trace_gen_s = 0.0;
  double preload_s = 0.0;
  double warmup_s = 0.0;
  double window_s = 0.0;
  uint64_t ops = 0;  // accesses (replay) or requests answered (serve)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  Metrics sim;

  double setup_s() const {
    return ctor_s + trace_gen_s + preload_s + warmup_s;
  }
};

struct Workload {
  const char* name;
  uint32_t host_threads;
  // Whether every simulated result is a pure function of config and seed.
  // Reps of an exact workload that disagree make the run incorrect; for an
  // inexact one the disagreement is only reported (sim.rep_variants) and
  // its simulated metrics are medians over the reps.
  bool exact;
  std::function<Rep(const Options&, Recorder&)> run;
};

// replay-*: ReplaySliced on Machine A, 4 simulated cores driven by one host
// thread. miss_mix=0 keeps the private stream in an L1-resident hot head;
// miss_mix=1 draws it from a 16 MB cold tail against the 2 MB LLC.
Rep RunReplay(const Options& o, Recorder& rec, bool miss) {
  ReplayTraceConfig cfg;
  cfg.workers = 4;
  cfg.ops_per_worker = miss ? (o.small ? 25000 : 500000)
                            : (o.small ? 100000 : 2000000);
  cfg.keys_per_worker = miss ? 16384 : 4096;
  cfg.value_size = 256;
  cfg.read_ratio = 0.5;
  cfg.clean_period = 8;
  cfg.miss_mix = miss ? 1.0 : 0.0;
  cfg.seed = o.seed;
  ReplaySlicedOptions sliced;
  sliced.host_threads = 1;

  Rep rep;
  std::unique_ptr<Machine> machine;
  const auto counters = [&] { return ReadLayerCounters({machine.get()}); };
  rep.ctor_s = rec.Child("sim.Machine", [&] {
    machine = std::make_unique<Machine>(MachineA(cfg.workers));
  });
  ReplayTrace trace;
  rep.trace_gen_s = rec.Child(
      "sim.GenerateReplayTrace",
      [&] { trace = GenerateReplayTrace(*machine, cfg); }, counters);
  ReplayResult r;
  rep.window_s = rec.Child(
      "sim.ReplaySliced", [&] { r = ReplaySliced(*machine, trace, sliced); },
      counters);
  rec.Child("sim.DigestMachine",
            [&] { rep.digest = DigestMachine(*machine, cfg.workers); });

  rep.sim = ReadLayerCounters({machine.get()});
  rep.sim["sim_cycles"] = static_cast<double>(r.sim_cycles);
  // Output check: the engine executed every load and store of the trace.
  const uint64_t executed = static_cast<uint64_t>(
      rep.sim["sim.core.loads"] + rep.sim["sim.core.stores"]);
  rep.ops = trace.total_accesses;
  rep.attempted = trace.total_accesses;
  rep.failed = executed > rep.attempted ? executed - rep.attempted
                                        : rep.attempted - executed;
  rec.Child("teardown", [&] {
    trace = ReplayTrace{};
    machine.reset();
  });
  return rep;
}

void AddLatencyMetrics(const LatencySummary& get, const LatencySummary& put,
                       Metrics* m) {
  (*m)["serve.get_samples"] = static_cast<double>(get.count);
  (*m)["serve.put_samples"] = static_cast<double>(put.count);
  (*m)["serve.get_p50_cycles"] = get.p50;
  (*m)["serve.get_p99_cycles"] = get.p99;
  (*m)["serve.put_p99_cycles"] = put.p99;
}

// serve-kv: one CLHT shard and one closed-loop YCSB-A client (2 host
// threads) on Machine A, batched clean, governor attached, unmeasured
// warm-up. A single client never fills a batch: every request waits out
// the batch window.
Rep RunServeKv(const Options& o, Recorder& rec) {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;
  cfg.ycsb.num_keys = 8192;
  cfg.ycsb.value_size = 1024;
  cfg.ycsb.threads = 1;
  cfg.ycsb.ops_per_thread = o.small ? 400 : 16000;
  cfg.ycsb.arena_slots = 512;
  cfg.ycsb.seed = o.seed;
  cfg.index = ServeIndex::kClht;
  cfg.num_shards = 1;
  cfg.batch_max = 8;
  cfg.batch_window_cycles = 4000;
  cfg.batched_clean = true;
  cfg.governed = true;
  const uint32_t warmup_ops = o.small ? 50 : 200;
  MachineConfig mc = MachineA(cfg.num_shards + cfg.ycsb.threads);
  mc.target.media_cycles_per_byte = 0.9;

  Rep rep;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<KvServer> server;
  const auto counters = [&] { return ReadLayerCounters({machine.get()}); };
  rep.ctor_s = rec.Child("serve.KvServer", [&] {
    machine = std::make_unique<Machine>(mc);
    server = std::make_unique<KvServer>(*machine, cfg);
  });
  rep.preload_s = rec.Child(
      "serve.KvServer::Preload", [&] { server->Preload(); }, counters);
  rep.warmup_s = rec.Child(
      "serve.ServeYcsb.warmup",
      [&] {
        server->SetWorkload(cfg.ycsb.workload, warmup_ops);
        ServeYcsb(*machine, *server);
        server->SetWorkload(cfg.ycsb.workload, cfg.ycsb.ops_per_thread);
      },
      counters);
  ServeResult r;
  rep.window_s = rec.Child(
      "serve.ServeYcsb", [&] { r = ServeYcsb(*machine, *server); }, counters);
  PrestoreGovernor::Snapshot gov;
  rec.Child("robust.PrestoreGovernor::TakeSnapshot",
            [&] { gov = server->governor()->TakeSnapshot(); });

  Fnv fnv;
  for (uint64_t v : {r.cycles, r.ops, r.gets, r.puts, r.failed_gets,
                     r.retries, r.batches}) {
    fnv.Mix(v);
  }
  fnv.Mix(r.write_amplification);
  fnv.Mix(r.hierarchy);
  fnv.Mix(r.get_latency);
  fnv.Mix(r.put_latency);
  for (const ShardPolicy& p : r.shard_policies) {
    fnv.Mix(p);
  }
  rep.digest = fnv.value();

  rep.sim = ReadLayerCounters({machine.get()});
  rep.sim["sim_cycles"] = static_cast<double>(r.cycles);
  AddLatencyMetrics(r.get_latency, r.put_latency, &rep.sim);
  rep.sim["serve.batches"] = static_cast<double>(r.batches);
  rep.sim["serve.batch_fill"] = r.BatchFill();
  rep.sim["serve.retries"] = static_cast<double>(r.retries);
  rep.sim["robust.attempts"] = static_cast<double>(gov.attempts);
  rep.sim["robust.admitted"] = static_cast<double>(gov.admitted);
  rep.sim["robust.suppressed"] = static_cast<double>(gov.suppressed);
  rep.sim["robust.admit_ratio"] =
      gov.attempts == 0 ? 0.0
                        : static_cast<double>(gov.admitted) /
                              static_cast<double>(gov.attempts);

  // Output checks (kv_server_cli's rule): every client answers exactly
  // ops_per_thread requests, plus one GET per write under closed-loop kF
  // (read-modify-write); no GET may miss after the preload.
  uint64_t expected =
      static_cast<uint64_t>(cfg.ycsb.threads) * cfg.ycsb.ops_per_thread;
  if (cfg.ycsb.workload == YcsbWorkload::kF && !cfg.open_loop) {
    expected += r.puts;
  }
  rep.ops = r.ops;
  rep.attempted = expected;
  rep.failed = r.failed_gets +
               (r.ops > expected ? r.ops - expected : expected - r.ops);
  rec.Child("teardown", [&] {
    server.reset();
    machine.reset();
  });
  return rep;
}

// serve-cluster: 3 nodes (A, B-Fast, B-Slow), 1 shard each, R=3, one
// load-generating thread carrying one open-loop client at max_inflight=1
// (4 host threads), node 1 killed half-way through the schedule.
Rep RunServeCluster(const Options& o, Recorder& rec) {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;
  cfg.ycsb.num_keys = 4096;
  cfg.ycsb.value_size = 512;
  cfg.ycsb.threads = 1;
  cfg.ycsb.ops_per_thread = o.small ? 600 : 20000;
  cfg.ycsb.arena_slots = 256;
  cfg.ycsb.seed = o.seed;
  cfg.num_shards = 1;
  cfg.batch_max = 8;
  cfg.batch_window_cycles = 800;
  cfg.batched_clean = true;
  cfg.open_loop = true;
  cfg.open_loop_interval = 10000;
  cfg.max_inflight = 1;
  cfg.logical_clients = 1;
  cfg.cluster_nodes = 3;
  cfg.replication_factor = 3;
  const uint64_t span = cfg.open_loop_interval * cfg.ycsb.ops_per_thread;
  cfg.settle_cycles = span / 8;
  // kv_cluster_cli --kill_node=1 --kill_at=50: one kill window whose mean
  // period is half the schedule span, placed by the plan's seeded jitter.
  FaultPlan plan;
  plan.seed = 29;
  plan.specs.push_back(FaultSpec{.kind = FaultKind::kNodeKill,
                                 .mean_period_cycles = span / 2,
                                 .duration_cycles = 1,
                                 .magnitude = 1.0,
                                 .count = 1,
                                 .node = 1});

  Rep rep;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<KvCluster> cluster;
  const auto machines = [&] {
    std::vector<Machine*> out;
    for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
      out.push_back(&cluster->machine(n));
    }
    return out;
  };
  const auto counters = [&] { return ReadLayerCounters(machines()); };
  rep.ctor_s = rec.Child("serve.KvCluster", [&] {
    injector = std::make_unique<FaultInjector>(plan);
    cluster = std::make_unique<KvCluster>(
        cfg,
        std::vector<MachineConfig>{MachineA(1), MachineBFast(1),
                                   MachineBSlow(1)},
        injector.get());
  });
  rep.preload_s = rec.Child(
      "serve.KvCluster::Preload", [&] { cluster->Preload(); }, counters);
  ClusterRunOptions options;
  for (const FaultWindow& w : injector->schedule()) {
    if (w.start_cycle > 0 && w.start_cycle < span) {
      options.phase_marks.push_back(w.start_cycle);
    }
  }
  ClusterResult r;
  rep.window_s = rec.Child(
      "serve.RunClusterYcsb", [&] { r = RunClusterYcsb(*cluster, options); },
      counters);

  Fnv fnv;
  for (uint64_t v : {r.cycles, r.ops, r.gets, r.puts, r.failed_gets,
                     r.gave_up, r.refusals, r.nacks, r.retries, r.failovers,
                     r.acked_puts, r.lost_acked_puts}) {
    fnv.Mix(v);
  }
  fnv.Mix(r.get_latency);
  fnv.Mix(r.put_latency);
  for (const ClusterPhase& p : r.phases) {
    for (uint64_t v : {p.from, p.to, p.ops, p.gets, p.puts}) {
      fnv.Mix(v);
    }
    fnv.Mix(p.get_latency);
    fnv.Mix(p.put_latency);
  }
  uint64_t batches = 0;
  uint64_t repl_applied = 0;
  uint64_t repl_skipped = 0;
  uint64_t hints_stored = 0;
  uint64_t hints_replayed = 0;
  for (const NodeReport& n : r.nodes) {
    for (uint64_t v : {n.served, n.nacks, n.batches, n.applied_replications,
                       n.repl_skipped_dead, n.hints_stored, n.hints_replayed,
                       n.hints_dropped}) {
      fnv.Mix(v);
    }
    fnv.Mix(n.write_amplification);
    batches += n.batches;
    repl_applied += n.applied_replications;
    repl_skipped += n.repl_skipped_dead;
    hints_stored += n.hints_stored;
    hints_replayed += n.hints_replayed;
  }
  rep.digest = fnv.value();

  rep.sim = ReadLayerCounters(machines());
  rep.sim["sim_cycles"] = static_cast<double>(r.cycles);
  AddLatencyMetrics(r.get_latency, r.put_latency, &rep.sim);
  const auto f = [](uint64_t v) { return static_cast<double>(v); };
  rep.sim["serve.batches"] = f(batches);
  rep.sim["serve.batch_fill"] =
      batches == 0 ? 0.0 : f(r.ops) / f(batches);
  rep.sim["serve.retries"] = f(r.retries);
  rep.sim["serve.cluster.failovers"] = f(r.failovers);
  rep.sim["serve.cluster.refusals"] = f(r.refusals);
  rep.sim["serve.cluster.nacks"] = f(r.nacks);
  rep.sim["serve.cluster.gave_up"] = f(r.gave_up);
  rep.sim["serve.cluster.repl_applied"] = f(repl_applied);
  rep.sim["serve.cluster.repl_skipped_dead"] = f(repl_skipped);
  rep.sim["serve.cluster.hints_stored"] = f(hints_stored);
  rep.sim["serve.cluster.hints_replayed"] = f(hints_replayed);
  for (size_t k = 0; k < r.phases.size() && k < 2; ++k) {
    const std::string prefix = "serve.cluster.phase" + std::to_string(k);
    rep.sim[prefix + ".get_p99_cycles"] = r.phases[k].get_latency.p99;
    rep.sim[prefix + ".get_samples"] = f(r.phases[k].get_latency.count);
  }

  // Output checks: every scheduled request resolves, none is abandoned, no
  // GET misses, and no acknowledged PUT is missing from every live node.
  const uint64_t expected =
      static_cast<uint64_t>(cluster->num_clients()) * cfg.ycsb.ops_per_thread;
  const uint64_t resolved = r.ops + r.gave_up;
  rep.ops = r.ops;
  rep.attempted = expected;
  rep.failed = r.failed_gets + r.gave_up + r.lost_acked_puts +
               (resolved > expected ? resolved - expected
                                    : expected - resolved);
  rec.Child("teardown", [&] {
    cluster.reset();
    injector.reset();
  });
  return rep;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"replay-hit", 1, true,
       [](const Options& o, Recorder& r) { return RunReplay(o, r, false); }},
      {"replay-miss", 1, true,
       [](const Options& o, Recorder& r) { return RunReplay(o, r, true); }},
      {"serve-kv", 2, true, RunServeKv},
      // The node machines' shard workers and the client thread run free on
      // their own host threads, and cores of one machine are driven from several
      // of them (replication ingress), so coherence traffic, the settling
      // flush and with them the window span vary with host scheduling.
      {"serve-cluster", 4, false, RunServeCluster},
  };
  return kWorkloads;
}

// ------------------------------------------------------------------ output

// The per-layer metrics a traced run reports, for every workload; a layer
// the workload does not load reads 0.
const char* const kPerLayer[] = {
    "sim.core.loads", "sim.core.stores", "sim.core.l1_hit_ratio",
    "sim.core.l1_misses", "sim.core.load_miss_cycles",
    "sim.core.wb_pending_cycles", "sim.core.fence_stall_cycles",
    "sim.core.prestores_clean", "sim.core.prestores_demote",
    "sim.core.prestores_suppressed",
    "sim.llc.hits", "sim.llc.misses", "sim.llc.hit_ratio",
    "sim.llc.evictions", "sim.llc.back_invalidations",
    "sim.machine.interventions", "sim.machine.dir_upgrades",
    "sim.machine.wbq_stall_cycles",
    "sim.device.target_reads", "sim.device.target_writes",
    "sim.device.bytes_received", "sim.device.media_bytes_written",
    "sim.device.directory_accesses", "sim.rep_variants",
    "host.machine_ctor_s", "host.trace_gen_s", "host.preload_s",
    "host.warmup_s", "host.window_s", "host.ns_per_op", "host.uncovered_s",
    "host.threads", "host.traced_ops_per_s", "host.untraced_ops_per_s",
    "host.trace_overhead_ratio",
    "serve.batches", "serve.batch_fill", "serve.retries",
    "serve.get_samples", "serve.put_samples", "serve.get_p50_cycles",
    "serve.get_p99_cycles", "serve.put_p99_cycles",
    "serve.cluster.failovers", "serve.cluster.refusals",
    "serve.cluster.nacks", "serve.cluster.gave_up",
    "serve.cluster.repl_applied", "serve.cluster.repl_skipped_dead",
    "serve.cluster.hints_stored", "serve.cluster.hints_replayed",
    "serve.cluster.phase0.get_p99_cycles", "serve.cluster.phase0.get_samples",
    "serve.cluster.phase1.get_p99_cycles", "serve.cluster.phase1.get_samples",
    "robust.attempts", "robust.admitted", "robust.suppressed",
    "robust.admit_ratio",
    "fail_frac",
};

// A p99 needs at least 10 samples beyond it, so at least 1000 in all.
bool EnoughForP99(const Metrics& sim) {
  for (const char* count :
       {"serve.get_samples", "serve.put_samples",
        "serve.cluster.phase0.get_samples",
        "serve.cluster.phase1.get_samples"}) {
    const auto it = sim.find(count);
    if (it != sim.end() && it->second < 1000.0) {
      std::fprintf(stderr, "perfbench: %s = %.0f is too few for a p99\n",
                   count, it->second);
      return false;
    }
  }
  return true;
}

double Median(const std::vector<double>& xs) {
  Percentiles p;
  for (double x : xs) {
    p.Add(x);
  }
  return p.Median();
}

uint32_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("ops_per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (name == "host.ns_per_op") return "ns";
  if (ends("_mb")) return "MB";
  if (ends("bytes_received") || ends("bytes_written")) return "bytes";
  if (ends("cycles")) return "cycles";
  if (ends("ratio") || ends("_amp") || ends("batch_fill") ||
      ends("fail_frac")) {
    return "ratio";
  }
  if (name == "host.threads") return "threads";
  return "count";
}

void PrintMetrics(const Metrics& m, bool correct, uint64_t attempted,
                  uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, Unit(name).c_str());
    first = false;
  }
  std::printf("}}\n");
}

void WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"spans\": [\n", workload.c_str(), seed);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"rep\": %d, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"counters\": {",
                 i, s.name.c_str(), s.rep, s.parent, s.start_s, s.end_s);
    bool first = true;
    for (const auto& [name, value] : s.counters) {
      std::fprintf(out, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                   value);
      first = false;
    }
    std::fprintf(out, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

void PrintUsage() {
  std::printf(
      "perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]\n"
      "          [--small] [--spans=FILE]\n"
      "workloads: replay-hit, replay-miss, serve-kv, serve-cluster\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  const auto unknown = flags.UnknownFlags(
      {"workload", "seed", "seconds", "trace", "small", "spans"});
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "perfbench: unknown flag --%s\n", flag.c_str());
    }
    return 2;
  }
  const std::string name = flags.GetString("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    PrintUsage();
    return 2;
  }
  const uint32_t cpus = HostCpus();
  if (workload->host_threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u host threads but only %u CPUs are "
                 "available; refusing to run it oversubscribed\n",
                 workload->name, workload->host_threads, cpus);
    return 2;
  }
  Options options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.small = flags.GetBool("small", false);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  // Enough reps for a median; tracing alternates untraced/traced reps, so
  // it needs at least two of each.
  const int min_reps = trace ? 4 : 3;

  const Clock::time_point origin = Clock::now();
  Recorder rec(origin);
  std::vector<Rep> reps;
  std::vector<bool> traced;
  bool spans_conserved = true;
  std::vector<double> uncovered_s;
  // Start another rep only while it is expected to end within the budget.
  double last_rep_s = 0.0;
  const auto more = [&] {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - origin).count();
    return static_cast<int>(reps.size()) < min_reps ||
           elapsed + last_rep_s <= seconds;
  };
  try {
    while (more()) {
      const int i = static_cast<int>(reps.size());
      const bool traced_rep = trace && i % 2 == 1;
      rec.BeginRep(i, traced_rep, workload->name);
      reps.push_back(workload->run(options, rec));
      const auto [root_s, children_s] = rec.EndRep();
      last_rep_s = root_s;
      traced.push_back(traced_rep);
      if (traced_rep) {
        uncovered_s.push_back(root_s - children_s);
        spans_conserved = spans_conserved && children_s <= root_s;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name,
                 e.what());
    return 1;
  }

  // Determinism: count the distinct simulated results among the reps.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<const Rep*> variants;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    const bool seen = std::any_of(
        variants.begin(), variants.end(), [&](const Rep* v) {
          return v->digest == r.digest && v->sim == r.sim;
        });
    if (seen) {
      continue;
    }
    variants.push_back(&r);
    if (variants.size() > 1) {
      std::fprintf(stderr,
                   "perfbench: %s rep results differ: digest %016" PRIx64
                   " vs %016" PRIx64 "\n",
                   workload->exact ? "ERROR" : "note (inexact workload)",
                   r.digest, reps[0].digest);
      for (const auto& [key, value] : r.sim) {
        if (reps[0].sim.at(key) != value) {
          std::fprintf(stderr, "  %s: %.17g vs %.17g\n", key.c_str(), value,
                       reps[0].sim.at(key));
        }
      }
    }
  }
  if (!options.small && !EnoughForP99(reps[0].sim)) {
    return 2;  // the workload is configured too small to report its tail
  }
  if (!spans_conserved) {
    std::fprintf(stderr, "perfbench: child spans exceed their root span\n");
  }
  const bool correct = failed == 0 && spans_conserved &&
                       (!workload->exact || variants.size() == 1);
  std::printf("workload=%s seed=%" PRIu64 " reps=%zu host_threads=%u "
              "exact=%d sim_variants=%zu sim_digest=%016" PRIx64 "\n",
              workload->name, options.seed, reps.size(),
              workload->host_threads, workload->exact ? 1 : 0,
              variants.size(), reps[0].digest);

  // Simulated metrics: the median over the reps (all equal when exact).
  Metrics sim;
  for (const auto& entry : reps[0].sim) {
    std::vector<double> xs;
    for (const Rep& r : reps) {
      xs.push_back(r.sim.at(entry.first));
    }
    sim[entry.first] = Median(xs);
  }

  const auto collect = [&](bool want_traced,
                           const std::function<double(const Rep&)>& f) {
    std::vector<double> xs;
    for (size_t i = 0; i < reps.size(); ++i) {
      if (traced[i] == want_traced) {
        xs.push_back(f(reps[i]));
      }
    }
    return Median(xs);
  };
  const auto ops_per_s = [](const Rep& r) {
    return static_cast<double>(r.ops) / r.window_s;
  };

  Metrics out;
  if (!trace) {
    out["host_ops_per_s"] = collect(false, ops_per_s);
    out["setup_s"] = collect(false, [](const Rep& r) { return r.setup_s(); });
    out["rss_peak_mb"] = PeakRssMb();
    out["sim_cycles"] = sim.at("sim_cycles");
    out["write_amp"] = sim.at("write_amp");
  } else {
    Metrics layer = sim;
    layer["sim.rep_variants"] = static_cast<double>(variants.size());
    layer["host.machine_ctor_s"] =
        collect(true, [](const Rep& r) { return r.ctor_s; });
    layer["host.trace_gen_s"] =
        collect(true, [](const Rep& r) { return r.trace_gen_s; });
    layer["host.preload_s"] =
        collect(true, [](const Rep& r) { return r.preload_s; });
    layer["host.warmup_s"] =
        collect(true, [](const Rep& r) { return r.warmup_s; });
    layer["host.window_s"] =
        collect(true, [](const Rep& r) { return r.window_s; });
    layer["host.ns_per_op"] = collect(true, [](const Rep& r) {
      return r.window_s * 1e9 / static_cast<double>(r.ops);
    });
    layer["host.uncovered_s"] = Median(uncovered_s);
    layer["host.threads"] = workload->host_threads;
    const double traced_ops = collect(true, ops_per_s);
    const double untraced_ops = collect(false, ops_per_s);
    layer["host.traced_ops_per_s"] = traced_ops;
    layer["host.untraced_ops_per_s"] = untraced_ops;
    layer["host.trace_overhead_ratio"] = traced_ops / untraced_ops;
    layer["fail_frac"] = attempted == 0 ? 0.0
                                      : static_cast<double>(failed) /
                                            static_cast<double>(attempted);
    for (const char* name : kPerLayer) {
      const auto it = layer.find(name);
      out[name] = it == layer.end() ? 0.0 : it->second;
    }
    const std::string spans_path = flags.GetString("spans", "");
    if (!spans_path.empty()) {
      WriteSpans(spans_path, workload->name, options.seed, rec.spans());
    }
  }
  PrintMetrics(out, correct, attempted, failed);
  return correct ? 0 : 1;
}
