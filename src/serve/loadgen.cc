#include "src/serve/loadgen.h"

#include <algorithm>
#include <memory>

#include "src/sim/baton.h"
#include "src/sim/harness.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace prestore {

namespace {

// Per-client accounting, merged after the run (one entry per client core,
// so no synchronization is needed while running).
struct ClientCounters {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t failed_gets = 0;
  uint64_t retries = 0;
  LatencyMeter meter;
};

// Consumes a GET hit the way the YCSB driver does (sequential read of the
// value). This is load-bearing: response-value reads are what keep the LLC
// honest about a serving mix — they evict cold arena lines and give the
// governor's probes an eviction-based recovery signal.
void ReadValue(Core& core, FuncToken func, SimAddr value, uint32_t size) {
  ScopedFunction f(core, func);
  uint64_t sum = 0;
  for (uint32_t off = 0; off < size; off += 8) {
    sum += core.LoadU64(value + off);
  }
  core.Execute(sum % 3 + 1);
}

class ClientSession {
 public:
  ClientSession(KvServer& server, Core& core, uint32_t client,
                uint64_t& latest_key, FuncToken read_func,
                ClientCounters& out)
      : server_(server),
        core_(core),
        cfg_(server.config()),
        client_(client),
        latest_key_(latest_key),
        read_func_(read_func),
        out_(out),
        rng_(cfg_.ycsb.seed * 1315423911ULL + client),
        zipf_(cfg_.ycsb.num_keys, cfg_.ycsb.zipf_theta),
        read_ratio_(YcsbReadRatio(cfg_.ycsb.workload)),
        measure_from_(core.now() + cfg_.settle_cycles) {}

  void RunClosedLoop() {
    for (uint32_t op = 0; op < cfg_.ycsb.ops_per_thread; ++op) {
      uint64_t key = 0;
      const bool is_read = NextOp(&key);
      if (is_read) {
        Transact(ServeOp::kGet, key);
      } else {
        if (cfg_.ycsb.workload == YcsbWorkload::kF) {
          Transact(ServeOp::kGet, key);  // read-modify-write: read half
        }
        Transact(ServeOp::kPut, key);
      }
    }
  }

  void RunOpenLoop() {
    const uint32_t total = cfg_.ycsb.ops_per_thread;
    // Stagger the clients across one interval: independent load generators
    // do not fire in lockstep, and a synchronized N-client burst every
    // interval would measure the herd, not the server.
    uint64_t next_send = core_.now() + cfg_.open_loop_interval * client_ /
                                           std::max(1u, cfg_.ycsb.threads);
    uint32_t sent = 0;
    uint32_t inflight = 0;
    ResponseMsg resp;
    while (sent < total || inflight > 0) {
      if (inflight > 0 && server_.HasResponse(client_) &&
          server_.TryGetResponse(core_, client_, &resp)) {
        --inflight;
        Record(resp);
        continue;
      }
      if (sent < total && inflight < cfg_.max_inflight) {
        if (core_.now() < next_send) {
          // Idle until the scheduled arrival. Execute (not SpinPause): the
          // arrival process is externally timed, so the client's clock must
          // be free to run ahead of the server cores — by at most one baton
          // round, which is what keeps open-loop clients within a quantum
          // of each other.
          core_.Execute(
              std::min<uint64_t>(next_send - core_.now(), 256));
          continue;
        }
        uint64_t key = 0;
        const bool is_read = NextOp(&key);
        RequestMsg req;
        req.op = static_cast<uint64_t>(is_read ? ServeOp::kGet
                                               : ServeOp::kPut);
        req.key = key;
        req.client = client_;
        req.seq = ++seq_;
        req.submit_time = next_send;  // scheduled, not actual: queueing
                                      // delay counts (no coordinated
                                      // omission)
        if (server_.TrySubmit(core_, req)) {
          ++sent;
          ++inflight;
          next_send += cfg_.open_loop_interval;
        } else {
          ++out_.retries;
          core_.Execute(cfg_.retry_backoff_cycles);
        }
        continue;
      }
      // At the inflight cap (or drained of sends): pass the baton without
      // advancing the clock; Record clamps the clock to each response's
      // completion. The wait must never advance toward the global maximum
      // clock (SpinPause): that couples every capped client to the fastest
      // core, their response-processing work then stacks serially onto
      // that one shared timeline, and once the combined work rate passes
      // one cycle per cycle the whole run's latencies diverge.
      WaitForPeers();
    }
  }

 private:
  // Picks the next key + op type with the YCSB driver's distributions.
  // Returns true for a read; `*key` is the chosen key (for kD writes, the
  // freshly inserted key).
  bool NextOp(uint64_t* key) {
    if (cfg_.ycsb.workload == YcsbWorkload::kD) {
      const uint64_t latest = latest_key_;
      *key = latest - std::min<uint64_t>(zipf_.Next(rng_), latest - 1);
    } else {
      *key = zipf_.NextScrambled(rng_) + 1;
    }
    const bool is_read = rng_.NextDouble() < read_ratio_;
    if (!is_read && cfg_.ycsb.workload == YcsbWorkload::kD) {
      *key = ++latest_key_;
    }
    return is_read;
  }

  // Closed loop: submit (with backpressure retries) and await the reply.
  void Transact(ServeOp op, uint64_t key) {
    RequestMsg req;
    req.op = static_cast<uint64_t>(op);
    req.key = key;
    req.client = client_;
    req.seq = ++seq_;
    req.submit_time = core_.now();
    while (!server_.TrySubmit(core_, req)) {
      ++out_.retries;
      core_.Execute(cfg_.retry_backoff_cycles);
    }
    ResponseMsg resp;
    // Wait for the worker (see RunOpenLoop): the Peek gate keeps the wait
    // free of per-poll charges, and Record advances the clock to the true
    // service completion.
    while (!(server_.HasResponse(client_) &&
             server_.TryGetResponse(core_, client_, &resp))) {
      WaitForPeers();
    }
    Record(resp);
  }

  void Record(const ResponseMsg& resp) {
    // The response cannot be observed before the server produced it: clamp
    // the client's clock to the completion time (this is what paces a
    // closed-loop client to the service rate), then account latency from
    // the response's own timestamps — see ResponseMsg::completion_time.
    if (resp.completion_time > core_.now()) {
      core_.Execute(resp.completion_time - core_.now());
    }
    if (resp.submit_time >= measure_from_) {  // see ServeConfig::settle_cycles
      out_.meter.Add(static_cast<ServeOp>(resp.op),
                     resp.completion_time - resp.submit_time);
    }
    if (static_cast<ServeOp>(resp.op) == ServeOp::kGet) {
      ++out_.gets;
      if (resp.status == 0) {
        ++out_.failed_gets;
      } else {
        ReadValue(core_, read_func_, resp.value_addr,
                  cfg_.ycsb.value_size);
      }
    } else {
      ++out_.puts;
    }
  }

  KvServer& server_;
  Core& core_;
  const ServeConfig& cfg_;
  const uint32_t client_;
  uint64_t& latest_key_;
  const FuncToken read_func_;
  ClientCounters& out_;
  Xoshiro256 rng_;
  ZipfianGenerator zipf_;
  const double read_ratio_;
  const uint64_t measure_from_;
  uint64_t seq_ = 0;
};

}  // namespace

ServeResult ServeYcsb(Machine& machine, KvServer& server) {
  const ServeConfig& cfg = server.config();
  const uint32_t nshards = server.num_shards();
  const uint32_t nclients = server.num_clients();
  const FuncToken read_func{
      machine.registry().Intern("serveReadValue", "loadgen.cc")};

  server.Preload();
  server.BeginRun();
  machine.FlushAll();  // preload traffic must not pollute the serving stats
  machine.QuiesceDevices();  // ...nor queue the serving window behind it
  machine.ResetStats();

  std::vector<ClientCounters> counters(nclients);
  uint64_t latest_key = cfg.ycsb.num_keys;
  const uint64_t cycles = RunParallel(
      machine, nshards + nclients, [&](Core& core, uint32_t tid) {
        if (tid < nshards) {
          server.ShardWorkerLoop(core, tid);
          return;
        }
        const uint32_t client = tid - nshards;
        ClientSession session(server, core, client, latest_key, read_func,
                              counters[client]);
        if (cfg.open_loop) {
          session.RunOpenLoop();
        } else {
          session.RunClosedLoop();
        }
        server.ClientDone();
      });
  machine.FlushAll();

  ServeResult result;
  result.cycles = cycles;
  LatencyMeter merged;
  for (const ClientCounters& c : counters) {
    result.gets += c.gets;
    result.puts += c.puts;
    result.failed_gets += c.failed_gets;
    result.retries += c.retries;
    merged.Merge(c.meter);
  }
  result.ops = result.gets + result.puts;
  result.batches = server.TotalBatches();
  result.write_amplification = machine.target().Stats().WriteAmplification();
  result.hierarchy = machine.hierarchy_stats();
  result.get_latency = merged.Summary(ServeOp::kGet);
  result.put_latency = merged.Summary(ServeOp::kPut);
  result.shard_policies = server.ShardPolicies();
  return result;
}

}  // namespace prestore
