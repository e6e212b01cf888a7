#include "src/serve/server.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/kv/clht.h"
#include "src/kv/masstree.h"
#include "src/sim/baton.h"
#include "src/sim/harness.h"

namespace prestore {

std::unique_ptr<KvStore> MakeServeStore(Machine& machine, ServeIndex index,
                                        uint64_t keys_per_shard) {
  if (index == ServeIndex::kMasstree) {
    return std::make_unique<Masstree>(machine);
  }
  // CLHT: ~2 keys per 3-slot bucket keeps chains short.
  const uint64_t buckets =
      std::bit_ceil(std::max<uint64_t>(64, keys_per_shard / 2));
  return std::make_unique<ClhtMap>(machine, buckets);
}

std::unique_ptr<ValueArena> MakeShardArena(Machine& machine,
                                           const ServeConfig& config,
                                           uint32_t shard) {
  // Arena regions must belong to exactly one shard for the governor's
  // per-region backoff to act per shard: pad each arena's allocation to
  // whole regions (nothing else in a region ever receives clean hints, so
  // co-residents can't pollute the telemetry). Region-aligned bases are all
  // congruent modulo the target's DIMM-interleave period, though, and the
  // shard workers advance their arena cursors at similar rates — without a
  // per-shard phase stagger every worker writes to the same DIMM at the
  // same time, and the resulting one-DIMM hotspot queues the whole server
  // into a backlog the open-loop load never lets drain.
  const uint64_t arena_align =
      config.governed ? 1ULL << config.governor.region_shift : 0;
  const uint64_t interleave_period =
      static_cast<uint64_t>(machine.config().target.interleave_bytes) *
      std::max(1u, machine.config().target.interleave_dimms);
  const uint64_t arena_phase =
      arena_align != 0
          ? shard * machine.config().target.interleave_bytes %
                std::min<uint64_t>(interleave_period, arena_align)
          : 0;
  return std::make_unique<ValueArena>(machine, config.ycsb.arena_slots,
                                      config.ycsb.value_size, arena_align,
                                      arena_phase);
}

std::vector<ShardPolicy> CollectShardPolicies(
    const PrestoreGovernor* governor,
    const std::vector<const ValueArena*>& arenas) {
  std::vector<ShardPolicy> out;
  if (governor == nullptr) {
    return out;
  }
  const PrestoreGovernor::Snapshot snap = governor->TakeSnapshot();
  out.reserve(arenas.size());
  for (uint32_t s = 0; s < arenas.size(); ++s) {
    const SimAddr base = arenas[s]->span_base();
    const SimAddr end = arenas[s]->base() + arenas[s]->bytes();
    ShardPolicy policy;
    policy.shard = s;
    for (const PrestoreGovernor::RegionSnapshot& region : snap.regions) {
      if (region.region_base < base || region.region_base >= end) {
        continue;
      }
      ++policy.regions;
      if (region.state == RegionBackoff::State::kBackoff) {
        ++policy.backed_off_regions;
      }
      policy.admitted += region.admitted;
      policy.suppressed += region.suppressed;
      policy.rewrites += region.rewrites;
      policy.useless += region.useless;
      policy.backoffs += region.backoffs;
      policy.reopens += region.reopens;
    }
    out.push_back(policy);
  }
  return out;
}

KvServer::KvServer(Machine& machine, const ServeConfig& config)
    : machine_(machine),
      config_(config),
      craft_func_{machine.registry().Intern("serveCraftValue", "server.cc")},
      serve_func_{machine.registry().Intern("serveShardWorker", "server.cc")},
      sweep_func_{machine.registry().Intern("serveBatchSweep", "server.cc")} {
  const std::string error = config_.Validate();
  if (!error.empty()) {
    throw std::invalid_argument("ServeConfig: " + error);
  }
  const uint64_t keys_per_shard =
      config_.ycsb.num_keys / config_.num_shards + 1;
  shards_.resize(config_.num_shards);
  for (uint32_t s = 0; s < config_.num_shards; ++s) {
    shards_[s].store = MakeServeStore(machine_, config_.index, keys_per_shard);
    shards_[s].requests = std::make_unique<X9Inbox>(
        machine_, config_.queue_slots, sizeof(RequestMsg), Region::kDram);
    shards_[s].arena = MakeShardArena(machine_, config_, s);
  }
  for (uint32_t c = 0; c < config_.ycsb.threads; ++c) {
    responses_.push_back(std::make_unique<X9Inbox>(
        machine_, config_.response_slots, sizeof(ResponseMsg),
        Region::kDram));
  }
  if (config_.governed) {
    if (config_.monitored) {
      // Monitored mode (DESIGN.md §13): the governor delegates per-region
      // verdicts to the adaptive monitor, which covers each shard's value
      // arena as its own monitored range — disjoint spans, so one monitor
      // is N per-shard monitors with a shared budget.
      config_.governor.policy = GovernorPolicy::kMonitored;
    }
    governor_ =
        std::make_unique<PrestoreGovernor>(machine_, config_.governor);
    if (config_.monitored) {
      monitor_ = std::make_unique<RegionMonitor>(machine_, config_.monitor);
      for (const Shard& shard : shards_) {
        monitor_->Monitor(shard.arena->span_base(),
                          shard.arena->base() + shard.arena->bytes());
      }
      governor_->SetRegionAdvisor(monitor_.get());
      monitor_->Attach();
    }
    governor_->Attach();
  }
}

void KvServer::Preload() {
  if (preloaded_) {
    return;
  }
  preloaded_ = true;
  const uint32_t vs = config_.ycsb.value_size;
  // One loader core per shard; each loads only its shard's keys so the
  // index structures are built by their owning worker (dedicated value
  // slots, as in YcsbLoad: the run phase's recycled arenas must never
  // overwrite still-live loaded values).
  RunParallel(machine_, config_.num_shards, [&](Core& core, uint32_t s) {
    for (uint64_t key = 1; key <= config_.ycsb.num_keys; ++key) {
      if (ShardFor(key) != s) {
        continue;
      }
      const SimAddr slot = machine_.Alloc(vs, Region::kTarget);
      CraftValue(core, craft_func_, slot, vs, key, KvWritePolicy::kBaseline);
      shards_[s].store->Put(core, key, slot);
    }
  });
}

bool KvServer::TrySubmit(Core& core, const RequestMsg& req) {
  return shards_[ShardFor(req.key)].requests->TryWrite(core, &req,
                                                       MsgPrestore::kOff);
}

bool KvServer::TryGetResponse(Core& core, uint32_t client, ResponseMsg* out) {
  return responses_[client]->TryRead(core, out);
}

void KvServer::BeginRun() {
  clients_done_ = 0;
  for (Shard& shard : shards_) {
    shard.batches = 0;
  }
}

void KvServer::ClientDone() { ++clients_done_; }

void KvServer::SetWorkload(YcsbWorkload workload, uint32_t ops_per_thread) {
  config_.ycsb.workload = workload;
  if (ops_per_thread != 0) {
    config_.ycsb.ops_per_thread = ops_per_thread;
  }
}

void KvServer::ShardWorkerLoop(Core& core, uint32_t shard_idx) {
  Shard& shard = shards_[shard_idx];
  const uint32_t vs = config_.ycsb.value_size;
  const uint32_t nclients = num_clients();
  std::vector<RequestMsg> batch;
  std::vector<SimAddr> touched;
  batch.reserve(config_.batch_max);
  touched.reserve(config_.batch_max);
  RequestMsg req;
  while (true) {
    // Clients only call ClientDone() after receiving every response, so
    // all their requests were consumed before the count rose — an empty
    // queue once every client is done means empty forever.
    batch.clear();
    if (shard.requests->Peek() && shard.requests->TryRead(core, &req)) {
      batch.push_back(req);
    } else if (clients_done_ == nclients) {
      break;
    } else {
      // Idle: pass the baton until a client has submitted (free Peek, no
      // clock advance). An idle worker's clock must be demand-driven — it
      // advances for work and for bounded batch-window waits, never per
      // poll: a failed TryRead costs real cycles, and paying them once per
      // idle slice would make service start times (and every latency
      // derived from them) measure the slice schedule, not the service.
      WaitForPeers();
      continue;
    }
    // The dequeued request sets the worker's time base: the server cannot
    // serve a request before the client sent it, and after an idle period
    // the stagnant clock would otherwise start the batch in the past.
    if (req.submit_time > core.now()) {
      core.Execute(req.submit_time - core.now());
    }
    // Batch window: keep admitting until full or the window closes. The
    // wait is Execute, not SpinPause: it is genuine, bounded sim-time
    // waiting, and SpinPause would leap the clock to the global maximum —
    // which open-loop clients (racing ahead on their arrival schedule)
    // hold far in this worker's future.
    const uint64_t opened = core.now();
    while (batch.size() < config_.batch_max) {
      if (shard.requests->Peek() && shard.requests->TryRead(core, &req)) {
        batch.push_back(req);
        continue;
      }
      if (core.now() - opened >= config_.batch_window_cycles) {
        break;
      }
      core.Execute(24);
    }

    touched.clear();
    for (const RequestMsg& r : batch) {
      ScopedFunction f(core, serve_func_);
      // Causality per request: a batch can admit a message that is host-
      // visible before the worker's clock reaches its submit time.
      if (r.submit_time > core.now()) {
        core.Execute(r.submit_time - core.now());
      }
      ResponseMsg resp;
      resp.op = r.op;
      resp.client = r.client;
      resp.seq = r.seq;
      resp.submit_time = r.submit_time;
      if (static_cast<ServeOp>(r.op) == ServeOp::kGet) {
        const SimAddr value = shard.store->Get(core, r.key);
        resp.status = value != 0 ? 1 : 0;
        resp.value_addr = value;
      } else {
        const SimAddr slot = shard.arena->NextSlot();
        CraftValue(core, craft_func_, slot, vs, r.key,
                   KvWritePolicy::kBaseline);
        shard.store->Put(core, r.key, slot);
        touched.push_back(slot);
        resp.status = 1;
        resp.value_addr = slot;
      }
      resp.completion_time = core.now();  // service done; reply in flight
      // The response ring can be transiently full (open loop at
      // max_inflight) or claimed by another shard answering the same
      // client; both resolve because clients keep draining. The wait
      // passes the baton (CanWrite is free): blocking on the client must
      // not inflate this worker's clock, which times every later
      // completion.
      X9Inbox& out = *responses_[r.client];
      while (!out.TryWrite(core, &resp, config_.response_prestore)) {
        while (!out.CanWrite()) {
          WaitForPeers();
        }
      }
    }

    if (config_.batched_clean && !touched.empty()) {
      // Batch close: one clean sweep over the arena lines this batch
      // dirtied. Writebacks of whole crafted values coalesce here instead
      // of trickling out of the LLC one line at a time (§4.1 / §7.2.3).
      ScopedFunction f(core, sweep_func_);
      for (const SimAddr slot : touched) {
        // Scheme-gated sweep: a slot in a region the monitor has backed
        // off skips its Prestore call entirely (no issue cost, no hook
        // traffic), except the probes AdviseSweep leaks through so the
        // region can recover.
        if (monitor_ != nullptr &&
            monitor_->AdviseSweep(slot, vs) == HintFate::kDrop) {
          ++shard.sweeps_gated;
          continue;
        }
        core.Prestore(slot, vs, PrestoreOp::kClean);
      }
    }
    ++shard.batches;
  }
}

uint64_t KvServer::TotalBatches() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.batches;
  }
  return total;
}

uint64_t KvServer::TotalSweepsGated() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sweeps_gated;
  }
  return total;
}

std::vector<ShardPolicy> KvServer::ShardPolicies() const {
  std::vector<const ValueArena*> arenas;
  arenas.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    arenas.push_back(shard.arena.get());
  }
  return CollectShardPolicies(governor_.get(), arenas);
}

}  // namespace prestore
