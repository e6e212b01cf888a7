#include "src/kv/ycsb.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/sim/harness.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace prestore {

double YcsbReadRatio(YcsbWorkload w) {
  switch (w) {
    case YcsbWorkload::kA:
    case YcsbWorkload::kF:
      return 0.5;
    case YcsbWorkload::kB:
    case YcsbWorkload::kD:
      return 0.95;
    case YcsbWorkload::kC:
      return 1.0;
  }
  return 0.5;
}

namespace {

void RequireValid(const YcsbConfig& config) {
  const std::string error = config.Validate();
  if (!error.empty()) {
    throw std::invalid_argument("YcsbConfig: " + error);
  }
}

}  // namespace

std::string YcsbConfig::Validate() const {
  if (num_keys == 0) {
    return "num_keys must be > 0";
  }
  if (threads == 0) {
    return "threads must be > 0";
  }
  if (value_size == 0 || value_size % 8 != 0) {
    return "value_size must be a positive multiple of 8";
  }
  if (arena_slots == 0) {
    return "arena_slots must be > 0";
  }
  // theta == 1.0 makes the zipfian alpha exponent 1/(1-theta) infinite;
  // theta > 1 needs the other branch of the YCSB formula, which this
  // generator does not implement.
  if (zipf_theta < 0.0 || zipf_theta >= 1.0) {
    return "zipf_theta must be in [0, 1)";
  }
  return "";
}

void YcsbLoad(Machine& machine, KvStore& store, const YcsbConfig& config) {
  RequireValid(config);
  const FuncToken craft_func{
      machine.registry().Intern("craftValue", "ycsb.cc:55")};
  const uint64_t per_thread =
      (config.num_keys + config.threads - 1) / config.threads;
  std::vector<std::unique_ptr<ValueArena>> arenas;
  for (uint32_t t = 0; t < config.threads; ++t) {
    arenas.push_back(std::make_unique<ValueArena>(
        machine, config.arena_slots, config.value_size));
  }
  RunParallel(machine, config.threads, [&](Core& core, uint32_t tid) {
    const uint64_t first = tid * per_thread + 1;
    const uint64_t last =
        std::min<uint64_t>(first + per_thread, config.num_keys + 1);
    for (uint64_t key = first; key < last; ++key) {
      // The load phase pins each key to a dedicated slot so that the
      // transaction phase's recycled arena never overwrites loaded values
      // of keys that are still live.
      const SimAddr slot =
          machine.Alloc(config.value_size, Region::kTarget);
      CraftValue(core, craft_func, slot, config.value_size, key,
                 KvWritePolicy::kBaseline);
      store.Put(core, key, slot);
    }
  });
}

YcsbResult YcsbRun(Machine& machine, KvStore& store,
                   const YcsbConfig& config) {
  RequireValid(config);
  const FuncToken craft_func{
      machine.registry().Intern("craftValue", "ycsb.cc:55")};
  const FuncToken read_func{
      machine.registry().Intern("readValue", "ycsb.cc:80")};
  std::vector<std::unique_ptr<ValueArena>> arenas;
  for (uint32_t t = 0; t < config.threads; ++t) {
    arenas.push_back(std::make_unique<ValueArena>(
        machine, config.arena_slots, config.value_size));
  }
  machine.FlushAll();  // load-phase dirty lines must not pollute run stats
  machine.ResetStats();
  uint64_t failed_gets = 0;
  uint64_t latest_key = config.num_keys;

  const uint64_t cycles = RunParallel(
      machine, config.threads, [&](Core& core, uint32_t tid) {
        Xoshiro256 rng(config.seed * 1315423911ULL + tid);
        ZipfianGenerator zipf(config.num_keys, config.zipf_theta);
        const double read_ratio = YcsbReadRatio(config.workload);
        uint64_t local_failed = 0;
        for (uint32_t op = 0; op < config.ops_per_thread; ++op) {
          uint64_t key;
          if (config.workload == YcsbWorkload::kD) {
            // Read-latest: bias towards recently inserted keys.
            const uint64_t latest = latest_key;
            key = latest - std::min<uint64_t>(zipf.Next(rng), latest - 1);
          } else {
            key = zipf.NextScrambled(rng) + 1;
          }
          const bool is_read = rng.NextDouble() < read_ratio;
          if (is_read) {
            const SimAddr value = store.Get(core, key);
            if (value == 0) {
              ++local_failed;
              continue;
            }
            // Consume the value (sequential read).
            ScopedFunction f(core, read_func);
            uint64_t sum = 0;
            for (uint32_t off = 0; off < config.value_size; off += 8) {
              sum += core.LoadU64(value + off);
            }
            core.Execute(sum % 3 + 1);
          } else {
            uint64_t put_key = key;
            if (config.workload == YcsbWorkload::kD) {
              put_key = ++latest_key;
            }
            if (config.workload == YcsbWorkload::kF) {
              // Read-modify-write: read the current value before crafting
              // the replacement.
              const SimAddr old_value = store.Get(core, put_key);
              if (old_value != 0) {
                ScopedFunction f(core, read_func);
                uint64_t sum = 0;
                for (uint32_t off = 0; off < config.value_size; off += 8) {
                  sum += core.LoadU64(old_value + off);
                }
                core.Execute(sum % 3 + 1);
              }
            }
            const SimAddr slot = arenas[tid]->NextSlot();
            CraftValue(core, craft_func, slot, config.value_size, put_key,
                       config.policy);
            store.Put(core, put_key, slot);
          }
        }
        failed_gets += local_failed;
      });

  machine.FlushAll();
  YcsbResult result;
  result.cycles = cycles;
  result.ops =
      static_cast<uint64_t>(config.threads) * config.ops_per_thread;
  result.failed_gets = failed_gets;
  result.write_amplification = machine.target().Stats().WriteAmplification();
  return result;
}

}  // namespace prestore
