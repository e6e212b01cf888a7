// Parallel-execution harness: runs a workload body on N simulated cores and
// reports simulated elapsed cycles. The bodies run under the deterministic
// baton runner (baton.h): one coroutine per body, one body at a time, in
// (round, core) order — so a run's result is a pure function of its inputs.
#ifndef SRC_SIM_HARNESS_H_
#define SRC_SIM_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "src/sim/baton.h"
#include "src/sim/machine.h"

namespace prestore {

struct RunParallelOptions {
  // Wall-clock watchdog: if the workers have not all finished within this
  // many milliseconds, the harness prints per-core clock diagnostics and
  // aborts the process (a wedged simulated core must fail the run, not hang
  // CTest forever). 0 = take the default from the PRESTORE_WATCHDOG_MS
  // environment variable (absent/0 = watchdog disabled).
  uint64_t watchdog_ms = 0;
};

namespace harness_internal {

inline uint64_t DefaultWatchdogMs() {
  static const uint64_t ms = [] {
    const char* env = std::getenv("PRESTORE_WATCHDOG_MS");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : 0ULL;
  }();
  return ms;
}

}  // namespace harness_internal

// Aligns all core clocks, runs fn(core, thread_index) on cores [0, nthreads),
// and returns the simulated cycle count of the slowest core (the paper's
// notion of parallel runtime).
//
// An exception thrown by `fn` on any worker is captured (first one wins),
// the remaining workers run to completion, and the exception is rethrown on
// the caller — it does not call std::terminate.
inline uint64_t RunParallel(Machine& machine, uint32_t nthreads,
                            const std::function<void(Core&, uint32_t)>& fn,
                            const RunParallelOptions& options = {}) {
  const uint64_t start = machine.AlignCores();
  const uint64_t watchdog_ms = options.watchdog_ms != 0
                                   ? options.watchdog_ms
                                   : harness_internal::DefaultWatchdogMs();
  if (nthreads <= 1 && watchdog_ms == 0) {
    fn(machine.core(0), 0);
  } else {
    BatonOptions baton;
    baton.watchdog_ms = watchdog_ms;
    BatonRunner runner(start, baton);
    for (uint32_t i = 0; i < nthreads; ++i) {
      char label[16];
      std::snprintf(label, sizeof(label), "core %2u", i);
      runner.Add(label, machine.core(i),
                 [&fn, &machine, i] { fn(machine.core(i), i); });
    }
    runner.Run();
  }
  uint64_t end = start;
  for (uint32_t i = 0; i < nthreads; ++i) {
    end = std::max(end, machine.core(i).now());
  }
  return end - start;
}

// Single-core convenience: returns simulated cycles of fn on core 0.
inline uint64_t RunOnCore(Machine& machine, const std::function<void(Core&)>& fn) {
  Core& core = machine.core(0);
  const uint64_t start = core.now();
  fn(core);
  return core.now() - start;
}

}  // namespace prestore

#endif  // SRC_SIM_HARNESS_H_
