// Deterministic time-sliced scheduler for run-to-completion slice tasks
// (the sliced trace replay): runs N simulated cores on M host threads in
// fixed-quantum rounds (DESIGN.md §12).
//
// Cores advance in ROUNDS: round r gives every core with pending work one
// slice, running it until its simulated clock reaches the round deadline
// `start + (r+1) * quantum`. Cores therefore stay loosely synchronized in
// simulated time (within one quantum) no matter how many host threads
// drive them — an 8-core simulation runs fine on a 1-CPU host. The baton
// runner (baton.h) applies the same (round, core) order to bodies written
// as straight-line code.
//
// Determinism contract: slices execute in a single global order —
// (round, core index), cores ascending — and slice k is executed by host
// thread k % M with a release/acquire turn handoff between consecutive
// slices. Host threads take turns; they never run simulated work
// concurrently. M therefore affects which OS thread's stack a slice runs
// on and nothing else, so the end-state digest of a sliced run is
// bit-identical for every M (tests/sim_determinism_test.cc proves it for
// M in {1,2,4}).
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/machine.h"

namespace prestore {

struct SchedulerConfig {
  // Host threads taking turns executing slices. More than one adds no
  // speed (see the determinism contract above); it exists so tests and CI
  // can prove host-thread-count independence.
  uint32_t host_threads = 1;
  // Simulated cycles per round. Smaller quanta keep cores more tightly
  // synchronized in simulated time; larger quanta amortize scheduling.
  uint64_t quantum = 20000;

  // Throws std::invalid_argument on a meaningless config (quantum == 0
  // would spin forever; host_threads == 0 has nobody to run slices).
  void Validate() const;
};

class SimScheduler {
 public:
  // A unit of schedulable work bound to one core. Called with the round
  // deadline; must either advance the core's simulated clock or return
  // true (done). Returning false with the clock short of the deadline is
  // allowed (the slice loop re-invokes it); returning false without
  // advancing the clock is not (the round could never end).
  using SliceFn = std::function<bool(Core& core, uint64_t deadline)>;

  SimScheduler(Machine& machine, const SchedulerConfig& config);

  // Queues a task on core `core`. A core's tasks run in FIFO order; a task
  // that finishes mid-slice yields the rest of the slice to the next task
  // in the same queue.
  void Enqueue(uint32_t core, SliceFn task);

  // Runs rounds until every queue is empty. Returns the simulated cycles
  // elapsed (global time delta).
  uint64_t Run();

 private:
  bool AnyPending() const;
  // One slice: run core `core_idx`'s queue until its clock reaches
  // `deadline` or the queue empties.
  void RunSlice(uint32_t core_idx, uint64_t deadline);
  // The M>1 path: host threads hand slices around in turn.
  void RunHandoff(uint64_t start);

  Machine& machine_;
  SchedulerConfig config_;
  std::vector<std::deque<SliceFn>> queues_;  // one run queue per core
};

}  // namespace prestore

#endif  // SRC_SIM_SCHEDULER_H_
