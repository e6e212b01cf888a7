#include "src/sim/scheduler.h"

#include <deque>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <vector>

namespace prestore {

void SchedulerConfig::Validate() const {
  if (quantum == 0) {
    throw std::invalid_argument(
        "scheduler: quantum must be > 0 simulated cycles");
  }
  if (host_threads == 0) {
    throw std::invalid_argument("scheduler: host_threads must be > 0");
  }
}

SimScheduler::SimScheduler(Machine& machine, const SchedulerConfig& config)
    : machine_(machine), config_(config) {
  config_.Validate();
  queues_.resize(machine.config().num_cores);
}

void SimScheduler::Enqueue(uint32_t core, SliceFn task) {
  queues_.at(core).push_back(std::move(task));
}

bool SimScheduler::AnyPending() const {
  for (const auto& q : queues_) {
    if (!q.empty()) {
      return true;
    }
  }
  return false;
}

void SimScheduler::RunSlice(uint32_t core_idx, uint64_t deadline) {
  Core& core = machine_.core(core_idx);
  std::deque<SliceFn>& q = queues_[core_idx];
  while (!q.empty() && core.now() < deadline) {
    if (q.front()(core, deadline)) {
      q.pop_front();
    }
  }
}

uint64_t SimScheduler::Run() {
  const uint64_t start = machine_.GlobalTime();
  if (config_.host_threads <= 1) {
    uint64_t round = 0;
    while (AnyPending()) {
      const uint64_t deadline = start + (round + 1) * config_.quantum;
      for (uint32_t c = 0; c < queues_.size(); ++c) {
        RunSlice(c, deadline);
      }
      ++round;
    }
  } else {
    RunHandoff(start);
  }
  return machine_.GlobalTime() - start;
}

void SimScheduler::RunHandoff(uint64_t start) {
  // Slices execute in the same (round, core) order the serial path uses;
  // slice k belongs to thread k % M, which lets thread (k + 1) % M go once
  // the slice is done. The semaphore handoff orders slice k's writes before
  // slice k+1's reads, so every simulated outcome is independent of M by
  // construction — which is the point: the thread count must be
  // unobservable in the digest.
  const uint32_t m = config_.host_threads;
  std::deque<std::binary_semaphore> turns;
  for (uint32_t id = 0; id < m; ++id) {
    turns.emplace_back(0);
  }
  uint64_t round = 0;
  uint32_t cursor = 0;  // next core index to consider this round
  bool done = false;

  auto worker = [&](uint32_t id) {
    while (true) {
      turns[id].acquire();
      if (done) {
        return;
      }
      // Advance the cursor to the next core with pending work, rolling
      // over to a new round when this one is exhausted.
      while (!done) {
        while (cursor < queues_.size() && queues_[cursor].empty()) {
          ++cursor;
        }
        if (cursor < queues_.size()) {
          break;
        }
        cursor = 0;
        ++round;
        done = !AnyPending();
      }
      if (done) {
        for (uint32_t t = 0; t < m; ++t) {
          if (t != id) {
            turns[t].release();
          }
        }
        return;
      }
      const uint32_t core = cursor++;
      RunSlice(core, start + (round + 1) * config_.quantum);
      turns[(id + 1) % m].release();
    }
  };

  turns[0].release();
  std::vector<std::thread> threads;
  threads.reserve(m);
  for (uint32_t id = 0; id < m; ++id) {
    threads.emplace_back(worker, id);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace prestore
