// Deterministic baton runner: the one execution mode for multi-body
// simulations (DESIGN.md §12).
//
// Every body keeps its straight-line code, but only the body holding the
// baton runs. Bodies are stackful coroutines on the thread that calls
// Run(): each has its own stack, and passing the baton is a context switch.
// Bodies take turns in (round, body) order: round r visits the bodies in
// registration order and gives each live body whose clock is short of the
// round deadline one slice. A slice ends — the body passes the baton to the
// next body in that order — when
//  - the body's clock reaches the deadline (checked by its Core at the
//    start of every op, or by the body itself via RoundDeadline()),
//  - the body calls WaitForPeers() because it cannot progress until another
//    body runs (an empty inbox, a held lock, an awaited response), or
//  - the body returns or throws.
// The deadline advances by one quantum after a round in which some live
// body reached it; a round in which every live body stopped short of it
// (all of them waiting) keeps it, so waiting never lets the deadline run
// away from the simulated clocks. Rounds that would give no body a slice
// are skipped, and so is a waiting body while nothing it could be waiting
// for has changed (no simulated op on its machine, no body finished, same
// deadline). Every decision reads simulated state only, so a run is a pure
// function of its inputs: same seed, same interleaving, same result.
#ifndef SRC_SIM_BATON_H_
#define SRC_SIM_BATON_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/device.h"

namespace prestore {

class Core;
class Machine;

// Simulated cycles per round. Within a round the bodies run one after
// another, so a body late in round order reserves shared-device bandwidth
// after bodies whose clocks have run up to one round ahead of its own. The
// device meters tolerate exactly BandwidthMeter::kWindow cycles of such
// skew (device.h), so a round is no longer than that window.
inline constexpr uint64_t kBatonQuantum = BandwidthMeter::kWindow;

struct BatonOptions {
  // Wall-clock watchdog: if the bodies have not all finished within this
  // many milliseconds, print per-body diagnostics and abort. 0 = off.
  uint64_t watchdog_ms = 0;
  // Watchdog message prefix ("<name> watchdog: ...").
  std::string name = "RunParallel";
};

class BatonRunner {
 public:
  using Clock = std::function<uint64_t()>;

  // `start` is the simulated time the run begins at; round 0's deadline is
  // start + kBatonQuantum.
  BatonRunner(uint64_t start, const BatonOptions& options);
  ~BatonRunner();

  BatonRunner(const BatonRunner&) = delete;
  BatonRunner& operator=(const BatonRunner&) = delete;

  // Registers a body whose clock is `core`'s: the core's ops end the slice
  // at the round deadline.
  void Add(std::string label, Core& core, std::function<void()> body);
  // Registers a body with its own notion of simulated time (e.g. a load
  // driver's arrival schedule). It reads RoundDeadline() and ends its
  // slices itself.
  void Add(std::string label, Clock clock, std::function<void()> body);

  // Runs every body to completion on the calling thread. An exception
  // thrown by a body ends that body only; the others run on, and the first
  // exception (in execution order) is rethrown here once all bodies have
  // finished.
  void Run();

 private:
  struct Body;
  struct Context;
  friend void WaitForPeers();
  friend uint64_t RoundDeadline();
  friend void YieldAtDeadline(const Core& core);

  static void BodyEntry(unsigned hi, unsigned lo);
  // Ends the calling body's slice (`waiting`: in WaitForPeers) and returns
  // at the start of its next one.
  void Yield(Body& body, bool waiting);
  // The body that gets the next slice, searching the current round from
  // body `index` on; nullptr once no body is live.
  Body* NextFrom(size_t index);
  // Suspends `from` (nullptr: the caller of Run(); `last`: never resumed)
  // and resumes `to` (nullptr: the caller of Run()).
  void SwitchTo(Body* from, Body* to, bool last = false);
  bool Eligible(const Body& body) const;
  uint64_t Work(const Body& body) const;
  void NewRound();
  void BeginSlice(Body& body);
  [[noreturn]] void WatchdogAbort();

  BatonOptions options_;
  uint64_t deadline_;
  std::vector<std::unique_ptr<Body>> bodies_;
  std::vector<Machine*> machines_;  // every machine a core body runs on
  std::unique_ptr<Context> caller_;  // the context Run() was called from
  size_t live_ = 0;
  bool granted_in_round_ = false;
  bool force_ = false;  // offer idle bodies a slice this round
  std::exception_ptr first_error_;
};

// Inside a body: end this slice because the body cannot make progress until
// another body runs. The body resumes in the next round. No-op outside a
// runner.
void WaitForPeers();

// Inside a body: the current round's deadline (UINT64_MAX outside a runner).
uint64_t RoundDeadline();

// Called by `core` when an op starts at or past its slice deadline: ends the
// slice of the body that owns the core.
void YieldAtDeadline(const Core& core);

}  // namespace prestore

#endif  // SRC_SIM_BATON_H_
