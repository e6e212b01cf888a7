#include "src/sim/baton.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <semaphore>
#include <thread>

#include "src/sim/core.h"
#include "src/sim/machine.h"

#if defined(__SANITIZE_ADDRESS__)
#define PRESTORE_BATON_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRESTORE_BATON_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PRESTORE_BATON_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PRESTORE_BATON_TSAN 1
#endif
#endif
#ifdef PRESTORE_BATON_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PRESTORE_BATON_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace prestore {

namespace {

// A body's stack: as large as a default Linux thread stack. It is reserved,
// not committed, so only the pages a body touches cost memory.
constexpr size_t kStackBytes = size_t{8} << 20;

// Instructions retired on `machine` so far: every simulated op bumps it.
uint64_t WorkDone(Machine& machine) {
  uint64_t sum = 0;
  for (uint32_t i = 0; i < machine.num_cores(); ++i) {
    sum += machine.core(i).icount();
  }
  return sum;
}

thread_local BatonRunner* tls_runner = nullptr;
thread_local void* tls_body = nullptr;

}  // namespace

// An execution context: a body's coroutine, or the caller of Run().
struct BatonRunner::Context {
  Context() = default;
  // A coroutine stack with a guard page below it.
  explicit Context(size_t bytes) {
    const size_t guard = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    mapping_bytes = bytes + guard;
    void* p = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    mapping = static_cast<char*>(p);
    mprotect(mapping, guard, PROT_NONE);
    bottom = mapping + guard;
    size = bytes;
#ifdef PRESTORE_BATON_TSAN
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }
  ~Context() {
    if (mapping == nullptr) {
      return;
    }
#ifdef PRESTORE_BATON_TSAN
    __tsan_destroy_fiber(tsan_fiber);
#endif
#ifdef PRESTORE_BATON_ASAN
    // Frames that never returned leave poisoned redzones behind; a later
    // mapping at this address must not inherit them.
    ASAN_UNPOISON_MEMORY_REGION(bottom, size);
#endif
    munmap(mapping, mapping_bytes);
  }
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  ucontext_t uc{};
  char* mapping = nullptr;
  size_t mapping_bytes = 0;
  // Stack bounds, for AddressSanitizer's fiber-switch annotations. The
  // caller's are learned on the first switch away from it.
  void* bottom = nullptr;
  size_t size = 0;
  void* fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

struct BatonRunner::Body {
  BatonRunner* runner = nullptr;
  std::string label;
  Core* core = nullptr;
  Clock clock;
  std::function<void()> fn;
  size_t index = 0;
  bool finished = false;
  // Set when the body's last slice ended in WaitForPeers, with the state it
  // waited on: the simulated work done so far on its machine (on every
  // machine of the run for a body without a core), the number of finished
  // bodies, and the deadline. While all three are unchanged, a new slice
  // would find the same state and wait again, so the body is passed over.
  bool idle = false;
  uint64_t idle_work = 0;
  size_t idle_finished = 0;
  uint64_t idle_deadline = 0;
  std::unique_ptr<Context> context;
  // Watchdog diagnostics, written at every handoff and read by the
  // watchdog thread.
  std::atomic<uint64_t> shown_clock{0};
  std::atomic<bool> shown_finished{false};
};

BatonRunner::BatonRunner(uint64_t start, const BatonOptions& options)
    : options_(options), deadline_(start + kBatonQuantum) {}

BatonRunner::~BatonRunner() = default;

void BatonRunner::Add(std::string label, Core& core,
                      std::function<void()> body) {
  Core* c = &core;
  Add(std::move(label), [c] { return c->now(); }, std::move(body));
  bodies_.back()->core = c;
  Machine* m = &core.machine();
  if (std::find(machines_.begin(), machines_.end(), m) == machines_.end()) {
    machines_.push_back(m);
  }
}

void BatonRunner::Add(std::string label, Clock clock,
                      std::function<void()> body) {
  auto b = std::make_unique<Body>();
  b->runner = this;
  b->label = std::move(label);
  b->clock = std::move(clock);
  b->fn = std::move(body);
  b->index = bodies_.size();
  bodies_.push_back(std::move(b));
}

void BatonRunner::Run() {
  live_ = bodies_.size();
  if (live_ == 0) {
    return;
  }
  caller_ = std::make_unique<Context>();
#ifdef PRESTORE_BATON_TSAN
  caller_->tsan_fiber = __tsan_get_current_fiber();
#endif
  for (auto& b : bodies_) {
    b->context = std::make_unique<Context>(kStackBytes);
    ucontext_t& uc = b->context->uc;
    getcontext(&uc);
    uc.uc_stack.ss_sp = b->context->bottom;
    uc.uc_stack.ss_size = b->context->size;
    uc.uc_link = nullptr;
    const auto p = reinterpret_cast<uintptr_t>(b.get());
    makecontext(&uc, reinterpret_cast<void (*)()>(&BatonRunner::BodyEntry), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
  }

  // The watchdog runs on its own thread because the bodies run on this one.
  std::binary_semaphore done(0);
  std::thread watchdog;
  if (options_.watchdog_ms != 0) {
    watchdog = std::thread([this, &done] {
      if (!done.try_acquire_for(
              std::chrono::milliseconds(options_.watchdog_ms))) {
        WatchdogAbort();
      }
    });
  }
  BatonRunner* const outer_runner = tls_runner;
  void* const outer_body = tls_body;
  SwitchTo(nullptr, NextFrom(0));
  tls_runner = outer_runner;
  tls_body = outer_body;
  if (watchdog.joinable()) {
    done.release();
    watchdog.join();
  }
  for (auto& b : bodies_) {
    b->context.reset();
  }
  caller_.reset();
  if (first_error_ != nullptr) {
    std::rethrow_exception(first_error_);
  }
}

void BatonRunner::BodyEntry(unsigned hi, unsigned lo) {
  Body& body = *reinterpret_cast<Body*>((uintptr_t{hi} << 32) | lo);
  BatonRunner& runner = *body.runner;
#ifdef PRESTORE_BATON_ASAN
  const void* from_bottom = nullptr;
  size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
  if (runner.caller_->bottom == nullptr) {
    // The first body is entered from the caller of Run().
    runner.caller_->bottom = const_cast<void*>(from_bottom);
    runner.caller_->size = from_size;
  }
#endif
  tls_runner = &runner;
  tls_body = &body;
  runner.BeginSlice(body);
  try {
    body.fn();
  } catch (...) {
    if (runner.first_error_ == nullptr) {
      runner.first_error_ = std::current_exception();
    }
  }
  if (body.core != nullptr) {
    body.core->SetSliceDeadline(UINT64_MAX);
  }
  body.shown_clock.store(body.clock(), std::memory_order_relaxed);
  body.shown_finished.store(true, std::memory_order_relaxed);
  body.finished = true;
  --runner.live_;
  runner.SwitchTo(&body, runner.NextFrom(body.index + 1), /*last=*/true);
}

void BatonRunner::SwitchTo(Body* from, Body* to, bool last) {
  Context& src = from != nullptr ? *from->context : *caller_;
  Context& dst = to != nullptr ? *to->context : *caller_;
#ifdef PRESTORE_BATON_ASAN
  __sanitizer_start_switch_fiber(last ? nullptr : &src.fake_stack, dst.bottom,
                                 dst.size);
#else
  (void)last;
#endif
#ifdef PRESTORE_BATON_TSAN
  __tsan_switch_to_fiber(dst.tsan_fiber, 0);
#endif
  swapcontext(&src.uc, &dst.uc);
#ifdef PRESTORE_BATON_ASAN
  __sanitizer_finish_switch_fiber(src.fake_stack, nullptr, nullptr);
#endif
  if (from != nullptr) {
    tls_runner = this;
    tls_body = from;
  }
}

void BatonRunner::BeginSlice(Body& body) {
  body.idle = false;
  if (body.core != nullptr) {
    body.core->SetSliceDeadline(deadline_);
  }
}

void BatonRunner::Yield(Body& body, bool waiting) {
  body.shown_clock.store(body.clock(), std::memory_order_relaxed);
  if (waiting) {
    body.idle = true;
    body.idle_work = Work(body);
    body.idle_finished = bodies_.size() - live_;
    body.idle_deadline = deadline_;
  }
  Body* next = NextFrom(body.index + 1);
  if (next != &body) {
    SwitchTo(&body, next);
  }
  BeginSlice(body);
}

uint64_t BatonRunner::Work(const Body& body) const {
  if (body.core != nullptr) {
    return WorkDone(body.core->machine());
  }
  uint64_t sum = 0;
  for (Machine* m : machines_) {
    sum += WorkDone(*m);
  }
  return sum;
}

bool BatonRunner::Eligible(const Body& body) const {
  if (body.finished || body.clock() >= deadline_) {
    return false;
  }
  return !body.idle || force_ || body.idle_deadline != deadline_ ||
         body.idle_finished != bodies_.size() - live_ ||
         body.idle_work != Work(body);
}

BatonRunner::Body* BatonRunner::NextFrom(size_t index) {
  while (true) {
    if (index == bodies_.size()) {
      if (live_ == 0) {
        return nullptr;
      }
      NewRound();
      index = 0;
    }
    Body& b = *bodies_[index];
    if (Eligible(b)) {
      granted_in_round_ = true;
      return &b;
    }
    ++index;
  }
}

void BatonRunner::NewRound() {
  const uint64_t old_deadline = deadline_;
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (const auto& b : bodies_) {
    if (!b->finished) {
      const uint64_t t = b->clock();
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  if (hi >= deadline_) {
    deadline_ += kBatonQuantum;
    if (lo >= deadline_) {
      // Skip the rounds in which no body would get a slice.
      deadline_ += ((lo - deadline_) / kBatonQuantum + 1) * kBatonQuantum;
    }
  }
  // A round that granted nothing under an unchanged deadline means every
  // live body was passed over as idle. Their wait may hinge on host-side
  // state the idle test does not see (a done counter, say), so the next
  // round offers every live body a slice.
  force_ = !granted_in_round_ && deadline_ == old_deadline;
  granted_in_round_ = false;
}

void BatonRunner::WatchdogAbort() {
  std::fprintf(stderr,
               "%s watchdog: run exceeded %llu ms; aborting.\n"
               "Per-body diagnostics (simulated clocks at the last "
               "handoff):\n",
               options_.name.c_str(),
               static_cast<unsigned long long>(options_.watchdog_ms));
  for (const auto& b : bodies_) {
    std::fprintf(
        stderr, "  %s: now=%llu  %s\n", b->label.c_str(),
        static_cast<unsigned long long>(
            b->shown_clock.load(std::memory_order_relaxed)),
        b->shown_finished.load(std::memory_order_relaxed) ? "finished"
                                                          : "STILL RUNNING");
  }
  std::abort();
}

void WaitForPeers() {
  if (tls_runner != nullptr) {
    tls_runner->Yield(*static_cast<BatonRunner::Body*>(tls_body),
                      /*waiting=*/true);
  }
}

uint64_t RoundDeadline() {
  return tls_runner != nullptr ? tls_runner->deadline_ : UINT64_MAX;
}

void YieldAtDeadline(const Core& core) {
  if (tls_runner == nullptr) {
    return;
  }
  auto* body = static_cast<BatonRunner::Body*>(tls_body);
  if (body->core == &core) {
    tls_runner->Yield(*body, /*waiting=*/false);
  }
}

}  // namespace prestore
