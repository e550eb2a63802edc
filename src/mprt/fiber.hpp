// Stackful fibers for rank virtualization (ISSUE 10).
//
// A Fiber is one virtual rank's execution context: a ucontext_t plus an
// mmap'd stack with a PROT_NONE guard page below it, so a rank body that
// overflows its (default 256 KiB) stack faults loudly instead of
// corrupting a neighbour.  MAP_NORESERVE keeps thousands of fibers cheap:
// p=4096 ranks reserve address space, not memory — pages materialize only
// as deep as each rank's call chain actually grows.
//
// Fibers migrate freely between worker threads: resume() records the
// *current* caller's context (and, under ThreadSanitizer, its TSAN fiber
// handle) on every entry, so suspend() always returns to whichever worker
// is running the fiber right now.  Under TSAN each fiber registers as its
// own logical thread via the fiber API — without the annotations TSAN
// would see one OS thread's shadow stack teleporting between rank bodies
// and report phantom races on every switch.
#pragma once

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "util/error.hpp"

#if defined(__SANITIZE_THREAD__)
#define RSMPI_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RSMPI_TSAN_FIBERS 1
#endif
#endif

#ifdef RSMPI_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace rsmpi::mprt {

/// One suspendable execution context.  Not thread-safe: at most one thread
/// may be inside resume() at a time (the scheduler's ready queue enforces
/// this — a fiber is either running on exactly one worker, queued, or
/// parked, never two at once).
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Fiber(std::size_t requested_stack_bytes, std::function<void()> body)
      : body_(std::move(body)) {
    const std::size_t page = page_size();
    // A const local, never written after getcontext (-Wclobbered).
    const std::size_t stack_bytes =
        (std::max(requested_stack_bytes, 4 * page) + page - 1) / page * page;
    map_bytes_ = stack_bytes + page;  // +1 guard page at the low end
    void* base = ::mmap(nullptr, map_bytes_, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      throw Error("fiber: mmap of stack failed (" +
                  std::to_string(map_bytes_) + " bytes)");
    }
    stack_base_ = base;
    if (::mprotect(static_cast<std::byte*>(base) + page, stack_bytes,
                   PROT_READ | PROT_WRITE) != 0) {
      ::munmap(base, map_bytes_);
      throw Error("fiber: mprotect of stack failed");
    }
    if (::getcontext(&ctx_) != 0) {
      ::munmap(base, map_bytes_);
      throw Error("fiber: getcontext failed");
    }
    ctx_.uc_stack.ss_sp = static_cast<std::byte*>(base) + page;
    ctx_.uc_stack.ss_size = stack_bytes;
    ctx_.uc_link = nullptr;
    // makecontext only passes ints; smuggle `this` through as two halves.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                  static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self & 0xFFFFFFFFu));
#ifdef RSMPI_TSAN_FIBERS
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() {
#ifdef RSMPI_TSAN_FIBERS
    if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
    if (stack_base_ != nullptr) ::munmap(stack_base_, map_bytes_);
  }

  /// Switches the calling worker into the fiber; returns when the fiber
  /// suspends or finishes.
  void resume() {
    ucontext_t back{};
    return_ctx_ = &back;
#ifdef RSMPI_TSAN_FIBERS
    return_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
    ::swapcontext(&back, &ctx_);
  }

  /// From inside the fiber: switches back to the worker that resumed it.
  void suspend() {
#ifdef RSMPI_TSAN_FIBERS
    __tsan_switch_to_fiber(return_tsan_, 0);
#endif
    ::swapcontext(&ctx_, return_ctx_);
  }

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void trampoline(unsigned hi, unsigned lo) {
    auto* self = reinterpret_cast<Fiber*>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo));
    self->body_();  // rank bodies catch their own exceptions (runtime.cpp)
    self->finished_ = true;
    self->suspend();  // never returns: a finished fiber is never resumed
  }

  static std::size_t page_size() {
    const long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : 4096;
  }

  std::function<void()> body_;
  ucontext_t ctx_{};
  ucontext_t* return_ctx_ = nullptr;
  void* stack_base_ = nullptr;
  std::size_t map_bytes_ = 0;
  bool finished_ = false;
#ifdef RSMPI_TSAN_FIBERS
  void* tsan_fiber_ = nullptr;
  void* return_tsan_ = nullptr;
#endif
};

}  // namespace rsmpi::mprt
