// Stackful fibers for rank virtualization.
//
// A Fiber is one virtual rank's execution context: an mmap'd stack with a
// PROT_NONE guard page below it, so a rank body that overflows its
// (default 256 KiB) stack faults loudly instead of corrupting a neighbour.
// MAP_NORESERVE keeps thousands of fibers cheap: p=4096 ranks reserve
// address space, not memory — pages materialize only as deep as each
// rank's call chain actually grows.
//
// The switch.  On x86-64 (RSMPI_FIBER_ASM_SWITCH) resume() and suspend()
// are one call to rsmpi_fiber_switch (mprt/fiber_switch.S), which pushes
// the SysV callee-saved registers (rbp, rbx, r12–r15), MXCSR and the x87
// control word onto the current stack, swaps rsp, and pops the same frame
// off the other stack.  A fiber's saved context is therefore just its stack
// pointer.  The FP control words travel with the fiber: a rank that changes
// its rounding mode keeps it across a park, whichever worker resumes it,
// and never leaks it to ranks sharing that worker.  Other targets use
// swapcontext.
//
// The signal mask is NOT part of a fiber's context: every fiber runs with
// the mask of whichever worker thread resumes it.  Saving it would cost two
// rt_sigprocmask syscalls per switch (as swapcontext pays on other
// targets); nothing in this library, its tests or its benches changes a
// signal mask, and a rank body must not rely on a per-rank mask either.
//
// Fibers migrate freely between worker threads: resume() records the
// *current* worker's stack pointer on every entry, so suspend() always
// returns to whichever worker is running the fiber right now.
//
// Sanitizers.  Under ThreadSanitizer each fiber registers as its own
// logical thread via the fiber API — without the annotations TSAN would see
// one OS thread's shadow stack teleporting between rank bodies and report
// phantom races on every switch.  Under AddressSanitizer both directions of
// every switch are bracketed by __sanitizer_start/finish_switch_fiber, so
// ASan knows which stack is live (an exception thrown on a fiber stack
// otherwise trips false stack-use-after-scope reports), and a fiber's fake
// stack (detect_stack_use_after_return) is saved across its suspensions.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "util/error.hpp"

// Keep in sync with the guard in mprt/fiber_switch.S.
#if defined(__x86_64__) && defined(__ELF__) && !defined(__ILP32__)
#define RSMPI_FIBER_ASM_SWITCH 1
extern "C" {
void rsmpi_fiber_switch(void** save_sp, void* load_sp);
void rsmpi_fiber_entry();
}
#else
#include <ucontext.h>
#endif

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

#if defined(__SANITIZE_ADDRESS__)
#define RSMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RSMPI_ASAN_FIBERS 1
#endif
#endif

#ifdef RSMPI_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

namespace rsmpi::mprt {

/// One suspendable execution context.  Not thread-safe: at most one thread
/// may be inside resume() at a time (the scheduler's ready queues enforce
/// this — a fiber is either running on exactly one worker, queued, or
/// parked, never two at once).
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Fiber(std::size_t requested_stack_bytes, std::function<void()> body)
      : body_(std::move(body)) {
    const std::size_t page = page_size();
    stack_bytes_ =
        (std::max(requested_stack_bytes, 4 * page) + page - 1) / page * page;
    map_bytes_ = stack_bytes_ + page;  // +1 guard page at the low end
    void* base = ::mmap(nullptr, map_bytes_, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      throw Error("fiber: mmap of stack failed (" +
                  std::to_string(map_bytes_) + " bytes)");
    }
    stack_base_ = base;
    stack_lo_ = static_cast<std::byte*>(base) + page;
    if (::mprotect(stack_lo_, stack_bytes_, PROT_READ | PROT_WRITE) != 0) {
      ::munmap(base, map_bytes_);
      throw Error("fiber: mprotect of stack failed");
    }
#ifdef RSMPI_FIBER_ASM_SWITCH
    // Seed the frame rsmpi_fiber_switch pops, lowest address first:
    // x87 control word, MXCSR, r15, r14, r13, r12 = entry function,
    // rbx = this, rbp, return address = rsmpi_fiber_entry, then padding.
    // The stack top is page aligned, so sp = top - 88 leaves rsp 16-byte
    // aligned once the entry stub is reached.  The FP control words start
    // as the constructing thread's, as getcontext would capture them.
    std::uint16_t fpucw = 0;
    std::uint32_t mxcsr = 0;
    __asm__ volatile("fnstcw %0" : "=m"(fpucw));
    __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
    auto* frame = reinterpret_cast<std::uint64_t*>(
        static_cast<std::byte*>(stack_lo_) + stack_bytes_ - 88);
    std::fill(frame, frame + 11, std::uint64_t{0});
    frame[0] = fpucw;
    frame[1] = mxcsr;
    frame[5] = reinterpret_cast<std::uint64_t>(&Fiber::run_body);
    frame[6] = reinterpret_cast<std::uint64_t>(this);
    frame[8] = reinterpret_cast<std::uint64_t>(&rsmpi_fiber_entry);
    sp_ = frame;
#else
    if (::getcontext(&ctx_) != 0) {
      ::munmap(base, map_bytes_);
      throw Error("fiber: getcontext failed");
    }
    ctx_.uc_stack.ss_sp = stack_lo_;
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = nullptr;
    // makecontext only passes ints; smuggle `this` through as two halves.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                  static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self & 0xFFFFFFFFu));
#endif
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
#ifdef RSMPI_ASAN_FIBERS
    void* worker_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&worker_fake_stack, stack_lo_,
                                   stack_bytes_);
#endif
#ifdef RSMPI_TSAN_FIBERS
    return_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef RSMPI_FIBER_ASM_SWITCH
    rsmpi_fiber_switch(&return_sp_, sp_);
#else
    ::swapcontext(&return_ctx_, &ctx_);
#endif
#ifdef RSMPI_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(worker_fake_stack, nullptr, nullptr);
#endif
  }

  /// From inside the fiber: switches back to the worker that resumed it.
  void suspend() {
#ifdef RSMPI_ASAN_FIBERS
    // A finished fiber never comes back: a null save slot lets ASan free
    // its fake stack.
    __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack_,
                                   return_stack_lo_, return_stack_bytes_);
#endif
#ifdef RSMPI_TSAN_FIBERS
    __tsan_switch_to_fiber(return_tsan_, 0);
#endif
#ifdef RSMPI_FIBER_ASM_SWITCH
    rsmpi_fiber_switch(&sp_, return_sp_);
#else
    ::swapcontext(&ctx_, &return_ctx_);
#endif
#ifdef RSMPI_ASAN_FIBERS
    // Resumed, possibly by a different worker: learn its stack.
    __sanitizer_finish_switch_fiber(fake_stack_, &return_stack_lo_,
                                    &return_stack_bytes_);
#endif
  }

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void run_body(Fiber* self) noexcept {
#ifdef RSMPI_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(nullptr, &self->return_stack_lo_,
                                    &self->return_stack_bytes_);
#endif
    self->body_();  // rank bodies catch their own exceptions (runtime.cpp)
    self->finished_ = true;
    self->suspend();  // never returns: a finished fiber is never resumed
  }

#ifndef RSMPI_FIBER_ASM_SWITCH
  static void trampoline(unsigned hi, unsigned lo) {
    run_body(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                      static_cast<std::uintptr_t>(lo)));
  }
#endif

  static std::size_t page_size() {
    const long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : 4096;
  }

  std::function<void()> body_;
#ifdef RSMPI_FIBER_ASM_SWITCH
  void* sp_ = nullptr;         // the fiber's saved stack pointer
  void* return_sp_ = nullptr;  // the resuming worker's, set by each resume()
#else
  ucontext_t ctx_{};
  ucontext_t return_ctx_{};
#endif
  void* stack_base_ = nullptr;
  void* stack_lo_ = nullptr;  // lowest usable stack byte (above the guard)
  std::size_t stack_bytes_ = 0;
  std::size_t map_bytes_ = 0;
  bool finished_ = false;
#ifdef RSMPI_TSAN_FIBERS
  void* tsan_fiber_ = nullptr;
  void* return_tsan_ = nullptr;
#endif
#ifdef RSMPI_ASAN_FIBERS
  void* fake_stack_ = nullptr;
  const void* return_stack_lo_ = nullptr;
  std::size_t return_stack_bytes_ = 0;
#endif
};

}  // namespace rsmpi::mprt
