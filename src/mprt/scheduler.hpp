// Virtual-rank scheduler: multiplexes many rank fibers onto a small pool
// of OS worker threads.
//
// Execution model.  Each virtual rank is a Fiber (mprt/fiber.hpp).  A rank
// runs until its blocking mailbox wait finds nothing deliverable, at which
// point the mailbox's RankWaiter hook parks the fiber: it switches back to
// its worker, which picks up the next ready rank.  A sender's Mailbox::put
// wakes the parked receiver through the same hook, making its fiber ready
// again — possibly on a different worker; fibers migrate freely.  A park
// and a wake are each a function call plus a few atomics and one
// uncontended queue lock: no syscall and no global lock on the fast path.
//
// Ready queues.  Each worker owns a FIFO ready queue under its own small
// lock.  wake() pushes the woken fiber onto the *waking* worker's queue
// (the fiber that sent the message is about to park or finish, so its
// worker is the one most likely to be free next).  A worker takes the
// front of its own queue first; when that is empty it steals the front —
// the oldest ready fiber — of a sibling's queue, scanning siblings in
// index order from its own.  Only when every queue is empty does it take
// the scheduler mutex to sleep.  A waker signals a sleeper only when the
// idle count is nonzero: the waker publishes the fiber (a seq_cst queue
// size store) before it loads the idle count, and a worker going to sleep
// increments the idle count (seq_cst) before its last look at the queues,
// so either the waker sees the sleeper or the sleeper sees the fiber.  The
// scheduler mutex guards only idle sleep, the RecvDeadline timer heap and
// deadlock declaration.
//
// The park/wake race is resolved by a three-state gate per fiber
// (idle / notified / parked):
//   * wake():   prev = gate.exchange(notified); if prev == parked, requeue.
//   * the worker, after the fiber switches out: CAS(idle -> parked); on
//     failure a wake landed mid-switch — reset to idle and requeue at once.
//   * the fiber, on resume: gate.store(idle), then re-check its predicate
//     under the mailbox lock.
// A wakeup is never lost because every waker publishes its event (message,
// abort, peer loss) under the mailbox lock *before* calling wake(), and a
// woken fiber always re-checks the predicate after resetting the gate.
//
// Deadlock detection is exact, not timing-based, and needs no global lock
// on the fast path.  An atomic `runnable` counts fibers that are queued or
// running.  A fiber leaves the count only when it finishes or when its
// park CAS succeeds (a timed park pushes its timer first).  A woken fiber
// re-enters the count *before* it is pushed, and the waker is a running
// fiber — itself counted until it parks or finishes, which it can do only
// after wake() returns — or a worker firing a timer or declaring deadlock
// under the mutex.  So the count never reads zero while any fiber is
// runnable or about to be made runnable.  An idle worker holding the mutex
// that sees live > 0, runnable == 0, every queue empty and no live timer
// therefore knows every live fiber is fully parked and nothing can wake one
// (only rank fibers send; the caller's thread is joined on the pool; the
// par/ worker pools never touch mailboxes).  It sets a sticky deadlocked
// flag and wakes every parked fiber, whose mailbox wait loops convert it
// into DeadlockError.  There is no timeout or confirmation window.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "mprt/mailbox.hpp"

namespace rsmpi::mprt {

class Comm;

/// Per-fiber replacement for the runtime's per-thread context: the rank's
/// world communicator (this_comm) and its nonblocking progress engine
/// (coll/nb) live here when the rank is a fiber, because thread_locals
/// would be shared by every rank multiplexed onto the worker.  The
/// nb_engine slot is opaque to keep mprt independent of coll/.
struct FiberSlot {
  Comm* comm = nullptr;
  std::shared_ptr<void> nb_engine;
  int rank = -1;
};

/// The calling context's fiber slot, or nullptr when the caller is a plain
/// rank thread (threaded execution, or code outside any run).
[[nodiscard]] FiberSlot* current_fiber_slot();

/// Worker pool + ready queues + park gates for one virtualized run.  Not
/// reusable: construct, install waiters, run(), read counters, destroy.
class VirtualScheduler {
 public:
  /// RSMPI_WORKERS: number of OS threads to multiplex ranks onto; 0 or
  /// unset keeps the legacy thread-per-rank runtime.
  [[nodiscard]] static int workers_from_env();

  /// RSMPI_STACK_BYTES override for per-fiber stacks, else the 256 KiB
  /// default.
  [[nodiscard]] static std::size_t default_stack_bytes();

  VirtualScheduler(int num_ranks, int workers, std::size_t stack_bytes);
  ~VirtualScheduler();

  VirtualScheduler(const VirtualScheduler&) = delete;
  VirtualScheduler& operator=(const VirtualScheduler&) = delete;

  [[nodiscard]] int workers() const;

  /// Rank `rank`'s park/resume endpoint, for Mailbox::set_rank_waiter.
  [[nodiscard]] RankWaiter& waiter(int rank);

  /// Runs `rank_body(r)` for every rank on the worker pool; returns when
  /// all fibers have finished.  The body must catch its own exceptions
  /// (the runtime's rank wrapper does).
  void run(const std::function<void(int)>& rank_body);

  /// Total park transitions (a fiber fully suspended awaiting a wake).
  [[nodiscard]] std::uint64_t park_events() const;

  /// Peak number of simultaneously parked fibers.
  [[nodiscard]] int peak_parked() const;

  /// True once the exact deadlock detector fired during run().
  [[nodiscard]] bool deadlock_declared() const;

  struct Impl;  // public so scheduler.cpp's thread_local can name it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace rsmpi::mprt
