#include "mprt/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "mprt/fiber.hpp"
#include "util/error.hpp"

namespace rsmpi::mprt {

namespace {

// Park-gate states; see the protocol walkthrough in scheduler.hpp.
constexpr int kGateIdle = 0;
constexpr int kGateNotified = 1;
constexpr int kGateParked = 2;

}  // namespace

struct VirtualScheduler::Impl {
  using Clock = std::chrono::steady_clock;

  struct VFiber {
    int rank = -1;
    std::unique_ptr<Fiber> fiber;
    std::atomic<int> gate{kGateIdle};
    /// Bumped every time a worker takes the fiber off a ready queue; a
    /// timer whose recorded generation no longer matches belongs to an
    /// earlier, already-woken park and is discarded unfired.
    std::atomic<std::uint64_t> timer_gen{0};
    /// Set by the fiber just before suspending; read by its worker.
    const Clock::time_point* park_deadline = nullptr;
    FiberSlot slot;
  };

  class Waiter : public RankWaiter {
   public:
    Impl* impl = nullptr;
    VFiber* f = nullptr;
    void park(std::unique_lock<std::mutex>& lock,
              const Clock::time_point* deadline) override {
      impl->park(f, lock, deadline);
    }
    void wake() override { impl->wake(f); }
    [[nodiscard]] bool deadlock_declared() const override {
      return impl->deadlocked.load(std::memory_order_acquire);
    }
  };

  /// One worker's FIFO ready queue: a ring sized for every fiber (a fiber
  /// is in at most one queue), so a push never allocates.  `size` is
  /// written only under `mu`; thieves and the idle handshake read it to
  /// skip an empty queue without taking its lock.
  struct alignas(64) Worker {
    std::mutex mu;
    std::vector<VFiber*> ring;
    std::size_t head = 0;
    std::atomic<std::size_t> size{0};

    void push(VFiber* f) {
      std::lock_guard lk(mu);
      const std::size_t n = size.load(std::memory_order_relaxed);
      ring[(head + n) % ring.size()] = f;
      size.store(n + 1);
    }
    VFiber* pop() {
      if (size.load() == 0) return nullptr;
      std::lock_guard lk(mu);
      const std::size_t n = size.load(std::memory_order_relaxed);
      if (n == 0) return nullptr;
      VFiber* f = ring[head];
      head = (head + 1) % ring.size();
      size.store(n - 1);
      return f;
    }
  };

  struct Timer {
    Clock::time_point due;
    VFiber* f = nullptr;
    std::uint64_t gen = 0;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.due > b.due;
    }
  };
  static constexpr Clock::rep kNoTimer = std::numeric_limits<Clock::rep>::max();

  int nworkers = 1;
  std::size_t stack_bytes = Fiber::kDefaultStackBytes;
  std::vector<std::unique_ptr<VFiber>> fibers;
  std::vector<Waiter> waiters;
  std::vector<Worker> queues;  // one per running worker thread

  /// Fibers queued or running (see header).  It and the two park counters
  /// beside it are written on every park or wake, so they share a cache
  /// line of their own, away from the read-mostly fields every wake and
  /// every worker loop iteration load.
  alignas(64) std::atomic<int> runnable{0};
  /// Fibers whose park CAS succeeded, less those a gate-exchange winner
  /// has since requeued; off by at most the wakes in flight.
  std::atomic<int> parked_now{0};
  std::atomic<std::uint64_t> park_count{0};
  alignas(64) std::atomic<int> live{0};  // fibers whose body has not finished
  std::atomic<int> idle{0};  // workers in idle_wait, asleep or about to
  std::atomic<int> peak_parked{0};
  std::atomic<bool> deadlocked{false};
  /// Due time of the earliest timer, kNoTimer when the heap is empty; lets
  /// a busy worker skip the mutex (and the clock read) when no timer is due.
  std::atomic<Clock::rep> next_due{kNoTimer};

  std::mutex mu;
  std::condition_variable cv;  // idle workers sleep here
  std::vector<Timer> timers;   // min-heap by `due` via std::*_heap

  void park(VFiber* f, std::unique_lock<std::mutex>& owner_lock,
            const Clock::time_point* deadline) {
    f->park_deadline = deadline;
    owner_lock.unlock();
    f->fiber->suspend();
    // Resumed (possibly on a different worker).  Reset the gate before the
    // caller re-checks its predicate: a wake issued after this store finds
    // the gate idle and relies on that predicate re-check instead.
    f->gate.store(kGateIdle);
    owner_lock.lock();
  }

  void wake(VFiber* f) {
    // Exactly one waker can observe kGateParked (exchange is atomic), so
    // the requeue is single-entry.
    if (f->gate.exchange(kGateNotified) != kGateParked) return;
    const bool on_worker = t_impl == this;
    make_runnable(f, on_worker ? t_worker : 0);
    if (idle.load() > 0) {
      std::lock_guard lk(mu);
      cv.notify_one();
    }
  }

  /// `f` was fully parked and the caller won the gate exchange that unparks
  /// it: count it runnable, then publish it on queue `w`.
  void make_runnable(VFiber* f, int w) {
    parked_now.fetch_sub(1, std::memory_order_relaxed);
    runnable.fetch_add(1);
    queues[static_cast<std::size_t>(w)].push(f);
  }

  /// Own queue first, then the oldest fiber of each sibling in turn.
  VFiber* take(int self) {
    const std::size_t n = queues.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (VFiber* f = queues[(static_cast<std::size_t>(self) + i) % n].pop()) {
        return f;
      }
    }
    return nullptr;
  }

  /// Moves every due timer's fiber, if still parked on that timer, onto
  /// queue `self`.  Caller holds `mu`.
  void fire_due_timers_locked(int self) {
    if (timers.empty()) return;
    const auto now = Clock::now();
    while (!timers.empty() && timers.front().due <= now) {
      std::pop_heap(timers.begin(), timers.end(), TimerLater{});
      const Timer t = timers.back();
      timers.pop_back();
      if (t.gen != t.f->timer_gen.load()) continue;  // stale: already woken
      if (t.f->gate.exchange(kGateNotified) == kGateParked) {
        make_runnable(t.f, self);
      }
    }
    publish_next_due_locked();
  }

  void publish_next_due_locked() {
    next_due.store(timers.empty() ? kNoTimer
                                  : timers.front().due.time_since_epoch().count(),
                   std::memory_order_relaxed);
  }

  /// True if some timer can still wake its fiber.  Caller holds `mu`.
  [[nodiscard]] bool timer_pending_locked() const {
    for (const Timer& t : timers) {
      if (t.gen == t.f->timer_gen.load()) return true;
    }
    return false;
  }

  /// Wakes every parked fiber after setting the sticky deadlocked flag; the
  /// resumed fibers' mailbox wait loops throw DeadlockError.  A finished
  /// fiber's gate is never kGateParked, so the gate alone selects.  Caller
  /// holds `mu`.
  void declare_deadlock_locked(int self) {
    deadlocked.store(true, std::memory_order_release);
    for (auto& up : fibers) {
      VFiber* f = up.get();
      if (f->gate.exchange(kGateNotified) == kGateParked) make_runnable(f, self);
    }
    cv.notify_all();
  }

  /// Called when worker `self` found every queue empty.  Returns a fiber to
  /// run, or nullptr once every fiber has finished.
  VFiber* idle_wait(int self) {
    std::unique_lock lock(mu);
    for (;;) {
      fire_due_timers_locked(self);
      idle.fetch_add(1);
      // The last look, after announcing: a waker that missed our idle
      // count published its fiber before this scan can miss it.
      if (VFiber* f = take(self)) {
        idle.fetch_sub(1);
        return f;
      }
      if (live.load() == 0) {
        idle.fetch_sub(1);
        cv.notify_all();  // release siblings asleep in cv.wait
        return nullptr;
      }
      if (runnable.load() == 0 && !timer_pending_locked()) {
        // Live fibers, none queued or running, no waker in flight and no
        // timer to fire: every one is fully parked and nothing can ever
        // wake one.  Exact deadlock.
        idle.fetch_sub(1);
        declare_deadlock_locked(self);
        continue;
      }
      if (timers.empty()) {
        cv.wait(lock);
      } else {
        // By value: wait_until reads its deadline again after relocking,
        // when a push may have reallocated the heap.
        const Clock::time_point due = timers.front().due;
        cv.wait_until(lock, due);
      }
      idle.fetch_sub(1);
    }
  }

  void run_fiber(VFiber* f, int self) {
    f->timer_gen.fetch_add(1);
    t_current_fiber = f;
    f->fiber->resume();
    t_current_fiber = nullptr;

    if (f->fiber->finished()) {
      runnable.fetch_sub(1);
      live.fetch_sub(1);  // the worker that takes it to 0 wakes the rest
      return;             // from idle_wait, which it reaches next
    }
    // Not finished, so the fiber parked: park() is its only way to suspend.
    // Copy the deadline now — it points into the fiber's stack frame, which
    // stays put only until a wake can resume the fiber, i.e. until the CAS.
    const Clock::time_point* deadline = f->park_deadline;
    f->park_deadline = nullptr;
    const Timer timer{deadline != nullptr ? *deadline : Clock::time_point{}, f,
                      f->timer_gen.load()};
    int expected = kGateIdle;
    if (!f->gate.compare_exchange_strong(expected, kGateParked)) {
      // A wake landed while the fiber was switching out: it is runnable
      // again right now, stays counted, and rejoins this worker's queue.
      f->gate.store(kGateIdle);
      queues[static_cast<std::size_t>(self)].push(f);
      return;
    }
    park_count.fetch_add(1, std::memory_order_relaxed);
    if (deadline != nullptr) {
      // Armed before the fiber leaves `runnable`, so a deadlock check that
      // sees the count drop also sees the timer.
      std::lock_guard lk(mu);
      timers.push_back(timer);
      std::push_heap(timers.begin(), timers.end(), TimerLater{});
      publish_next_due_locked();
      cv.notify_all();  // sleepers may hold a stale (later) wait deadline
    }
    runnable.fetch_sub(1);
    const int parked = parked_now.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = peak_parked.load(std::memory_order_relaxed);
    while (parked > peak && !peak_parked.compare_exchange_weak(
                                peak, parked, std::memory_order_relaxed)) {
    }
  }

  void worker_main(int self) {
    t_impl = this;
    t_worker = self;
    for (;;) {
      // A busy worker may never reach idle_wait, so it fires due timers
      // itself; the relaxed load keeps this off the path when none exist.
      const Clock::rep due = next_due.load(std::memory_order_relaxed);
      if (due != kNoTimer && due <= Clock::now().time_since_epoch().count()) {
        std::lock_guard lk(mu);
        fire_due_timers_locked(self);
      }
      VFiber* f = take(self);
      if (f == nullptr) f = idle_wait(self);
      if (f == nullptr) break;
      run_fiber(f, self);
    }
    t_impl = nullptr;
    t_worker = -1;
  }

  static thread_local VFiber* t_current_fiber;
  static thread_local const Impl* t_impl;  // scheduler this worker serves
  static thread_local int t_worker;        // its queue index
};

thread_local VirtualScheduler::Impl::VFiber*
    VirtualScheduler::Impl::t_current_fiber = nullptr;
thread_local const VirtualScheduler::Impl* VirtualScheduler::Impl::t_impl =
    nullptr;
thread_local int VirtualScheduler::Impl::t_worker = -1;

FiberSlot* current_fiber_slot() {
  auto* f = VirtualScheduler::Impl::t_current_fiber;
  return f == nullptr ? nullptr : &f->slot;
}

int VirtualScheduler::workers_from_env() {
  const char* raw = std::getenv("RSMPI_WORKERS");
  if (raw == nullptr || *raw == '\0') return 0;
  const long v = std::strtol(raw, nullptr, 10);
  if (v < 0) return 0;
  return static_cast<int>(std::min(v, 1024L));
}

std::size_t VirtualScheduler::default_stack_bytes() {
  const char* raw = std::getenv("RSMPI_STACK_BYTES");
  if (raw == nullptr || *raw == '\0') return Fiber::kDefaultStackBytes;
  const unsigned long long v = std::strtoull(raw, nullptr, 10);
  return v == 0 ? Fiber::kDefaultStackBytes : static_cast<std::size_t>(v);
}

VirtualScheduler::VirtualScheduler(int num_ranks, int workers,
                                   std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()) {
  if (num_ranks < 1) {
    throw ArgumentError("VirtualScheduler: need at least one rank");
  }
  impl_->nworkers = std::max(1, workers);
  impl_->stack_bytes =
      stack_bytes == 0 ? default_stack_bytes() : stack_bytes;
  impl_->fibers.reserve(static_cast<std::size_t>(num_ranks));
  impl_->waiters.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    auto f = std::make_unique<Impl::VFiber>();
    f->rank = r;
    f->slot.rank = r;
    impl_->waiters[static_cast<std::size_t>(r)].impl = impl_.get();
    impl_->waiters[static_cast<std::size_t>(r)].f = f.get();
    impl_->fibers.push_back(std::move(f));
  }
}

VirtualScheduler::~VirtualScheduler() = default;

int VirtualScheduler::workers() const { return impl_->nworkers; }

RankWaiter& VirtualScheduler::waiter(int rank) {
  return impl_->waiters[static_cast<std::size_t>(rank)];
}

void VirtualScheduler::run(const std::function<void(int)>& rank_body) {
  Impl& s = *impl_;
  const int n = std::min(s.nworkers, static_cast<int>(s.fibers.size()));
  s.queues = std::vector<Impl::Worker>(static_cast<std::size_t>(n));
  for (Impl::Worker& q : s.queues) q.ring.resize(s.fibers.size());
  for (auto& up : s.fibers) {
    Impl::VFiber* f = up.get();
    f->fiber = std::make_unique<Fiber>(
        s.stack_bytes, [f, &rank_body] { rank_body(f->rank); });
    s.queues[static_cast<std::size_t>(f->rank % n)].push(f);
  }
  s.live.store(static_cast<int>(s.fibers.size()));
  s.runnable.store(static_cast<int>(s.fibers.size()));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers.emplace_back([&s, w] { s.worker_main(w); });
  }
  for (auto& t : workers) t.join();
}

std::uint64_t VirtualScheduler::park_events() const {
  return impl_->park_count.load(std::memory_order_relaxed);
}

int VirtualScheduler::peak_parked() const {
  return impl_->peak_parked.load(std::memory_order_relaxed);
}

bool VirtualScheduler::deadlock_declared() const {
  return impl_->deadlocked.load(std::memory_order_acquire);
}

}  // namespace rsmpi::mprt
