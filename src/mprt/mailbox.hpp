// Per-rank mailbox: an unbounded MPSC message queue with MPI-style
// (source, tag) matching, wildcard receives, and abort-aware blocking.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "mprt/message.hpp"

namespace rsmpi::mprt {

/// Global-progress bookkeeping for the model-checking tier: counts how many
/// live ranks are currently blocked with nothing deliverable.  When every
/// live rank is blocked at once, no rank can ever enqueue another message
/// (only rank threads send), so the machine is deadlocked — the detecting
/// waiter confirms the state is stable and then surfaces DeadlockError.
/// Installed on every mailbox only when a ScheduleOracle is active; normal
/// runs never touch it.
///
/// Detection protocol: a waiter increments `blocked` before sleeping and
/// bumps `version` when it stops being blocked.  Whoever observes
/// blocked == active (the last waiter to block, or a finishing rank whose
/// exit makes the remainder all-blocked) waits out a short confirmation
/// window; if no progress happened (version unchanged) and its own queue
/// is still empty, the deadlock is real — any pending wakeup would have
/// bumped the version within the window.
class StarvationMonitor {
 public:
  explicit StarvationMonitor(int num_ranks) : active_(num_ranks) {}

  void enter_blocked() { blocked_.fetch_add(1, std::memory_order_acq_rel); }
  void leave_blocked() {
    version_.fetch_add(1, std::memory_order_acq_rel);
    blocked_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// A rank's body completed or threw: it will never block (or send) again.
  void note_finished() {
    version_.fetch_add(1, std::memory_order_acq_rel);
    active_.fetch_sub(1, std::memory_order_acq_rel);
  }

  [[nodiscard]] bool all_blocked() const {
    const int active = active_.load(std::memory_order_acquire);
    return active > 0 && blocked_.load(std::memory_order_acquire) >= active;
  }

  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Declares the deadlock if it held across the confirmation window (all
  /// blocked, and no waiter made progress since `version_before`).
  /// Returns the (sticky) starved flag.
  bool confirm_starved(std::uint64_t version_before) {
    if (all_blocked() &&
        version_.load(std::memory_order_acquire) == version_before) {
      starved_.store(true, std::memory_order_release);
    }
    return starved();
  }

  [[nodiscard]] bool starved() const {
    return starved_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<int> blocked_{0};
  std::atomic<int> active_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> starved_{false};
};

/// Park/resume endpoint of one virtual rank (ISSUE 10).  When the runtime
/// multiplexes many ranks onto a worker pool, blocking a mailbox wait on
/// the condition variable would stall a whole worker; instead the mailbox
/// routes the wait through this hook, which suspends the owning fiber and
/// hands the worker to another rank.  Implemented by the scheduler
/// (mprt/scheduler.cpp); the mailbox stays ignorant of fibers.
class RankWaiter {
 public:
  virtual ~RankWaiter() = default;

  /// Suspends the owning rank until wake() (or the optional deadline, or a
  /// scheduler-wide deadlock declaration).  Called by the owning rank with
  /// its mailbox lock held via `lock`; the implementation releases the
  /// lock across the suspension and reacquires it before returning.  May
  /// return spuriously — callers re-check their predicate in a loop.
  virtual void park(std::unique_lock<std::mutex>& lock,
                    const std::chrono::steady_clock::time_point* deadline) = 0;

  /// Makes the owning rank runnable (idempotent; callable from any thread;
  /// the caller must not hold the mailbox lock).  A wake that races the
  /// park is never lost: the gate protocol turns it into an immediate
  /// re-run of the parking rank.
  virtual void wake() = 0;

  /// True once the scheduler has proven no parked rank can ever be woken
  /// (every live rank parked, no timers pending).  Mailbox wait loops
  /// convert this into DeadlockError — the virtualized runtime's exact
  /// replacement for the verify tier's timing-based starvation monitor.
  [[nodiscard]] virtual bool deadlock_declared() const = 0;
};

/// Thread-safe mailbox owned by one rank.  Any rank may `put`; only the
/// owning rank calls `take`/`try_take`/`probe`.  Matching preserves
/// per-(source, tag) FIFO order: `take` always returns the *oldest* queued
/// message that satisfies the pattern, so two same-tag messages from the
/// same sender are received in send order (the MPI non-overtaking rule).
///
/// "Oldest" is defined by Message::seq, not by queue position: a fault
/// plan (mprt/sim.hpp) may physically enqueue messages out of order or
/// enqueue the same message twice, and the sequence numbers let every
/// receive path — blocking take, try_take, and the due-only try_take_due
/// the async progress engine polls with — agree on one delivery order and
/// deliver each sequence number at most once.
///
/// Duplicates are suppressed against one watermark per *sender* — the
/// highest seq delivered from each (context, source) — so the bookkeeping
/// is bounded by the number of senders, not by the number of tags they
/// ever used.  This relies on the put-order invariant of Comm::deliver:
/// a sender stamps seq from one per-rank counter and puts synchronously,
/// and a fault-plan duplicate is put inside the same deliver call as its
/// original, so one sender's messages enter a mailbox in seq order.  Once
/// seq h from a sender has been delivered, any message from that sender
/// *put afterwards* with seq <= h is therefore a duplicate and is dropped
/// at put.  A duplicate that was already queued (a "twin") is purged when
/// its first copy is delivered.  Genuine lower-seq messages on other tags
/// that were queued earlier stay deliverable.  Every extra copy is counted
/// once in duplicates_suppressed().
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message; wakes the owner if it is blocked in take().
  /// `front` enqueues at the head instead of the tail — the fault plans'
  /// physical-reorder injection (delivery order is unaffected for
  /// sequenced messages, which is the property the harness verifies).
  /// A sequenced message at or below its sender's delivered watermark is a
  /// late duplicate: it is counted and dropped without waking the owner.
  void put(Message msg, bool front = false);

  /// Blocks until a message matching (context, source, tag) is available
  /// and removes it.  Source and tag may be wildcards
  /// (kAnySource/kAnyTag); the context is always exact.  Throws AbortError
  /// if the runtime is aborted, and PeerLostError if a rank of the machine
  /// exited, while waiting.
  Message take(std::int64_t context, int source, int tag);

  /// Bounded-wait take: like take(), but gives up and returns std::nullopt
  /// after `timeout_s` seconds of real time without a match.  Comm layers
  /// retry/backoff (RecvDeadline) on top of this primitive.
  std::optional<Message> take_for(std::int64_t context, int source, int tag,
                                  double timeout_s);

  /// Non-blocking take; std::nullopt when no queued message matches.
  std::optional<Message> try_take(std::int64_t context, int source, int tag);

  /// Non-blocking take restricted to messages whose modelled arrival time
  /// is <= `arrival_cutoff` — "has this message arrived yet on the virtual
  /// timeline?".  Non-overtaking is preserved: a message is only eligible
  /// if no older (lower-sequence) message of its own (context, source,
  /// tag) stream is still queued.
  std::optional<Message> try_take_due(std::int64_t context, int source,
                                      int tag, double arrival_cutoff);

  /// True when a message matching the pattern is queued (MPI_Iprobe).
  /// Duplicates never stay queued past their original's delivery, so probe
  /// never reports a message take would refuse to deliver.
  [[nodiscard]] bool probe(std::int64_t context, int source, int tag);

  /// Number of queued (unmatched) messages; primarily for tests.
  [[nodiscard]] std::size_t pending() const;

  /// Duplicate deliveries discarded by sequence-number suppression.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const;

  /// Number of per-sender delivered watermarks held; primarily for tests
  /// (it is bounded by the number of distinct (context, source) senders).
  [[nodiscard]] std::size_t watermarks() const;

  /// Puts the mailbox into the aborted state: all current and future
  /// blocking takes throw AbortError.  Used for fail-fast teardown when a
  /// sibling rank throws.
  void abort();

  /// Records that global rank `global_rank` has exited.  Receives that
  /// find no matching message then throw PeerLostError instead of
  /// blocking forever on a sender that will never send; already-queued
  /// messages remain deliverable.
  void notify_peer_lost(int global_rank);

  /// Restricts which lost peers poison this mailbox's receives.  With a
  /// scope installed, only exits of the listed *global* ranks make empty
  /// receives throw PeerLostError; exits of out-of-scope ranks are ignored
  /// (their loss is some other communicator's problem).  std::nullopt — the
  /// default — restores the machine-wide behaviour: any lost rank poisons
  /// every blocked receive.  The service layer scopes each stream's merges
  /// to the stream's own shard group so one dead tenant cannot take down
  /// the others.
  void set_peer_loss_scope(std::optional<std::vector<int>> global_ranks);

  /// Snapshot of the global ranks known to have exited (regardless of the
  /// installed scope).  The service layer reads this after catching
  /// PeerLostError to learn *which* shard died.
  [[nodiscard]] std::vector<int> lost_peers() const;

  // -- Model-checking hooks (ISSUE 7) ---------------------------------------

  /// Installs the run's starvation monitor: blocking takes then detect
  /// global deadlock and throw DeadlockError instead of hanging.  Set once
  /// before the rank threads start; nullptr (the default) keeps the
  /// untimed legacy waits.
  void set_starvation_monitor(StarvationMonitor* monitor) {
    monitor_ = monitor;
  }

  /// With deterministic wildcard selection on, a kAnySource take whose
  /// pattern several streams satisfy picks the lowest (source, seq)
  /// candidate instead of the first by physical queue position — removing
  /// the one put-order race wildcard matching otherwise has.  Installed
  /// together with the monitor so verify-mode traces replay exactly.
  void set_deterministic_wildcard(bool on) { deterministic_wildcard_ = on; }

  /// Monotonic count of mailbox events (enqueues, aborts, peer losses).
  /// Snapshot it *before* a progress pass and hand it to idle_wait so an
  /// arrival during the pass is never slept through.
  [[nodiscard]] std::uint64_t event_count() const;

  /// Parks the owning rank until this mailbox sees an event newer than
  /// `seen_events` — the verify-mode replacement for the progress engine's
  /// yield spin, and a starvation-detection point: throws DeadlockError
  /// when the park completes a global deadlock, AbortError when the
  /// runtime is torn down.  Without a monitor installed it degrades to a
  /// plain yield.
  void idle_wait(std::uint64_t seen_events);

  /// Wakes the owner (if parked) so it re-checks the monitor's starved
  /// flag.  Called by a *finishing* rank that detected starvation; the
  /// caller must not hold this mailbox's lock.
  void wake_for_starvation();

  // -- Rank virtualization hook (ISSUE 10) -----------------------------------

  /// Installs the owner's park/resume endpoint: blocking waits then
  /// suspend the owning fiber instead of sleeping on the condition
  /// variable, and every event that notifies the condition variable also
  /// wakes the fiber.  Set once before the run's workers start and cleared
  /// after they join; mutually exclusive with the starvation monitor
  /// (oracle-mode runs stay on dedicated threads).
  void set_rank_waiter(RankWaiter* waiter) { waiter_ = waiter; }

 private:
  /// Sender identity; the unit of duplicate suppression.
  struct SenderKey {
    std::int64_t context;
    int source;
    bool operator==(const SenderKey&) const = default;
  };
  struct SenderKeyHash {
    std::size_t operator()(const SenderKey& k) const {
      std::uint64_t h = static_cast<std::uint64_t>(k.context) * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.source));
      h *= 0xC2B2AE3D27D4EB4FULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  /// Index of the oldest eligible message matching the pattern; npos
  /// when none.  With `arrival_cutoff`, a stream whose head has not
  /// virtually arrived is skipped entirely (non-overtaking).  Caller
  /// holds the lock.
  [[nodiscard]] std::size_t select_locked(std::int64_t context, int source,
                                          int tag,
                                          const double* arrival_cutoff);

  /// Removes index `idx` from the queue, advancing its sender's delivered
  /// watermark and purging any queued twin of it.  Caller holds the lock.
  Message remove_locked(std::size_t idx);

  /// Throws if the mailbox is aborted (always) or an in-scope peer is lost
  /// (when the caller found no deliverable message).  Caller holds the lock.
  void throw_if_dead_locked(bool have_match) const;

  /// The first lost peer the current loss scope cares about, or -1.
  /// Caller holds the lock.
  [[nodiscard]] int relevant_lost_locked() const;

  /// Blocking take under an installed starvation monitor: same matching
  /// semantics as take(), plus deadlock detection.  Caller holds the lock.
  Message take_monitored(std::int64_t context, int source, int tag,
                         std::unique_lock<std::mutex>& lock);

  /// Blocks (holding `lock`) until this mailbox sees any event newer than
  /// the caller's last look: fiber park when a RankWaiter is installed,
  /// condition-variable wait otherwise.  Returns with the lock held; the
  /// caller re-checks its predicate.  Throws DeadlockError when the
  /// scheduler has declared a global deadlock.
  void wait_for_event_locked(
      std::unique_lock<std::mutex>& lock,
      const std::chrono::steady_clock::time_point* deadline,
      const char* what);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  StarvationMonitor* monitor_ = nullptr;
  RankWaiter* waiter_ = nullptr;  // virtualized-owner park/resume endpoint
  bool deterministic_wildcard_ = false;
  std::uint64_t events_ = 0;  // bumped per enqueue/abort/loss, for idle_wait
  // Highest seq delivered per sender; bounded by the number of senders.
  std::unordered_map<SenderKey, std::uint64_t, SenderKeyHash> delivered_;
  std::uint64_t duplicates_suppressed_ = 0;
  bool aborted_ = false;
  std::vector<int> lost_peers_;  // global ranks that exited
  std::optional<std::vector<int>> loss_scope_;  // nullopt = every peer
};

}  // namespace rsmpi::mprt
