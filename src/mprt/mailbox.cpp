#include "mprt/mailbox.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace rsmpi::mprt {

namespace {

bool matches(const Message& m, std::int64_t context, int source, int tag) {
  return m.context == context &&
         ((source == kAnySource) || (m.source == source)) &&
         ((tag == kAnyTag) || (m.tag == tag));
}

/// True when queued message `a` (at index ia) must be delivered before
/// `b` (at index ib) of the same stream: by sequence number when both are
/// sequenced, by queue position otherwise (legacy unsequenced messages).
bool precedes(const Message& a, std::size_t ia, const Message& b,
              std::size_t ib) {
  if (a.seq != 0 && b.seq != 0) return a.seq < b.seq;
  return ia < ib;
}

}  // namespace

void Mailbox::put(Message msg, bool front) {
  {
    std::lock_guard lock(mutex_);
    if (msg.seq != 0) {
      // A sender's messages are put in seq order, so one put after the
      // sender's watermark passed its seq is a copy of a delivered message.
      const auto it = delivered_.find({msg.context, msg.source});
      if (it != delivered_.end() && msg.seq <= it->second) {
        ++duplicates_suppressed_;
        return;
      }
    }
    ++events_;
    if (front) {
      queue_.push_front(std::move(msg));
    } else {
      queue_.push_back(std::move(msg));
    }
  }
  // notify_all rather than notify_one: only the owner blocks in take(), but
  // it may be woken spuriously by non-matching messages and must re-check.
  cv_.notify_all();
  if (waiter_ != nullptr) waiter_->wake();
}

std::size_t Mailbox::select_locked(std::int64_t context, int source, int tag,
                                   const double* arrival_cutoff) {
  // Under deterministic wildcard selection, a pattern several streams
  // satisfy is resolved by canonical (source, seq) order instead of by the
  // racy physical put order, so a model-checker trace replays exactly.
  const bool canonical = deterministic_wildcard_ &&
                         (source == kAnySource || tag == kAnyTag);
  std::size_t best = npos;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (!matches(m, context, source, tag)) continue;
    // Non-overtaking: the message is only eligible if it is the head of
    // its stream — no other queued message of the stream precedes it.
    bool blocked = false;
    for (std::size_t j = 0; j < queue_.size(); ++j) {
      if (j == i) continue;
      const Message& other = queue_[j];
      if (other.context == m.context && other.source == m.source &&
          other.tag == m.tag && precedes(other, j, m, i)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    // Due-only mode: a stream whose head is still virtually in flight
    // yields nothing (a later same-stream message may not overtake it).
    if (arrival_cutoff != nullptr && m.arrival_vtime_s > *arrival_cutoff) {
      continue;
    }
    if (!canonical) return i;
    if (best == npos ||
        std::pair(m.source, m.seq) <
            std::pair(queue_[best].source, queue_[best].seq)) {
      best = i;
    }
  }
  return best;
}

Message Mailbox::remove_locked(std::size_t idx) {
  Message msg = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (msg.seq != 0) {
    std::uint64_t& mark = delivered_[{msg.context, msg.source}];
    if (msg.seq > mark) mark = msg.seq;
    // seq is unique per sender, so a queued message with the same
    // (context, source, seq) is a twin of this one, whatever its tag.
    const auto twins = std::erase_if(queue_, [&](const Message& m) {
      return m.seq == msg.seq && m.source == msg.source &&
             m.context == msg.context;
    });
    duplicates_suppressed_ += twins;
  }
  return msg;
}

int Mailbox::relevant_lost_locked() const {
  for (const int peer : lost_peers_) {
    if (!loss_scope_.has_value()) return peer;
    for (const int scoped : *loss_scope_) {
      if (scoped == peer) return peer;
    }
  }
  return -1;
}

void Mailbox::throw_if_dead_locked(bool have_match) const {
  if (aborted_) {
    throw AbortError("mailbox: runtime aborted while waiting for message");
  }
  const int lost = relevant_lost_locked();
  if (!have_match && lost >= 0) {
    throw PeerLostError("mailbox: rank " + std::to_string(lost) +
                        " exited while this rank was waiting for a message");
  }
}

namespace {

/// How long a starvation suspicion must hold before it is declared: long
/// enough for any already-issued wakeup to land (the waking rank would bump
/// the monitor's version), short enough that exhaustive fault exploration
/// stays fast.
constexpr auto kStarvationConfirmWindow = std::chrono::milliseconds(20);

}  // namespace

Message Mailbox::take_monitored(std::int64_t context, int source, int tag,
                                std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (aborted_) {
      throw AbortError("mailbox: runtime aborted while waiting for message");
    }
    std::size_t idx = select_locked(context, source, tag, nullptr);
    if (idx != npos) return remove_locked(idx);
    throw_if_dead_locked(/*have_match=*/false);  // PeerLostError path
    if (monitor_->starved()) {
      throw DeadlockError(
          "mailbox: every live rank is blocked with no deliverable message "
          "(global deadlock detected by the verify-mode starvation monitor)");
    }
    monitor_->enter_blocked();
    if (monitor_->all_blocked()) {
      // This block may have completed a global deadlock; wait out the
      // confirmation window, then re-check both the monitor *and* our own
      // queue (a put issued just before we blocked lands here as a match,
      // never as a false deadlock).
      const std::uint64_t version = monitor_->version();
      cv_.wait_for(lock, kStarvationConfirmWindow);
      idx = select_locked(context, source, tag, nullptr);
      if (idx == npos && !aborted_ && monitor_->confirm_starved(version)) {
        monitor_->leave_blocked();
        throw DeadlockError(
            "mailbox: every live rank is blocked with no deliverable "
            "message (global deadlock detected by the verify-mode "
            "starvation monitor)");
      }
      monitor_->leave_blocked();
      continue;  // re-runs the full selection/error checks
    }
    const std::uint64_t seen = events_;
    cv_.wait(lock, [&] {
      return aborted_ || monitor_->starved() || events_ != seen ||
             relevant_lost_locked() >= 0;
    });
    monitor_->leave_blocked();
  }
}

void Mailbox::wait_for_event_locked(
    std::unique_lock<std::mutex>& lock,
    const std::chrono::steady_clock::time_point* deadline, const char* what) {
  if (waiter_ != nullptr) {
    if (waiter_->deadlock_declared()) {
      throw DeadlockError(
          std::string("mailbox: every live rank is parked with no "
                      "deliverable message (global deadlock detected by the "
                      "virtualized scheduler while ") +
          what + ")");
    }
    // The park may return spuriously (deadline, deadlock wake, stale
    // notify); the caller's loop re-checks its predicate, and re-entering
    // here converts a deadlock declaration into the throw above.
    waiter_->park(lock, deadline);
    return;
  }
  const std::uint64_t seen = events_;
  const auto pred = [&] {
    return aborted_ || events_ != seen || relevant_lost_locked() >= 0;
  };
  if (deadline != nullptr) {
    cv_.wait_until(lock, *deadline, pred);
  } else {
    cv_.wait(lock, pred);
  }
}

Message Mailbox::take(std::int64_t context, int source, int tag) {
  std::unique_lock lock(mutex_);
  if (monitor_ != nullptr) return take_monitored(context, source, tag, lock);
  for (;;) {
    const std::size_t idx =
        aborted_ ? npos : select_locked(context, source, tag, nullptr);
    if (aborted_ || relevant_lost_locked() >= 0) {
      // A match that is already queued is still deliverable even when a
      // (different) peer died; abort and matchless loss throw here.
      throw_if_dead_locked(idx != npos);
      return remove_locked(idx);
    }
    if (idx != npos) return remove_locked(idx);
    wait_for_event_locked(lock, nullptr, "waiting for a message");
  }
}

std::optional<Message> Mailbox::take_for(std::int64_t context, int source,
                                         int tag, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  std::unique_lock lock(mutex_);
  for (;;) {
    const std::size_t idx =
        aborted_ ? npos : select_locked(context, source, tag, nullptr);
    if (aborted_ || relevant_lost_locked() >= 0) {
      throw_if_dead_locked(idx != npos);
      return remove_locked(idx);
    }
    if (idx != npos) return remove_locked(idx);
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    wait_for_event_locked(lock, &deadline, "waiting for a message");
  }
}

std::optional<Message> Mailbox::try_take(std::int64_t context, int source,
                                         int tag) {
  std::lock_guard lock(mutex_);
  const std::size_t idx = select_locked(context, source, tag, nullptr);
  throw_if_dead_locked(idx != npos);
  if (idx == npos) return std::nullopt;
  return remove_locked(idx);
}

std::optional<Message> Mailbox::try_take_due(std::int64_t context, int source,
                                             int tag, double arrival_cutoff) {
  std::lock_guard lock(mutex_);
  const std::size_t idx =
      select_locked(context, source, tag, &arrival_cutoff);
  // Due-only polling must not throw PeerLostError on an empty poll: the
  // blocking wait that follows the poll loop surfaces it (an in-flight but
  // not-yet-due message is a normal condition, a lost peer is not — but
  // the poller cannot tell them apart, the waiter can).
  if (aborted_) {
    throw AbortError("mailbox: runtime aborted while waiting for message");
  }
  if (idx == npos) return std::nullopt;
  return remove_locked(idx);
}

bool Mailbox::probe(std::int64_t context, int source, int tag) {
  std::lock_guard lock(mutex_);
  return select_locked(context, source, tag, nullptr) != npos;
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::uint64_t Mailbox::duplicates_suppressed() const {
  std::lock_guard lock(mutex_);
  return duplicates_suppressed_;
}

std::size_t Mailbox::watermarks() const {
  std::lock_guard lock(mutex_);
  return delivered_.size();
}

void Mailbox::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
    ++events_;
  }
  cv_.notify_all();
  if (waiter_ != nullptr) waiter_->wake();
}

void Mailbox::notify_peer_lost(int global_rank) {
  {
    std::lock_guard lock(mutex_);
    bool known = false;
    for (const int peer : lost_peers_) known = known || (peer == global_rank);
    if (!known) lost_peers_.push_back(global_rank);
    ++events_;
  }
  cv_.notify_all();
  if (waiter_ != nullptr) waiter_->wake();
}

std::uint64_t Mailbox::event_count() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void Mailbox::idle_wait(std::uint64_t seen_events) {
  if (waiter_ != nullptr) {
    // Virtualized owner: a yield here would spin the worker (the sender it
    // waits on may be queued behind it on the same worker) — park instead.
    // `seen_events` predates the caller's fruitless blocking-mode progress
    // pass, so a newer event means a message may have arrived mid-pass.
    std::unique_lock lock(mutex_);
    for (;;) {
      if (aborted_) {
        throw AbortError(
            "mailbox: runtime aborted while waiting for progress");
      }
      if (events_ != seen_events) return;
      wait_for_event_locked(lock, nullptr, "polling nonblocking operations");
    }
  }
  if (monitor_ == nullptr) {
    std::this_thread::yield();
    return;
  }
  std::unique_lock lock(mutex_);
  if (aborted_) {
    throw AbortError("mailbox: runtime aborted while waiting for progress");
  }
  if (monitor_->starved()) {
    throw DeadlockError(
        "mailbox: every live rank is blocked with no deliverable message "
        "(global deadlock detected while polling nonblocking operations)");
  }
  // `seen_events` was snapshotted before the caller's (fruitless) progress
  // pass.  A newer event means a message may have arrived mid-pass: return
  // and let the caller poll again rather than park on stale information.
  if (events_ != seen_events) return;
  monitor_->enter_blocked();
  if (monitor_->all_blocked()) {
    const std::uint64_t version = monitor_->version();
    cv_.wait_for(lock, kStarvationConfirmWindow);
    // The caller's blocking-mode pass consumed everything deliverable, so
    // with no event since that pass (and no waiter progress anywhere) any
    // still-queued message is permanently undeliverable: a real deadlock.
    if (events_ == seen_events && !aborted_ &&
        monitor_->confirm_starved(version)) {
      monitor_->leave_blocked();
      throw DeadlockError(
          "mailbox: every live rank is blocked with no deliverable message "
          "(global deadlock detected while polling nonblocking operations)");
    }
    monitor_->leave_blocked();
    return;
  }
  cv_.wait(lock, [&] {
    return aborted_ || monitor_->starved() || events_ != seen_events;
  });
  monitor_->leave_blocked();
}

void Mailbox::wake_for_starvation() {
  {
    std::lock_guard lock(mutex_);
    ++events_;
  }
  cv_.notify_all();
  if (waiter_ != nullptr) waiter_->wake();
}

std::vector<int> Mailbox::lost_peers() const {
  std::lock_guard lock(mutex_);
  return lost_peers_;
}

void Mailbox::set_peer_loss_scope(std::optional<std::vector<int>> global_ranks) {
  {
    std::lock_guard lock(mutex_);
    loss_scope_ = std::move(global_ranks);
  }
  // Widening the scope can make a previously-ignored loss relevant to a
  // blocked take (not the normal usage — the owner sets its own scope while
  // not blocked — but the wake keeps the primitive safe either way).
  cv_.notify_all();
  if (waiter_ != nullptr) waiter_->wake();
}

}  // namespace rsmpi::mprt
