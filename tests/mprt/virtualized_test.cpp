// Rank virtualization: many virtual ranks multiplexed onto a small
// OS-thread worker pool via stackful fibers.
//
// The headline acceptance test runs a p=4096 zoo allreduce on 8 workers —
// three orders of magnitude more ranks than threads — and checks every
// rank's result against the serial oracle, plus the scheduler counters
// surfaced through RunResult.  The remaining tests pin down the failure
// modes unique to virtualization: exact structural deadlock detection
// (every fiber parked, no timers pending) and the timed-receive path,
// whose deadline slices must ride the scheduler's timer heap rather than
// a condition-variable wait.  The scheduler tests at the end stress the
// per-worker ready queues (wake onto the waker's queue, steal the oldest)
// at several pool widths, timed parks, exact deadlock detection after heavy
// traffic, and what a context switch must carry: the FP control words and
// exceptions.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/state_exchange.hpp"
#include "util/error.hpp"
#include "verify/registry.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

// p = 4096 virtual ranks on 8 OS threads: the production state_allreduce
// dispatch (the flat cost model picks a logarithmic schedule for the
// small Counts state — never the 2(p−1)-step ring) must deliver the
// serial-oracle result on every rank, well inside the default ctest
// timeout.
TEST(Virtualized, P4096CountsAllreduceOnEightWorkers) {
  constexpr int kRanks = 4096;
  const mprt::ExecPolicy exec{/*workers=*/8, /*stack_bytes=*/0};
  std::vector<rs::reduce_result_t<rs::ops::Counts>> results(kRanks);
  const mprt::RunResult run = mprt::run(
      kRanks,
      [&](Comm& comm) {
        auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
        rs::detail::state_allreduce(comm, op,
                                    verify::make_prototype<rs::ops::Counts>());
        results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
      },
      mprt::CostModel{}, mprt::SimConfig{}, exec);

  const auto want = verify::expected_result<rs::ops::Counts>(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(results[static_cast<std::size_t>(r)] == want) << "rank " << r;
  }

  // Scheduler observability: the pool really was 8 workers wide, ranks
  // really parked (4096 fibers cannot all run at once on 8 threads), and
  // the park/resume protocol fired.
  EXPECT_EQ(run.workers, 8u);
  EXPECT_GT(run.parked_ranks, 0u);
  EXPECT_LE(run.parked_ranks, static_cast<std::uint64_t>(kRanks));
  EXPECT_GT(run.park_events, 0u);
}

// workers = 0 forces the classic thread-per-rank runtime: the virtualized
// counters must read zero so dashboards can tell the modes apart.
TEST(Virtualized, ThreadedModeReportsNoWorkers) {
  const mprt::ExecPolicy threaded{/*workers=*/0, /*stack_bytes=*/0};
  const mprt::RunResult run = mprt::run(
      4,
      [](Comm& comm) {
        auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
        rs::detail::state_allreduce(comm, op,
                                    verify::make_prototype<rs::ops::Counts>());
      },
      mprt::CostModel{}, mprt::SimConfig{}, threaded);
  EXPECT_EQ(run.workers, 0u);
  EXPECT_EQ(run.parked_ranks, 0u);
  EXPECT_EQ(run.park_events, 0u);
}

// A custom fiber stack size flows through ExecPolicy (the RSMPI_STACK_BYTES
// env var takes the same path); the run must still complete correctly.
TEST(Virtualized, CustomStackSize) {
  const mprt::ExecPolicy exec{/*workers=*/2, /*stack_bytes=*/512 * 1024};
  std::vector<rs::reduce_result_t<rs::ops::Counts>> results(16);
  mprt::run(
      16,
      [&](Comm& comm) {
        auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
        rs::detail::state_allreduce(comm, op,
                                    verify::make_prototype<rs::ops::Counts>());
        results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
      },
      mprt::CostModel{}, mprt::SimConfig{}, exec);
  const auto want = verify::expected_result<rs::ops::Counts>(16);
  for (int r = 0; r < 16; ++r) {
    EXPECT_TRUE(results[static_cast<std::size_t>(r)] == want) << "rank " << r;
  }
}

// Two ranks each blocking on a receive the other never sends: with every
// fiber parked and no timers pending, the virtualized scheduler has exact
// knowledge that no progress is possible and must convert the hang into
// DeadlockError instead of stalling until the ctest timeout.
TEST(Virtualized, StructuralDeadlockDetected) {
  const mprt::ExecPolicy exec{/*workers=*/2, /*stack_bytes=*/0};
  EXPECT_THROW(
      mprt::run(
          2,
          [](Comm& comm) {
            const int peer = 1 - comm.rank();
            (void)comm.recv_message(peer, /*tag=*/7);
          },
          mprt::CostModel{}, mprt::SimConfig{}, exec),
      rsmpi::DeadlockError);
}

// Receive deadlines under virtualization: the deadline slices must arm
// timers on the scheduler's heap (a parked fiber cannot sit in a timed
// condition-variable wait), fire after the budget, and surface the usual
// TimeoutError.  Rank 0 exits immediately, so rank 1 is the sole parked
// fiber — the pending timer is the only thing distinguishing this state
// from a structural deadlock.
TEST(Virtualized, RecvDeadlineFiresOnTimerHeap) {
  const mprt::ExecPolicy exec{/*workers=*/2, /*stack_bytes=*/0};
  bool timed_out = false;
  mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() != 1) return;
        comm.set_recv_deadline(
            mprt::RecvDeadline{/*timeout_s=*/0.05, /*retries=*/2,
                               /*backoff=*/2.0});
        try {
          (void)comm.recv_message(0, /*tag=*/7);
        } catch (const rsmpi::TimeoutError&) {
          timed_out = true;
        }
      },
      mprt::CostModel{}, mprt::SimConfig{}, exec);
  EXPECT_TRUE(timed_out);
}

constexpr int kPoolWidths[] = {1, 2, 4, 8};

// A token makes 20,000 hops around a ring of 64 ranks: every hop is a
// wake of the next rank and, usually, a park of the sender.  At every pool
// width the run must complete, deliver the hop count to the final holder,
// and park at most once per hop (each receive parks at most once, and only
// its predecessor's send can wake it).
TEST(VirtualizedScheduler, TokenRingChurn) {
  constexpr int kRanks = 64;
  constexpr std::uint64_t kHops = 20000;
  for (const int workers : kPoolWidths) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::uint64_t final_value = 0;
    std::vector<int> bad_hops(kRanks, 0);
    const mprt::RunResult run = mprt::run(
        kRanks,
        [&](Comm& comm) {
          const int r = comm.rank();
          const int next = (r + 1) % kRanks;
          const int prev = (r + kRanks - 1) % kRanks;
          // Rank r holds the token at hops k = r, r + 64, ...; at hop k the
          // token reads k.
          for (std::uint64_t k = static_cast<std::uint64_t>(r); k <= kHops;
               k += kRanks) {
            std::uint64_t v = 0;
            if (k > 0) v = comm.recv<std::uint64_t>(prev, /*tag=*/3);
            if (v != k) ++bad_hops[static_cast<std::size_t>(r)];
            if (k < kHops) {
              comm.send(next, /*tag=*/3, v + 1);
            } else {
              final_value = v;
            }
          }
        },
        mprt::CostModel{}, mprt::SimConfig{},
        mprt::ExecPolicy{workers, /*stack_bytes=*/0});
    EXPECT_EQ(final_value, kHops);
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(bad_hops[static_cast<std::size_t>(r)], 0) << "rank " << r;
    }
    EXPECT_EQ(run.total_messages, kHops);
    EXPECT_EQ(run.workers, static_cast<std::uint64_t>(workers));
    EXPECT_GT(run.park_events, 0u);
    EXPECT_LE(run.park_events, kHops);
  }
}

// Token-ring traffic in which every receive carries a deadline, so every
// park arms a timer: the heap keeps growing (and reallocating) while the
// other worker sleeps until the earliest due time.  The sleeper must not
// hold a reference into the heap across its wait — under ASan this test
// reports a heap-use-after-free if it does.  No deadline is ever reached.
TEST(VirtualizedScheduler, TimedParksChurn) {
  constexpr int kRanks = 16;
  constexpr std::uint64_t kHops = 4000;
  std::uint64_t final_value = 0;
  const mprt::RunResult run = mprt::run(
      kRanks,
      [&](Comm& comm) {
        comm.set_recv_deadline(mprt::RecvDeadline{/*timeout_s=*/30.0,
                                                  /*retries=*/0,
                                                  /*backoff=*/1.0});
        const int r = comm.rank();
        for (std::uint64_t k = static_cast<std::uint64_t>(r); k <= kHops;
             k += kRanks) {
          std::uint64_t v = 0;
          if (k > 0) v = comm.recv<std::uint64_t>((r + kRanks - 1) % kRanks, 3);
          if (k < kHops) {
            comm.send((r + 1) % kRanks, /*tag=*/3, v + 1);
          } else {
            final_value = v;
          }
        }
      },
      mprt::CostModel{}, mprt::SimConfig{},
      mprt::ExecPolicy{/*workers=*/2, /*stack_bytes=*/0});
  EXPECT_EQ(final_value, kHops);
  EXPECT_GT(run.park_events, 0u);
}

// Deadlock detection stays exact after the queues have seen heavy traffic:
// 1,000 rounds of pairwise exchange, then every rank receives from a peer
// that never sends.  Every rank — not just one — must get DeadlockError,
// and nothing may hang, at every pool width.
TEST(VirtualizedScheduler, DeadlockAfterTraffic) {
  constexpr int kRanks = 16;
  constexpr int kRounds = 1000;
  for (const int workers : kPoolWidths) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<int> exchanged(kRanks, 0);
    std::vector<int> deadlocked(kRanks, 0);
    mprt::run(
        kRanks,
        [&](Comm& comm) {
          const int r = comm.rank();
          const int partner = r ^ 1;
          for (int i = 0; i < kRounds; ++i) {
            comm.send(partner, /*tag=*/1, i);
            if (comm.recv<int>(partner, /*tag=*/1) == i) {
              ++exchanged[static_cast<std::size_t>(r)];
            }
          }
          try {
            (void)comm.recv_message(partner, /*tag=*/2);  // never sent
          } catch (const rsmpi::DeadlockError&) {
            deadlocked[static_cast<std::size_t>(r)] = 1;
          }
        },
        mprt::CostModel{}, mprt::SimConfig{},
        mprt::ExecPolicy{workers, /*stack_bytes=*/0});
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(exchanged[static_cast<std::size_t>(r)], kRounds) << "rank " << r;
      EXPECT_EQ(deadlocked[static_cast<std::size_t>(r)], 1) << "rank " << r;
    }
  }
}

// The FP control words are per fiber, not per worker.  Rank 0 switches to
// upward rounding and keeps it across parks that may resume it on another
// worker; every other rank shares the (two) workers with it and must keep
// seeing round-to-nearest.  The division checks the hardware mode, not
// just what fegetround reports.
TEST(VirtualizedScheduler, RoundingModeIsPerFiber) {
  constexpr int kRanks = 8;
  constexpr int kRounds = 200;
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;
  std::vector<int> wrong_mode(kRanks, 0);
  const mprt::RunResult run = mprt::run(
      kRanks,
      [&](Comm& comm) {
        const int r = comm.rank();
        const int want = r == 0 ? FE_UPWARD : FE_TONEAREST;
        if (r == 0) std::fesetround(FE_UPWARD);
        const int next = (r + 1) % kRanks;
        const int prev = (r + kRanks - 1) % kRanks;
        for (int i = 0; i < kRounds; ++i) {
          comm.send(next, /*tag=*/4, i);
          (void)comm.recv<int>(prev, /*tag=*/4);
          const double third = one / three;
          const bool rounded_up = third > nearest_third;
          if (std::fegetround() != want || rounded_up != (r == 0)) {
            ++wrong_mode[static_cast<std::size_t>(r)];
          }
        }
      },
      mprt::CostModel{}, mprt::SimConfig{},
      mprt::ExecPolicy{/*workers=*/2, /*stack_bytes=*/0});
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(wrong_mode[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  EXPECT_GT(run.park_events, 0u);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

struct RankBodyFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// An exception a rank body throws after it has parked — so on whichever
// worker resumed it — still reaches mprt::run's caller with its type and
// message.  On one worker the parks are deterministic: rank 0 parks in its
// receive, rank 1 sends and parks in its own, rank 0 replies, and rank 1
// throws on resume.
TEST(VirtualizedScheduler, ExceptionAfterParkReachesCaller) {
  for (const int workers : kPoolWidths) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    try {
      mprt::run(
          2,
          [](Comm& comm) {
            if (comm.rank() == 0) {
              (void)comm.recv<int>(1, /*tag=*/5);
              comm.send(1, /*tag=*/6, 1);
              return;
            }
            comm.send(0, /*tag=*/5, 1);
            (void)comm.recv<int>(0, /*tag=*/6);
            throw RankBodyFailure("rank 1 failed after parking");
          },
          mprt::CostModel{}, mprt::SimConfig{},
          mprt::ExecPolicy{workers, /*stack_bytes=*/0});
      ADD_FAILURE() << "mprt::run returned normally";
    } catch (const RankBodyFailure& e) {
      EXPECT_EQ(std::string(e.what()), "rank 1 failed after parking");
    }
  }
}

}  // namespace
