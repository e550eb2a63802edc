// Tests for the non-blocking receive path on Comm.
#include <gtest/gtest.h>

#include "coll/barrier.hpp"
#include "mprt/runtime.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

TEST(TryRecv, ReturnsNulloptBeforeArrival) {
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.try_recv<int>(1, 5).has_value());
      // The sender waits for the empty probe above: otherwise the probe
      // races the send, and when it wins it consumes the message and the
      // poll below spins forever.
      coll::barrier(comm);
      // Synchronize so the message definitely arrived, then poll.
      coll::barrier(comm);
      std::optional<int> got;
      while (!got.has_value()) {
        got = comm.try_recv<int>(1, 5);
      }
      EXPECT_EQ(*got, 77);
    } else {
      coll::barrier(comm);
      comm.send(0, 5, 77);
      coll::barrier(comm);
    }
  });
}

TEST(TryRecv, MatchesPatternOnly) {
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      coll::barrier(comm);  // message is queued after this
      EXPECT_FALSE(comm.try_recv<int>(1, 99).has_value());  // wrong tag
      auto got = comm.try_recv<int>(mprt::kAnySource, mprt::kAnyTag);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, 5);
    } else {
      comm.send(0, 7, 5);
      coll::barrier(comm);
    }
  });
}

TEST(TryRecv, AdvancesClockOnlyOnSuccess) {
  mprt::CostModel m = mprt::CostModel::free();
  m.recv_overhead_s = 2.0;
  m.compute_scale = 0.0;
  mprt::run(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          const double before = comm.clock().now();
          (void)comm.try_recv<int>(1, 1);  // nothing there yet
          EXPECT_DOUBLE_EQ(comm.clock().now(), before);
          coll::barrier(comm);  // the sender sends only after the probe
          coll::barrier(comm);
          std::optional<int> got;
          while (!got.has_value()) got = comm.try_recv<int>(1, 1);
          EXPECT_GE(comm.clock().now(), 2.0);  // o_r charged on success
        } else {
          coll::barrier(comm);
          comm.send(0, 1, 1);
          coll::barrier(comm);
        }
      },
      m);
}

TEST(TryRecv, RejectsBadSource) {
  EXPECT_THROW(mprt::run(2,
                         [](Comm& comm) {
                           (void)comm.try_recv<int>(9, 0);
                         }),
               ArgumentError);
}

TEST(TryRecv, ReportsStatus) {
  mprt::run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      coll::barrier(comm);
      mprt::RecvStatus status;
      std::optional<long> got;
      while (!got.has_value()) {
        got = comm.try_recv<long>(mprt::kAnySource, mprt::kAnyTag, &status);
      }
      EXPECT_EQ(*got, status.source * 100L);
      EXPECT_EQ(status.tag, 4);
    } else {
      if (comm.rank() == 2) comm.send(0, 4, 200L);
      coll::barrier(comm);
    }
  });
}

}  // namespace
