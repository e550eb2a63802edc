// Regression tests for sequence-number delivery (ISSUE 4, satellite 1):
// Mailbox::try_take_due (the poll the async progress engine replays on)
// and blocking take must agree on one delivery order when a fault plan
// physically reorders or duplicates messages, and each sequence number is
// delivered at most once.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "mprt/mailbox.hpp"
#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "rs/async.hpp"
#include "rs/ops/counts.hpp"
#include "rs/reduce.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::kAnySource;
using mprt::kAnyTag;
using mprt::Mailbox;
using mprt::Message;
using mprt::SimConfig;

constexpr std::int64_t kWorld = 0;

Message make_msg(int source, int tag, std::uint64_t seq,
                 double arrival_s = 0.0) {
  Message m;
  m.context = kWorld;
  m.source = source;
  m.tag = tag;
  m.seq = seq;
  m.arrival_vtime_s = arrival_s;
  const auto marker = static_cast<std::byte>(seq);
  m.assign_payload(std::span<const std::byte>(&marker, 1));
  return m;
}

TEST(Sequence, PhysicalReorderDeliversInSeqOrder) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 2));
  mb.put(make_msg(0, 1, 3));
  mb.put(make_msg(0, 1, 1), /*front=*/true);  // fault-plan front insertion
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 2u);
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 3u);
}

TEST(Sequence, FrontInsertedLaterSeqCannotOvertake) {
  Mailbox mb;
  mb.put(make_msg(0, 7, 1));
  mb.put(make_msg(0, 7, 2), /*front=*/true);
  // Physically seq 2 is at the head; logically seq 1 still precedes it.
  auto got = mb.try_take(kWorld, 0, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);
}

TEST(Sequence, DuplicateSeqIsDeliveredOnceAndCounted) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 1));
  mb.put(make_msg(0, 1, 1));  // duplicate delivery of the same send
  mb.put(make_msg(0, 1, 2));
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 2u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
}

TEST(Sequence, ProbeAgreesWithTakeOnDuplicates) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 1));
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  // A late duplicate of the delivered message: probe must not advertise a
  // message take would refuse to deliver.
  mb.put(make_msg(0, 1, 1));
  EXPECT_FALSE(mb.probe(kWorld, 0, 1));
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
  EXPECT_EQ(mb.pending(), 0u);  // purged by the probe
}

TEST(Sequence, StreamsAreIndependent) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 5));  // (src 0, tag 1) stream is at seq 5
  mb.put(make_msg(1, 1, 1));  // (src 1, tag 1) is a different stream
  mb.put(make_msg(0, 2, 1));  // as is (src 0, tag 2)
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 5u);
  EXPECT_EQ(mb.take(kWorld, 1, 1).seq, 1u);
  EXPECT_EQ(mb.take(kWorld, 0, 2).seq, 1u);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
}

TEST(Sequence, TryTakeDueHonorsSeqOrderAcrossArrivalTimes) {
  Mailbox mb;
  // Fault-plan delay: seq 1 arrives (virtually) *later* than seq 2.
  mb.put(make_msg(0, 1, 2, /*arrival_s=*/1.0));
  mb.put(make_msg(0, 1, 1, /*arrival_s=*/5.0));

  // At t=2 only seq 2 is due — but it may not overtake seq 1, so the
  // stream yields nothing.
  EXPECT_FALSE(mb.try_take_due(kWorld, 0, 1, 2.0).has_value());
  // Once the stream head is due, delivery is in seq order.
  auto first = mb.try_take_due(kWorld, 0, 1, 6.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 1u);
  auto second = mb.try_take_due(kWorld, 0, 1, 6.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 2u);
}

TEST(Sequence, TryTakeDueAndBlockingTakeAgree) {
  // The same reordered+duplicated queue drained two ways must produce the
  // same sequence of messages.
  const auto build = [] {
    auto mb = std::make_unique<Mailbox>();
    mb->put(make_msg(0, 1, 2, 0.5));
    mb->put(make_msg(0, 1, 2, 0.7));               // duplicate
    mb->put(make_msg(0, 1, 1, 0.1), /*front=*/true);
    mb->put(make_msg(0, 1, 3, 0.2));
    return mb;
  };

  std::vector<std::uint64_t> via_take;
  {
    auto mb = build();
    for (int i = 0; i < 3; ++i) {
      via_take.push_back(mb->take(kWorld, kAnySource, kAnyTag).seq);
    }
    EXPECT_EQ(mb->pending(), 0u);
  }
  std::vector<std::uint64_t> via_due;
  {
    auto mb = build();
    while (auto m = mb->try_take_due(kWorld, kAnySource, kAnyTag, 10.0)) {
      via_due.push_back(m->seq);
    }
  }
  EXPECT_EQ(via_take, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(via_due, via_take);
}

TEST(Sequence, LegacyUnsequencedMessagesKeepQueueOrder) {
  // seq 0 marks messages constructed outside Comm::send (older tests,
  // hand-built harnesses): they must keep the historical queue-position
  // order and never participate in duplicate suppression.
  Mailbox mb;
  mb.put(make_msg(0, 1, 0, /*arrival_s=*/1.0));
  mb.put(make_msg(0, 1, 0, /*arrival_s=*/2.0));
  EXPECT_EQ(mb.take(kWorld, 0, 1).arrival_vtime_s, 1.0);
  EXPECT_EQ(mb.take(kWorld, 0, 1).arrival_vtime_s, 2.0);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
}

// -- Per-sender watermark ----------------------------------------------------
//
// Duplicates are suppressed against one watermark per (context, source),
// not per stream.  These cases pin what that may and may not change.

TEST(Sequence, LowerSeqOnOtherTagQueuedBeforeHigherSeqTakeIsDelivered) {
  Mailbox mb;
  mb.put(make_msg(0, /*tag=*/1, 1));
  mb.put(make_msg(0, /*tag=*/2, 2));
  // Taking seq 2 raises the sender's watermark past seq 1, but seq 1 was
  // queued before that: it is genuine, not a duplicate.
  EXPECT_EQ(mb.take(kWorld, 0, 2).seq, 2u);
  EXPECT_TRUE(mb.probe(kWorld, 0, 1));
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Sequence, LateDuplicateOfOldStreamSuppressedAfterManyNewerStreams) {
  Mailbox mb;
  mb.put(make_msg(0, /*tag=*/0, 1));
  EXPECT_EQ(mb.take(kWorld, 0, 0).seq, 1u);
  // 1,000 newer streams (fresh tags, as collectives use) from the sender.
  for (int i = 1; i <= 1000; ++i) {
    const auto seq = static_cast<std::uint64_t>(i) + 1;
    mb.put(make_msg(0, /*tag=*/i, seq));
    EXPECT_EQ(mb.take(kWorld, 0, i).seq, seq);
  }
  mb.put(make_msg(0, /*tag=*/0, 1));  // late duplicate of the first send
  EXPECT_FALSE(mb.probe(kWorld, 0, 0));
  EXPECT_FALSE(mb.try_take(kWorld, 0, 0).has_value());
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
}

TEST(Sequence, QueuedTwinIsPurgedOnDeliveryAndCountedOnce) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 1));
  mb.put(make_msg(0, 1, 1));  // twin, queued before either is delivered
  mb.put(make_msg(0, 2, 2));
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  // The twin went with its first copy: only the seq-2 message is left.
  EXPECT_EQ(mb.pending(), 1u);
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
  EXPECT_FALSE(mb.probe(kWorld, 0, 1));
  EXPECT_EQ(mb.take(kWorld, 0, 2).seq, 2u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
}

TEST(Sequence, WatermarksAreBoundedBySenders) {
  Mailbox mb;
  std::vector<std::uint64_t> next_seq(3, 1);
  for (int i = 0; i < 10'000; ++i) {
    const int source = i % 3;
    const std::uint64_t seq = next_seq[static_cast<std::size_t>(source)]++;
    mb.put(make_msg(source, /*tag=*/i, seq));
    EXPECT_EQ(mb.take(kWorld, source, i).seq, seq);
  }
  EXPECT_LE(mb.watermarks(), 3u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
}

// The end-to-end replay the satellite names: the async progress engine
// (which drains with try_take_due between compute chunks and a blocking
// take at the end) under a reorder+duplicate fault plan must match the
// blocking collective bit for bit.
TEST(Sequence, AsyncEngineReplayUnderReorderAndDuplicates) {
  SimConfig sim;
  sim.seed = 77;
  sim.duplicate_prob = 0.7;
  sim.reorder_prob = 0.7;
  sim.delay_prob = 0.5;
  sim.max_extra_delay_s = 2e-5;

  std::vector<std::vector<long>> async_out(7);
  std::vector<std::vector<long>> blocking_out(7);
  mprt::run(
      7,
      [&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        std::vector<int> mine;
        for (int i = 0; i < 12; ++i) {
          mine.push_back((comm.rank() * 31 + i * 17) % 8);
        }
        blocking_out[r] = rs::reduce(comm, mine, rs::ops::Counts(8));
        auto fut = rs::reduce_async(comm, mine, rs::ops::Counts(8));
        // Poll between compute chunks, as an overlapping caller would;
        // this drives the try_take_due path before the final wait.
        for (int chunk = 0; chunk < 4; ++chunk) {
          auto timer = comm.compute_section();
          coll::nb::poll();
        }
        async_out[r] = fut.get();
      },
      mprt::CostModel{}, sim);

  for (std::size_t r = 0; r < 7; ++r) {
    EXPECT_EQ(async_out[r], blocking_out[r]) << "rank " << r;
    EXPECT_EQ(async_out[r], async_out[0]) << "rank " << r;
  }
}

}  // namespace
