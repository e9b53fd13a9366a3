#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace sesp {
namespace {

using Lane = CalendarQueue::Lane;
using Popped = CalendarQueue::Popped;

// Reference model: the old simulator event heap — min (time, kind, seq),
// compute steps before deliveries at equal times, FIFO within a kind. The
// calendar queue must reproduce its pop order bit-for-bit; this is the
// determinism contract the replay oracle and golden corpus rest on.
struct RefEvent {
  Time time;
  int kind;  // 0 = compute, 1 = deliver
  std::uint64_t seq;
  ProcessId process;
  MsgId message;
};

struct RefAfter {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.time != b.time) return b.time < a.time;
    if (a.kind != b.kind) return a.kind == 1;
    return a.seq > b.seq;
  }
};

class RefQueue {
 public:
  void push_compute(const Time& t, ProcessId p) {
    q_.push(RefEvent{t, 0, seq_++, p, kNoMsg});
  }
  void push_deliver(const Time& t, ProcessId p, MsgId m) {
    q_.push(RefEvent{t, 1, seq_++, p, m});
  }
  bool empty() const { return q_.empty(); }
  RefEvent pop() {
    RefEvent e = q_.top();
    q_.pop();
    return e;
  }

 private:
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefAfter> q_;
  std::uint64_t seq_ = 0;
};

void expect_same_pop(CalendarQueue& cq, RefQueue& ref) {
  ASSERT_FALSE(cq.empty());
  ASSERT_FALSE(ref.empty());
  const RefEvent want = ref.pop();
  const Lane want_lane = want.kind == 0 ? Lane::kCompute : Lane::kDeliver;
  EXPECT_EQ(cq.peek_lane(), want_lane);
  Popped got;
  ASSERT_TRUE(cq.pop(got));
  ASSERT_EQ(got.time, want.time) << "t=" << want.time.to_string();
  ASSERT_EQ(got.lane, want_lane);
  ASSERT_EQ(got.process, want.process);
  ASSERT_EQ(got.message, want.message);
}

TEST(CalendarQueueTest, EmptyQueueBehaves) {
  CalendarQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  Popped out;
  EXPECT_FALSE(q.pop(out));
}

TEST(CalendarQueueTest, ComputesBeforeDeliversAtEqualTime) {
  CalendarQueue q;
  q.push_deliver(Time(1), 7, 42);
  q.push_compute(Time(1), 3);
  q.push_deliver(Time(1), 8, 43);
  q.push_compute(Time(1), 4);

  Popped out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.lane, Lane::kCompute);
  EXPECT_EQ(out.process, 3);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.lane, Lane::kCompute);
  EXPECT_EQ(out.process, 4);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.lane, Lane::kDeliver);
  EXPECT_EQ(out.message, 42);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.lane, Lane::kDeliver);
  EXPECT_EQ(out.message, 43);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, FifoStableWithinLaneAcrossInterleavedPushes) {
  // Pushes at the time currently being drained append behind the un-popped
  // events of their lane — the (time, kind, seq) heap's order exactly.
  CalendarQueue q;
  RefQueue ref;
  for (int i = 0; i < 4; ++i) {
    q.push_compute(Time(2), i);
    ref.push_compute(Time(2), i);
  }
  // Drain two, then push more at the same time into both lanes.
  expect_same_pop(q, ref);
  expect_same_pop(q, ref);
  q.push_compute(Time(2), 50);
  ref.push_compute(Time(2), 50);
  q.push_deliver(Time(2), 9, 77);
  ref.push_deliver(Time(2), 9, 77);
  while (!ref.empty()) expect_same_pop(q, ref);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, AllSameTimestampAdversarialDistribution) {
  CalendarQueue q;
  RefQueue ref;
  Rng rng(0xca1e'0001ULL);
  const Time t(7, 3);
  for (int i = 0; i < 2'000; ++i) {
    if (rng.next_bool(1, 2)) {
      q.push_compute(t, i);
      ref.push_compute(t, i);
    } else {
      q.push_deliver(t, i, i);
      ref.push_deliver(t, i, i);
    }
  }
  // One bucket, one distinct time: the degenerate case the bucket design
  // exists for.
  EXPECT_EQ(q.distinct_times(), 1u);
  while (!ref.empty()) expect_same_pop(q, ref);
}

TEST(CalendarQueueTest, PowerLawGapsFallBackToHeapOrder) {
  // Every event on its own timestamp with wildly skewed gaps: the calendar
  // queue degrades to a comparison heap and must still agree with it.
  CalendarQueue q;
  RefQueue ref;
  Rng rng(0xca1e'0002ULL);
  Time t(0);
  std::vector<Time> times;
  for (int i = 0; i < 500; ++i) {
    // Gap ~ 2^k for k in [0, 30): a power-law-ish spread.
    t += Duration(std::int64_t{1} << rng.next_below(30));
    times.push_back(t);
  }
  // Push in shuffled order so the heap actually has to sort.
  for (std::size_t i = times.size(); i > 1;) {
    const std::size_t j = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint32_t>(i)));
    --i;
    std::swap(times[i], times[j]);
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.push_compute(times[i], static_cast<ProcessId>(i));
    ref.push_compute(times[i], static_cast<ProcessId>(i));
  }
  while (!ref.empty()) expect_same_pop(q, ref);
}

TEST(CalendarQueueTest, DenominatorBlowupsUseThePool) {
  // Times that cannot fit the inline PackedRatio encoding: distinct huge
  // denominators force pooled keys; order must stay exact where doubles
  // would collapse the differences.
  CalendarQueue q;
  RefQueue ref;
  const std::int64_t kDen = (std::int64_t{1} << 23);  // past the inline field
  for (int i = 0; i < 64; ++i) {
    const Time t(kDen + 1 + i, kDen + i);  // slightly > 1, all distinct
    q.push_compute(t, i);
    ref.push_compute(t, i);
  }
  EXPECT_GT(q.interned_times(), 0u);
  while (!ref.empty()) expect_same_pop(q, ref);
}

TEST(CalendarQueueTest, RandomizedDifferentialAgainstReferenceHeap) {
  // Interleaved pushes and pops over a mix of dense and sparse timelines —
  // bucket creation, draining, reuse, and index rehash all churn here.
  CalendarQueue q;
  RefQueue ref;
  Rng rng(0xca1e'0003ULL);
  Time now(0);
  int pushed = 0;
  for (int round = 0; round < 5'000; ++round) {
    const std::uint32_t action = rng.next_below(4);
    if (action < 2 || q.empty()) {
      // Push times are nondecreasing (like a simulator's schedules), so a
      // push is never earlier than the bucket being drained; the stray
      // earlier push is exercised separately below.
      const Duration gap = rng.next_bool(3, 5)
                               ? Duration(0)
                               : Duration(rng.next_int(1, 50),
                                          rng.next_int(1, 8));
      now += gap;
      if (rng.next_bool(1, 2)) {
        q.push_compute(now, pushed);
        ref.push_compute(now, pushed);
      } else {
        q.push_deliver(now, pushed, pushed);
        ref.push_deliver(now, pushed, pushed);
      }
      ++pushed;
    } else {
      ASSERT_FALSE(ref.empty());
      const std::size_t before = q.size();
      {
        SCOPED_TRACE("round " + std::to_string(round));
        expect_same_pop(q, ref);
      }
      EXPECT_EQ(q.size(), before - 1);
    }
  }
  while (!ref.empty()) expect_same_pop(q, ref);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, EarlierPushWhileDrainingFallsBackGracefully) {
  // Pathological: an event pushed BEFORE the time being drained (possible
  // only for exotic delay strategies). The heap fallback must re-settle.
  CalendarQueue q;
  q.push_compute(Time(10), 1);
  q.push_compute(Time(10), 2);
  Popped out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.process, 1);
  q.push_compute(Time(5), 3);  // earlier than the bucket being drained
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.process, 3);
  EXPECT_EQ(out.time, Time(5));
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.process, 2);
  EXPECT_EQ(out.time, Time(10));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, ArenaReusesBucketsAfterDrain) {
  CalendarQueue q;
  Popped out;
  // Phase 1: allocate a handful of buckets.
  for (int i = 0; i < 8; ++i) q.push_compute(Time(i), i);
  while (q.pop(out)) {
  }
  const std::size_t allocated = q.buckets_allocated();
  EXPECT_GE(allocated, 8u);
  EXPECT_EQ(q.buckets_reused(), 0);
  // Phase 2: fresh distinct times; drained buckets must be recycled, not
  // newly allocated.
  for (int i = 0; i < 8; ++i) q.push_compute(Time(100 + i), i);
  while (q.pop(out)) {
  }
  EXPECT_EQ(q.buckets_allocated(), allocated);
  EXPECT_EQ(q.buckets_reused(), 8);
}

TEST(CalendarQueueTest, BucketIndexSurvivesResizeAndTombstoneChurn) {
  // Many more distinct times than the initial index capacity (64), pushed
  // and drained in waves: forces index growth, tombstone accumulation from
  // released buckets, and rehash — while staying differential-correct.
  CalendarQueue q;
  RefQueue ref;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 100; ++i) {
      const Time t(wave * 1000 + i);
      q.push_compute(t, i);
      ref.push_compute(t, i);
      if (i % 3 == 0) {
        q.push_compute(t, 1000 + i);  // same bucket, FIFO behind
        ref.push_compute(t, 1000 + i);
      }
    }
    while (!ref.empty()) expect_same_pop(q, ref);
    ASSERT_TRUE(q.empty());
  }
  // 2000 distinct times passed through a queue that never held more than
  // ~133 at once: allocation stays bounded by the high-water mark.
  EXPECT_LE(q.buckets_allocated(), 200u);
  EXPECT_GT(q.buckets_reused(), 0);
}

TEST(CalendarQueueTest, IndexCapacityTracksLiveTimesUnderChurn) {
  // 64 live buckets, then 200k rounds of "drain the earliest, push a new
  // distinct time": every round leaves a tombstone in the index. The index
  // must purge them at its size instead of doubling each time they fill
  // it, since a queue recycled across runs would otherwise grow forever.
  CalendarQueue q;
  RefQueue ref;
  for (int i = 0; i < 64; ++i) {
    q.push_compute(Time(i), i);
    ref.push_compute(Time(i), i);
  }
  for (int i = 64; i < 200'064; ++i) {
    expect_same_pop(q, ref);
    q.push_compute(Time(i), i);
    ref.push_compute(Time(i), i);
  }
  EXPECT_EQ(q.distinct_times(), 64u);
  EXPECT_LE(q.index_capacity(), 1024u);
  while (!ref.empty()) expect_same_pop(q, ref);
}

TEST(CalendarQueueTest, ClearFreesTheArenaAfterMuchWork) {
  // A queue recycled across runs keeps its arena on clear(), until it has
  // drained 2^18 events since it started empty; then clear() frees it, so
  // the lanes cannot ratchet up without bound.
  CalendarQueue q;
  Popped out;
  for (int i = 0; i < 64; ++i) q.push_compute(Time(i), i);
  for (int i = 64; i < 1000; ++i) {
    ASSERT_TRUE(q.pop(out));
    q.push_deliver(Time(i), i % 7, i);
  }
  q.clear();
  EXPECT_GE(q.buckets_allocated(), 64u);
  for (int i = 0; i < 300'000; ++i) {
    q.push_compute(Time(i), 0);
    ASSERT_TRUE(q.pop(out));
  }
  q.push_compute(Time(0), 0);
  q.clear();
  EXPECT_EQ(q.buckets_allocated(), 0u);
  EXPECT_TRUE(q.empty());
  q.push_compute(Time(5), 3);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.time, Time(5));
  EXPECT_EQ(out.process, 3);
}

TEST(CalendarQueueTest, ClearForgetsLiveEventsAndKeepsCapacity) {
  CalendarQueue q;
  Popped out;
  // Live buckets on inline and pooled times, one of them half drained.
  for (int i = 0; i < 40; ++i) {
    q.push_compute(Time(i % 10), i);
    q.push_deliver(Time(i, 1'000'003) + Time(1 << 20), i, i);
  }
  ASSERT_TRUE(q.pop(out));
  ASSERT_GT(q.interned_times(), 0u);
  const std::size_t allocated = q.buckets_allocated();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.distinct_times(), 0u);
  EXPECT_EQ(q.interned_times(), 0u);
  EXPECT_EQ(q.buckets_allocated(), allocated);

  // The cleared queue pops exactly like a fresh one.
  CalendarQueue fresh;
  for (int i = 0; i < 30; ++i) {
    const Time t(i % 7, 3);
    q.push_compute(t, i);
    fresh.push_compute(t, i);
    q.push_deliver(Time(i, 1'000'003), i, i);
    fresh.push_deliver(Time(i, 1'000'003), i, i);
  }
  Popped want;
  while (fresh.pop(want)) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.time, want.time);
    EXPECT_EQ(out.lane, want.lane);
    EXPECT_EQ(out.process, want.process);
    EXPECT_EQ(out.message, want.message);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.buckets_allocated(), allocated);
}

// ASan-visible lifetime exercise: references returned by pop() are values
// (no pointers into released buckets), and bucket/lane storage recycled
// through the free list is written and read across thousands of
// release/reuse cycles. Under the ASan preset any stale pointer into a
// released bucket or the rehashed index turns into a hard failure here.
TEST(CalendarQueueTest, LifetimeChurnUnderSanitizers) {
  CalendarQueue q;
  Rng rng(0xca1e'0004ULL);
  std::int64_t live = 0;
  std::int64_t pushes = 0;
  Time now(0);
  std::int64_t popped_total = 0;
  Time last_time(0);
  for (int round = 0; round < 20'000; ++round) {
    if (live == 0 || rng.next_bool(11, 20)) {
      now += rng.next_bool(7, 10) ? Duration(0) : Duration(1, 3);
      q.push_compute(now, round);
      ++live;
      ++pushes;
    } else {
      Popped out;
      ASSERT_TRUE(q.pop(out));
      // Times never regress (all pushes are >= the drained time).
      EXPECT_LE(last_time, out.time);
      last_time = out.time;
      --live;
      ++popped_total;
    }
  }
  Popped out;
  while (q.pop(out)) ++popped_total;
  EXPECT_EQ(popped_total, pushes);  // every push popped exactly once
}

}  // namespace
}  // namespace sesp
