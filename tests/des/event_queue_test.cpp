#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "des/rng.hpp"
#include "reference_queue.hpp"

namespace {

using des::EventQueue;
using des::kTimeNever;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    q.schedule(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule(5, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  auto id = q.schedule(5, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel(des::kInvalidEvent));
}

TEST(EventQueue, CancelledEventSkippedByNextTime) {
  EventQueue q;
  auto early = q.schedule(1, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 1);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 7);
}

TEST(EventQueue, NextTimeOnEmptyIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  auto id = q.schedule(123, [] {});
  auto fired = q.pop();
  EXPECT_EQ(fired.time, 123);
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueue, ManyCancellationsDoNotDisturbOrder) {
  EventQueue q;
  std::vector<des::EventId> ids;
  ids.reserve(100);
  for (int i = 0; i < 100; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 100; i += 2) q.cancel(ids[static_cast<size_t>(i)]);
  des::Time prev = -1;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GT(fired.time, prev);
    EXPECT_EQ(fired.time % 2, 1);  // even times were cancelled
    prev = fired.time;
  }
}

TEST(EventQueue, CancelStormKeepsHeapCompact) {
  // The network model's reschedule pattern: a completion event is
  // cancelled and rescheduled every time link occupancy changes.  Without
  // compaction each cycle leaks one tombstone into the heap.
  EventQueue q;
  q.schedule(1'000'000'000, [] {});  // long-lived anchor event
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    auto id = q.schedule(1000 + i, [] {});
    q.cancel(id);
    peak = std::max(peak, q.heap_size());
  }
  EXPECT_EQ(q.size(), 1u);
  // Compaction triggers once dead entries outnumber live ones (above a
  // small floor), so the heap never grows past that constant bound.
  EXPECT_LE(peak, 130u);
  EXPECT_LE(q.heap_size(), 130u);
  EXPECT_EQ(q.pop().time, 1'000'000'000);
}

TEST(EventQueue, FiredIdCannotBeCancelled) {
  EventQueue q;
  auto id = q.schedule(5, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleIdDoesNotCancelSlotReuser) {
  // The slab recycles slots; a stale id for a fired/cancelled event must
  // never reach the NEW event occupying the same slot.  The generation tag
  // is what prevents that.
  EventQueue q;
  auto old_id = q.schedule(5, [] {});
  q.pop();  // slot freed, generation bumped
  bool fired = false;
  auto new_id = q.schedule(7, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));  // stale id bounces off the reused slot
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, SlotReuseAcrossManyGenerations) {
  EventQueue q;
  std::vector<des::EventId> history;
  for (int i = 0; i < 1000; ++i) {
    auto id = q.schedule(i, [] {});
    history.push_back(id);
    q.pop();
  }
  // A single-slot slab serviced all 1000 events; every retired id is dead.
  EXPECT_EQ(q.slab_size(), 1u);
  for (const auto id : history) EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, RescheduleMovesEventInTime) {
  EventQueue q;
  std::vector<int> fired;
  auto id = q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  EXPECT_TRUE(q.reschedule(id, 30));  // now fires after the other event
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleKeepsIdValid) {
  EventQueue q;
  auto id = q.schedule(10, [] {});
  EXPECT_TRUE(q.reschedule(id, 50));
  EXPECT_TRUE(q.cancel(id));  // same handle still names the event
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleDeadIdFails) {
  EventQueue q;
  auto id = q.schedule(10, [] {});
  q.pop();
  EXPECT_FALSE(q.reschedule(id, 50));
  EXPECT_FALSE(q.reschedule(des::kInvalidEvent, 50));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleToSameTimeMovesBehindTies) {
  // reschedule assigns a fresh FIFO sequence number, exactly as a
  // cancel+schedule pair would — an event re-armed at time T fires after
  // events already waiting at T.
  EventQueue q;
  std::vector<int> fired;
  auto id = q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(10, [&] { fired.push_back(2); });
  EXPECT_TRUE(q.reschedule(id, 10));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleStormKeepsHeapCompact) {
  // The reliability sublayer re-arms RTO timers in place.  Each
  // reschedule leaves one tombstone behind; pop()/schedule()-triggered
  // sweeps must keep the heap within a constant factor of live events.
  EventQueue q;
  auto timer = q.schedule(1'000'000, [] {});
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(q.reschedule(timer, 1'000'000 + i));
    peak = std::max(peak, q.heap_size());
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LE(peak, 130u);
  EXPECT_EQ(q.pop().time, 1'000'000 + 99999);
}

TEST(EventQueue, PopTriggeredCompactionBoundsHeap) {
  // Build a heap that is mostly tombstones while staying under the
  // cancel-path trigger, then verify that draining via pop() compacts:
  // heap_size stays within a small constant factor of size().
  EventQueue q;
  std::vector<des::EventId> doomed;
  for (int i = 0; i < 600; ++i) {
    q.schedule(10 * i, [] {});          // live
    doomed.push_back(q.schedule(10 * i + 5, [] {}));
  }
  for (const auto id : doomed) ASSERT_TRUE(q.cancel(id));
  std::size_t pops = 0;
  while (!q.empty()) {
    q.pop();
    ++pops;
    EXPECT_LE(q.heap_size(), 2 * q.size() + 64);
  }
  EXPECT_EQ(pops, 600u);
}

TEST(EventQueue, FuzzAgainstReferenceModel) {
  // Random schedule/cancel/reschedule/pop/cancel_owner interleavings,
  // checked against the multimap reference model, which keys on
  // (time, seq) so FIFO tie-breaks are part of the contract being checked.
  // Every event carries a random owner tag (0 = untagged), and the
  // per-owner pending counts are checked after every operation.  Half the
  // deltas are short (< 1000 ns, current and next buckets); the other half
  // come from kDeltas, so owner tags also live in the far-future stage and
  // overflow tiers when cancel_owner walks the slab.
  des::Rng rng(0xFEEDFACE);
  des_test::ReferenceQueue d;
  constexpr std::uint32_t kOwners = 5;
  auto at = [&] {
    return d.last_popped() +
           ((rng() & 1) != 0 ? static_cast<des::Time>(rng() % 1000)
                             : des_test::kDeltas[rng.below(
                                   std::size(des_test::kDeltas))]);
  };
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      const des::Time t = at();
      d.schedule(t, static_cast<std::uint32_t>(rng() % kOwners));
    } else if (roll < 0.60 && !d.empty()) {
      d.cancel_pending(rng() % d.size());
    } else if (roll < 0.70 && !d.empty()) {
      const std::size_t victim = rng() % d.size();
      d.reschedule_pending(victim, at());
    } else if (roll < 0.705) {
      // Rare: a whole owner dies (fail-stop crash).
      d.cancel_owner(static_cast<std::uint32_t>(1 + rng() % (kOwners - 1)));
    } else {
      d.pop_one();
    }
    d.check_sizes(kOwners);
    if (HasFatalFailure()) return;  // a mismatch cascades
  }
  d.drain();
  d.check_sizes(kOwners);
}

TEST(EventQueue, CallbackWithLargeCaptureSurvivesSlab) {
  // Captures beyond InplaceCallback's inline buffer fall back to a heap
  // cell; the slab must move/destroy those correctly through slot reuse.
  EventQueue q;
  std::vector<int> sink;
  struct Big {
    std::array<std::uint64_t, 16> blob;
    std::vector<int>* out;
  };
  Big big{{}, &sink};
  big.blob[0] = 7;
  big.blob[15] = 9;
  auto id = q.schedule(
      1, [big] { big.out->push_back(static_cast<int>(big.blob[0] + big.blob[15])); });
  EXPECT_TRUE(q.cancel(id));  // heap cell destroyed without firing
  q.schedule(2, [big] { big.out->push_back(static_cast<int>(big.blob[15])); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(sink, (std::vector<int>{9}));
}

TEST(EventQueue, CompactionPreservesOrderAndFifoTies) {
  EventQueue q;
  std::vector<des::EventId> doomed;
  std::vector<int> fired;
  // Live events: equal-time group (FIFO-sensitive) plus spread-out times.
  for (int i = 0; i < 8; ++i) {
    q.schedule(500, [&fired, i] { fired.push_back(i); });
  }
  for (int i = 0; i < 8; ++i) {
    q.schedule(1000 + 10 * i, [&fired, i] { fired.push_back(100 + i); });
  }
  // Cancel-storm enough events to force several compactions underneath.
  for (int round = 0; round < 200; ++round) {
    doomed.push_back(q.schedule(2000 + round, [] {}));
  }
  for (const auto id : doomed) EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);  // FIFO among time ties
    EXPECT_EQ(fired[static_cast<size_t>(8 + i)], 100 + i);
  }
}

TEST(EventQueue, OwnerCountsFollowEveryOperation) {
  EventQueue q;
  EXPECT_EQ(q.owner_size(9), 0u);  // never-seen tag
  auto a = q.schedule_on(7, 10, [] {});  // grows the per-owner table
  auto b = q.schedule_on(1, 20, [] {});
  q.schedule_on(1, 30, [] {});
  q.schedule(40, [] {});  // untagged: counted only in size()
  EXPECT_EQ(q.owner_size(0), 0u);
  EXPECT_EQ(q.owner_size(1), 2u);
  EXPECT_EQ(q.owner_size(7), 1u);
  EXPECT_TRUE(q.reschedule(a, 50));  // the tag travels with the event
  EXPECT_EQ(q.owner_size(7), 1u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_EQ(q.owner_size(1), 1u);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_EQ(q.owner_size(1), 0u);
  EXPECT_EQ(q.cancel_owner(1), 0u);
  EXPECT_EQ(q.cancel_owner(7), 1u);
  EXPECT_FALSE(q.cancel(a));  // cancelled with its owner
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().time, 40);
}

// Fail-stop crash during the hot phase of the hybrid queue: the victim
// owner dies while the queue holds its events in both tiers — some in
// the near-future calendar wheel (cursor mid-bucket, pops in progress)
// and some parked in the far-future overflow heap awaiting a spill.
// cancel_owner() must drop every one of them without perturbing the
// global (time, seq) order of the survivors, and the owner must accept
// fresh events afterwards (lineage recovery reuses the node's tag).
TEST(EventQueue, CancelOwnerMidRunWithBothTiersPopulated) {
  des_test::ReferenceQueue d;
  EventQueue& q = d.queue();
  // kWheelSpan is 262144 ns; times below 200k land in the wheel, the
  // +10ms/+80ms groups start in the overflow tier.
  constexpr des::Time kFar1 = 10'000'000;
  constexpr des::Time kFar2 = 80'000'000;
  const std::uint32_t victim = 2;
  for (std::uint32_t o = 0; o < 4; ++o) {
    for (des::Time i = 0; i < 32; ++i) {
      d.schedule(i * 5000, o);          // wheel
      d.schedule(kFar1 + i * 3000, o);  // far
      d.schedule(kFar2 + i * 7000, o);  // far
    }
  }
  // Hot phase: pop a third of the population, so the wheel cursor is
  // mid-flight and part of the overflow has spilled.
  for (std::size_t i = 0, n = q.size() / 3; i < n; ++i) d.pop_one();

  const std::size_t victim_live = q.owner_size(victim);
  EXPECT_GT(victim_live, 0u);
  d.cancel_owner(victim);
  EXPECT_EQ(q.owner_size(victim), 0u);
  d.check_sizes(4);

  // Recovery path: the crashed owner keeps working for re-executed
  // lineage — schedule near-tier AND far-tier events on it post-crash.
  d.schedule(kFar1, victim);
  d.schedule(kFar2 + 1, victim);
  d.schedule(q.next_time(), victim);  // ties with the current front

  // Survivors fire in exact (time, seq) order.
  d.drain();
  d.check_sizes(4);
}

// ShardedQueue: owner tags replaced the per-node shards of the event
// queue, and these tests keep the property the shards had to hold —
// which node an event belongs to changes where it is counted, never when
// it fires.  Equal timestamps on different owners fire in global
// scheduling order, and a tagged queue pops exactly like an untagged one.
TEST(ShardedQueue, SingleShardBasicOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_on(1, 30, [&] { fired.push_back(3); });
  q.schedule_on(1, 10, [&] { fired.push_back(1); });
  q.schedule_on(1, 20, [&] { fired.push_back(2); });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.owner_size(1), 3u);
  EXPECT_EQ(q.next_time(), 10);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.owner_size(1), 0u);
}

TEST(ShardedQueue, CrossShardFifoTieBreak) {
  // Equal timestamps on DIFFERENT owners must fire in global scheduling
  // order — the property that makes the tags invisible to the schedule.
  EventQueue q;
  std::vector<int> fired;
  q.schedule_on(3, 100, [&] { fired.push_back(0); });
  q.schedule_on(1, 100, [&] { fired.push_back(1); });
  q.schedule(100, [&] { fired.push_back(2); });  // untagged
  q.schedule_on(2, 100, [&] { fired.push_back(3); });
  q.schedule_on(3, 100, [&] { fired.push_back(4); });
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_EQ(f.time, 100);
    f.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The equivalence oracle: events carrying random owner tags must pop in
// the untagged (time, seq) order of the reference model, under the same
// schedule/cancel/reschedule/pop mix an untagged queue is fuzzed with.
TEST(ShardedQueue, FuzzExactEquivalenceWithMonolithicQueue) {
  for (std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
    des::Rng rng(seed);
    constexpr std::uint32_t kOwners = 9;  // deliberately not a power of 2
    des_test::ReferenceQueue d;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t dice = rng() % 100;
      const des::Time t = d.last_popped() + static_cast<des::Time>(rng() % 64);
      if (dice < 55 || d.handles() == 0) {
        d.schedule(t, static_cast<std::uint32_t>(rng() % kOwners));
      } else if (dice < 70) {
        d.cancel(rng() % d.handles());
      } else if (dice < 80) {
        d.reschedule(rng() % d.handles(), t);
      } else {
        d.pop_one();
      }
      d.check_sizes((op & 255) == 0 ? kOwners : 0);  // owner counts: O(n)
      if (HasFatalFailure()) return;
    }
    d.drain();
  }
}

}  // namespace
