// Differential fuzzing: the calendar/timing-wheel hybrid EventQueue
// against the multimap reference model (reference_queue.hpp), operation
// by operation: exact global (time, seq) pop order, and cancel/reschedule
// outcomes that depend only on the call history — a handle whose event
// fired or was cancelled must be rejected.
//
// The op mix deliberately includes the hybrid's edge geometry (kDeltas):
// deltas that straddle its bucket width (1024 ns) and wheel span
// (256 KiB ns), far-future times that park in the overflow tier and must
// re-spill as the wheel advances, same-tick collisions (FIFO order must
// hold), and past-time reschedules (the queue orders them before the rest
// of the current bucket rather than asserting — the ENGINE owns past-time
// policy, see engine_release_guard_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "des/rng.hpp"
#include "reference_queue.hpp"

namespace {

using des::Time;
using des_test::kDeltas;

TEST(QueueDifferential, RandomizedOpMixMatchesReference) {
  des::Rng rng(0xD1FFu);
  des_test::ReferenceQueue d;
  Time now = 0;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint32_t dice = rng.below(100);
    if (dice < 45 || d.empty()) {
      d.schedule(now + kDeltas[rng.below(std::size(kDeltas))]);
    } else if (dice < 65) {
      d.pop_one();
    } else if (dice < 80 && d.handles() > 0) {
      d.cancel(rng.below(d.handles()));
    } else if (dice < 90 && d.handles() > 0) {
      // Reschedules may target the past (relative to pops so far): the
      // queue contract orders such events before everything pending.
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      const Time t = (rng() & 1) != 0 && now > 2048
                         ? now - 2048 + static_cast<Time>(rng.below(4096))
                         : now + delta;
      d.reschedule(rng.below(d.handles()), t);
    }
    if ((op & 1023) == 0) d.check_sizes();
    if (HasFatalFailure()) return;  // a mismatch cascades
    now += static_cast<Time>(rng.below(512));
  }
  d.drain();
}

// A second run biased toward churn (cancel/reschedule dominate): the
// tombstone-compaction path runs constantly, which is where liveness
// bookkeeping bugs would hide.
TEST(QueueDifferential, ChurnHeavyMixMatchesReference) {
  des::Rng rng(0xC4A7u);
  des_test::ReferenceQueue d;
  Time now = 0;
  for (int op = 0; op < 120'000; ++op) {
    const std::uint32_t dice = rng.below(100);
    if (dice < 30 || d.empty()) {
      d.schedule(now + kDeltas[rng.below(std::size(kDeltas))]);
    } else if (dice < 40) {
      d.pop_one();
    } else if (dice < 75 && d.handles() > 0) {
      d.cancel(rng.below(d.handles()));
    } else if (d.handles() > 0) {
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      d.reschedule(rng.below(d.handles()), now + delta);
    }
    if ((op & 511) == 0) d.check_sizes();
    if (HasFatalFailure()) return;  // a mismatch cascades
    now += static_cast<Time>(rng.below(128));
  }
  d.drain();
}

}  // namespace
