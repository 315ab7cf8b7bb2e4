// Reference model of the des::EventQueue contract for the randomized
// queue tests.  A multimap keyed on (time, seq), with a fresh seq per
// schedule/reschedule, pops earliest-first and FIFO among equal times; it
// shares no machinery with the calendar/timing-wheel queue, so a bucket
// or spill bug there cannot be mirrored here.  ReferenceQueue applies
// every operation to a real queue and to the model, and asserts that
// they agree.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"

namespace des_test {

// Deltas around the wheel geometry: same-tick, sub-bucket, one bucket
// (1024), bucket-straddling, most of the span, the span (262144), just
// past it (overflow), and deep overflow (many wheel revolutions).
inline constexpr des::Time kDeltas[] = {
    0,      1,      7,      1023,   1024,    1025,       4096,
    200000, 262143, 262144, 262145, 1 << 20, 50'000'000, 80'413'426};

class ReferenceQueue {
 public:
  /// Handles of fired events stay in the handle pool, so cancel and
  /// reschedule by handle also check that stale ids are rejected.
  void schedule(des::Time t, std::uint32_t owner = 0) {
    const std::uint64_t tag = next_tag_++;
    const des::EventId id =
        q_.schedule_on(owner, t, [this, tag] { fired_.push_back(tag); });
    insert(t, Event{t, tag, id, owner});
    handles_.push_back(Handle{id, tag});
  }

  /// Expected liveness: the handle's event is still in the model.
  void cancel(std::size_t handle) {
    const Handle h = handles_[handle];
    const auto w = where_.find(h.tag);
    ASSERT_EQ(q_.cancel(h.id), w != where_.end()) << "cancel of " << h.tag;
    if (w == where_.end()) return;
    erase(w->second);
    handles_[handle] = handles_.back();  // keep the pool dense
    handles_.pop_back();
  }

  void reschedule(std::size_t handle, des::Time t) {
    const Handle h = handles_[handle];
    const auto w = where_.find(h.tag);
    ASSERT_EQ(q_.reschedule(h.id, t), w != where_.end())
        << "reschedule of " << h.tag;
    if (w != where_.end()) move(w->second, t);
  }

  /// cancel/reschedule of the i-th pending event (always live).
  void cancel_pending(std::size_t i) {
    const auto it = std::next(model_.begin(), static_cast<std::ptrdiff_t>(i));
    ASSERT_TRUE(q_.cancel(it->second.id));
    erase(it);
  }

  void reschedule_pending(std::size_t i, des::Time t) {
    const auto it = std::next(model_.begin(), static_cast<std::ptrdiff_t>(i));
    ASSERT_TRUE(q_.reschedule(it->second.id, t));
    move(it, t);
  }

  void cancel_owner(std::uint32_t owner) {
    const std::size_t n = owner_size(owner);
    std::erase_if(model_, [&](const auto& kv) {
      return kv.second.owner == owner && where_.erase(kv.second.tag) > 0;
    });
    ASSERT_EQ(q_.cancel_owner(owner), n);
  }

  /// Pops one event from each side; both must give the same event.
  void pop_one() {
    ASSERT_EQ(q_.empty(), model_.empty());
    if (model_.empty()) return;
    const Event want = model_.begin()->second;
    ASSERT_EQ(q_.next_time(), want.time);
    auto fired = q_.pop();
    erase(model_.begin());
    ASSERT_EQ(fired.time, want.time);
    ASSERT_EQ(fired.id, want.id);
    fired.fn();
    ASSERT_EQ(fired_.size(), ++pops_);
    ASSERT_EQ(fired_.back(), want.tag) << "pop " << pops_;
    last_popped_ = fired.time;
  }

  void drain() {
    while (!q_.empty() || !model_.empty()) pop_one();
  }

  /// Sizes agree, the slab stays within the peak live count, and owner
  /// tags 1..owners-1 count the same pending events on both sides.
  void check_sizes(std::uint32_t owners = 0) const {
    ASSERT_EQ(q_.size(), model_.size());
    ASSERT_LE(q_.slab_size(), peak_);
    for (std::uint32_t o = 1; o < owners; ++o) {
      ASSERT_EQ(q_.owner_size(o), owner_size(o)) << "owner " << o;
    }
  }

  des::EventQueue& queue() { return q_; }
  std::size_t handles() const { return handles_.size(); }
  std::size_t size() const { return model_.size(); }
  bool empty() const { return model_.empty(); }
  des::Time last_popped() const { return last_popped_; }

 private:
  struct Event {
    des::Time time;
    std::uint64_t tag;    ///< unique; the callback records it when fired
    des::EventId id;
    std::uint32_t owner;  ///< schedule_on tag; 0 = untagged
  };
  struct Handle {
    des::EventId id;
    std::uint64_t tag;
  };
  using Model = std::multimap<std::pair<des::Time, std::uint64_t>, Event>;

  void insert(des::Time t, Event e) {
    e.time = t;
    where_[e.tag] = model_.emplace(std::pair{t, seq_++}, e);
    peak_ = std::max(peak_, model_.size());
  }
  void erase(Model::iterator it) {
    where_.erase(it->second.tag);
    model_.erase(it);
  }
  void move(Model::iterator it, des::Time t) {  // fresh FIFO position
    const Event e = it->second;
    model_.erase(it);
    insert(t, e);
  }
  std::size_t owner_size(std::uint32_t owner) const {
    return static_cast<std::size_t>(std::count_if(
        model_.begin(), model_.end(),
        [owner](const auto& kv) { return kv.second.owner == owner; }));
  }

  des::EventQueue q_;
  Model model_;  ///< keyed on (time, seq)
  std::unordered_map<std::uint64_t, Model::iterator> where_;  ///< by tag
  std::vector<Handle> handles_;
  std::vector<std::uint64_t> fired_;
  std::uint64_t next_tag_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t peak_ = 0;
  std::size_t pops_ = 0;
  des::Time last_popped_ = 0;
};

}  // namespace des_test
