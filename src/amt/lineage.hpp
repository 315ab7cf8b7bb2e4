// Task-lineage tracking for fail-stop crash recovery.
//
// Every task carries a lineage record: its phase (Pending -> Ready ->
// Done), its execution epoch (bumped each time the task must re-execute),
// and its home rank (the owner-computes rank, overridden when the owner
// dies).  The tracker is coordinator-side global knowledge, the same way
// the shared TaskGraphDef is: in a real deployment it corresponds to the
// replicated metadata a recovery coordinator maintains; in the simulation
// all nodes share one address space, so one instance serves every rank.
//
// The re-owner rule is deterministic: a task re-homes to
// survivors[hash(task) % |survivors|] with the survivor list sorted by
// rank, so any two runs with the same crash schedule re-home identically
// (the property the crash-soak determinism tests pin down).
//
// Epochs never travel on the wire — the ACTIVATE / GET DATA formats are
// untouched, which is what keeps crash-free runs bit-identical to the
// non-tolerant runtime.  Duplicate suppression is purely local: Done
// tasks ignore re-deliveries and refuse re-execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "amt/config.hpp"
#include "amt/task_graph.hpp"
#include "amt/task_key.hpp"

namespace amt {

enum class TaskPhase : int { Pending = 0, Ready, Done };

class LineageTracker {
 public:
  explicit LineageTracker(const TaskGraphDef& def) : def_(def) {}

  TaskPhase phase(const TaskKey& t) const {
    const auto it = recs_.find(t);
    return it == recs_.end() ? TaskPhase::Pending : it->second.phase;
  }
  bool is_done(const TaskKey& t) const { return phase(t) == TaskPhase::Done; }

  int epoch(const TaskKey& t) const {
    const auto it = recs_.find(t);
    return it == recs_.end() ? 0 : it->second.epoch;
  }

  /// Effective home rank: the owner-computes rank until re-homed.
  int home(const TaskKey& t) const {
    const auto it = recs_.find(t);
    if (it != recs_.end() && it->second.home >= 0) return it->second.home;
    return def_.rank_of(t);
  }

  void mark_ready(const TaskKey& t) {
    Rec& r = rec(t);
    if (r.phase == TaskPhase::Pending) r.phase = TaskPhase::Ready;
  }

  void mark_done(const TaskKey& t) {
    Rec& r = rec(t);
    if (r.phase != TaskPhase::Done) {
      r.phase = TaskPhase::Done;
      ++done_;
    }
  }

  /// Deterministic re-owner rule (see file comment).  `survivors` must be
  /// sorted ascending.
  static int reowner(const TaskKey& t, const std::vector<int>& survivors) {
    return survivors[TaskKeyHash{}(t) % survivors.size()];
  }

  /// Re-arms a task for re-execution on a survivor: phase back to
  /// Pending, epoch bumped, home re-assigned.  Un-counts a Done task so
  /// the completion predicate stays exact.  Returns the new epoch.
  ///
  /// The only writer of `home`.  Runtime::on_peer_dead re-arms only a
  /// task whose current home is dead, and FaultState::node_dead is
  /// sticky, so a task whose owner-computes rank is alive was never
  /// re-homed: its home is rank_of.  NodeRuntime::owner_rank skips the
  /// table lookup on that ground.
  int rearm(const TaskKey& t, const std::vector<int>& survivors) {
    Rec& r = rec(t);
    if (r.phase == TaskPhase::Done) --done_;
    r.phase = TaskPhase::Pending;
    r.home = reowner(t, survivors);
    return ++r.epoch;
  }

  /// Number of distinct tasks currently Done.
  std::uint64_t done_count() const { return done_; }

 private:
  struct Rec {
    TaskPhase phase = TaskPhase::Pending;
    std::int32_t epoch = 0;
    std::int32_t home = -1;  ///< -1 = owner-computes default
  };
  Rec& rec(const TaskKey& t) { return recs_[t]; }

  const TaskGraphDef& def_;
  std::unordered_map<TaskKey, Rec, TaskKeyHash> recs_;
  std::uint64_t done_ = 0;
};

/// Shared fault state: owned by the Runtime, consulted by every
/// NodeRuntime through a raw pointer (null when tolerance is off).  It
/// holds what recovery needs and nothing else; the run's status lives in
/// RunState, which every run has.
struct FaultState {
  explicit FaultState(const TaskGraphDef& def, FaultToleranceConfig c)
      : cfg(c), lineage(def) {}

  FaultToleranceConfig cfg;
  LineageTracker lineage;
  std::vector<char> node_dead;  ///< AMT-confirmed dead (sticky)

  bool alive(int rank) const {
    return node_dead.empty() ||
           node_dead[static_cast<std::size_t>(rank)] == 0;
  }
  std::vector<int> survivors() const {
    std::vector<int> s;
    for (std::size_t r = 0; r < node_dead.size(); ++r) {
      if (node_dead[r] == 0) s.push_back(static_cast<int>(r));
    }
    return s;  // ascending by construction
  }
};

}  // namespace amt
