// One RM decision cycle (Fig. 2: tables → MMKP → core assignment), shared by
// both callers that run it: RmServer (clients over the wire) and HarpPolicy
// (apps in the simulator). The session is the seam between cached
// per-application choice groups and the runtime selection step (DESIGN.md
// "Hot path & incrementality"):
//
//   1. refresh() — the one cache-validity check: an app's group is rebuilt
//      only when its table's version (or key) moved since the last build.
//   2. begin() / add() — the caller lists its apps in allocation order as
//      (stable id, cached group, rebuilt since the last solve).
//   3. solve() — same ids with nothing rebuilt is an exact proof that the
//      instance is unchanged: the previous result stands and the solver is
//      not called (a no-change cycle). Otherwise the rebuilt positions are
//      the solver's dirty set, and any change in the id sequence makes the
//      solve structural.
//   4. end() — closes the cycle's alloc_cycle span once the caller has
//      pushed the result.
//
// The session owns the solver workspace and result, the last solved id
// sequence, the dirty list, the solver counters (rm_solve_incremental_total,
// rm_solve_groups_rescanned_total, rm_realloc_skips_total, group
// rebuild/cache-hit counts) and the rm_solve_seconds histogram. Steady-state
// cycles allocate nothing once the id and group vectors reach capacity.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/harp/allocator.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::core {

/// An app's choice group, cached against the table state it was built from.
struct CachedGroup {
  AllocationGroup group;
  std::uint64_t version = 0;  ///< table version at the last build
  std::string key;            ///< table key at the last build
  bool built = false;         ///< false until built; reset to force a rebuild
};

class AllocationSession {
 public:
  /// Cycles are alloc_cycle spans scoped "rm". Either sink may be null.
  AllocationSession(telemetry::Tracer* tracer, telemetry::MetricsRegistry* metrics);

  /// Rebuild `cached` through `build()` (returning an AllocationGroup) when
  /// the table's version or key differs from the cached build, and prepare
  /// its usage rows for `num_types`. Returns true when rebuilt: the app's
  /// `rebuilt` flag for add().
  template <typename Build>
  bool refresh(CachedGroup& cached, std::uint64_t version, std::string_view key, int num_types,
               Build&& build) {
    if (cached.built && cached.version == version && cached.key == key) {
      if (cache_hits_ != nullptr) cache_hits_->inc();
      return false;
    }
    cached.group = build();
    cached.group.prepare(num_types);
    cached.version = version;
    cached.key = key;
    cached.built = true;
    if (rebuilds_ != nullptr) rebuilds_->inc();
    return true;
  }

  /// Open a cycle over `apps` apps (the span's arguments: apps, cycle).
  void begin(std::size_t apps, double cycle);
  /// Append the next app in allocation order. `id` names the app for as long
  /// as it is listed; `rebuilt` must be true whenever the group may differ
  /// from the one last solved under this id (refresh() returns exactly that
  /// for a group refreshed once per solve, and a new app's first refresh
  /// always rebuilds). The group must stay alive and unchanged until end().
  void add(std::uint64_t id, const AllocationGroup& group, bool rebuilt);
  /// Solve the apps added since begin() (at least one). Returns false on a
  /// no-change cycle: the ids equal the last solve's and nothing was
  /// rebuilt, so result() is the previous result and the solver did not run.
  bool solve(const Allocator& allocator);
  /// Selection and core allocations, parallel to the add() order.
  const AllocationResult& result() const { return result_; }
  /// Close the cycle's span: feasible, total_cost, and skipped on a
  /// no-change cycle.
  void end();

  /// Forget the last solve, so the next one runs in full. Needed when the
  /// session is handed a new allocator under unchanged groups, as
  /// HarpPolicy::attach does.
  void invalidate();

 private:
  telemetry::Tracer* tracer_;

  SolveWorkspace ws_;
  AllocationResult result_;
  std::vector<std::uint64_t> ids_;
  std::vector<const AllocationGroup*> groups_;
  std::vector<std::uint32_t> dirty_;  ///< ascending positions rebuilt this cycle
  std::vector<std::uint64_t> last_ids_;
  bool solved_ = false;   ///< last_ids_ and result_ describe a completed solve
  bool skipped_ = false;  ///< the current cycle is a no-change cycle

  // Resolved once from the metrics registry (null when metrics are off).
  telemetry::Counter* rebuilds_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* incremental_ = nullptr;
  telemetry::Counter* rescanned_ = nullptr;
  telemetry::Counter* skips_ = nullptr;
  telemetry::Histogram* solve_seconds_ = nullptr;
};

}  // namespace harp::core
