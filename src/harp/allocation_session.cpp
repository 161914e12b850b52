// harp-lint: hot-path — every RM decision cycle runs through the session;
// r6 flags std::vector/std::string construction inside loops in this file.
#include "src/harp/allocation_session.hpp"

#include <chrono>
#include <utility>

#include "src/common/check.hpp"

namespace harp::core {

AllocationSession::AllocationSession(telemetry::Tracer* tracer,
                                     telemetry::MetricsRegistry* metrics)
    : tracer_(tracer) {
  if (metrics == nullptr) return;
  rebuilds_ = &metrics->counter("rm_group_rebuilds_total");
  cache_hits_ = &metrics->counter("rm_group_cache_hits_total");
  incremental_ = &metrics->counter("rm_solve_incremental_total");
  rescanned_ = &metrics->counter("rm_solve_groups_rescanned_total");
  skips_ = &metrics->counter("rm_realloc_skips_total");
  solve_seconds_ = &metrics->histogram("rm_solve_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1});
}

void AllocationSession::begin(std::size_t apps, double cycle) {
  ids_.clear();
  groups_.clear();
  dirty_.clear();
  skipped_ = false;
  if (tracer_ != nullptr)
    tracer_->begin(telemetry::EventType::kAllocCycle, "rm",
                   {{"apps", static_cast<double>(apps)}, {"cycle", cycle}});
}

void AllocationSession::add(std::uint64_t id, const AllocationGroup& group, bool rebuilt) {
  if (rebuilt) dirty_.push_back(static_cast<std::uint32_t>(groups_.size()));
  ids_.push_back(id);
  groups_.push_back(&group);
}

bool AllocationSession::solve(const Allocator& allocator) {
  HARP_CHECK(!groups_.empty());
  // Every group that may differ from the one last solved at its id was
  // rebuilt (a new app's first refresh always rebuilds), so the same id
  // sequence with nothing rebuilt is the same instance: the solver, a pure
  // function of it, would return result_ again.
  const bool same_ids = solved_ && ids_ == last_ids_;
  skipped_ = same_ids && dirty_.empty();
  if (skipped_) {
    if (skips_ != nullptr) skips_->inc();
    return false;
  }
  // The dirty-subset contract needs the same groups in the same positions as
  // the workspace's last instance; a different id sequence is structural.
  solved_ = false;  // a solve that throws leaves no result to stand on
  if (solve_seconds_ != nullptr) {
    auto t0 = std::chrono::steady_clock::now();
    allocator.solve(groups_, dirty_, !same_ids, ws_, result_);
    solve_seconds_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  } else {
    allocator.solve(groups_, dirty_, !same_ids, ws_, result_);
  }
  last_ids_.swap(ids_);
  solved_ = true;
  if (incremental_ != nullptr && ws_.last_mode() == SolveMode::kIncremental) incremental_->inc();
  if (rescanned_ != nullptr)
    rescanned_->inc(static_cast<std::uint64_t>(ws_.last_rescanned_groups()));
  return true;
}

void AllocationSession::end() {
  if (tracer_ == nullptr) return;
  telemetry::NumArgs args{{"feasible", result_.feasible ? 1.0 : 0.0}};
  if (result_.feasible) args.emplace_back("total_cost", result_.total_cost);
  if (skipped_) args.emplace_back("skipped", 1.0);
  tracer_->end(telemetry::EventType::kAllocCycle, "rm", std::move(args));
}

void AllocationSession::invalidate() {
  solved_ = false;
  ws_.invalidate();
}

}  // namespace harp::core
