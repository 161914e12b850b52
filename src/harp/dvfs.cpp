#include "src/harp/dvfs.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/harp/dse.hpp"
#include "src/harp/candidates.hpp"

namespace harp::core {

struct DvfsHarpPolicy::ManagedApp {
  sim::AppId id = -1;
  const model::AppBehavior* behavior = nullptr;
  std::string name;
  double active_freq = 1.0;
};

DvfsHarpPolicy::DvfsHarpPolicy(DvfsOptions options) : options_(std::move(options)) {
  HARP_CHECK(!options_.freq_levels.empty());
  for (double level : options_.freq_levels) HARP_CHECK(level > 0.0 && level <= 1.0);
  HARP_CHECK_MSG(options_.freq_levels.front() == 1.0,
                 "the first frequency level must be the calibrated maximum");
}

DvfsHarpPolicy::~DvfsHarpPolicy() = default;

void DvfsHarpPolicy::attach(sim::RunnerApi& api) {
  api_ = &api;
  allocator_ = std::make_unique<Allocator>(api.hardware(), SolverKind::kLagrangian);
}

void DvfsHarpPolicy::on_app_start(sim::AppId id) {
  HARP_CHECK(api_ != nullptr);
  for (const sim::RunningAppInfo& info : api_->running_apps()) {
    if (info.id != id) continue;
    auto app = std::make_unique<ManagedApp>();
    app->id = id;
    app->behavior = info.behavior;
    app->name = info.behavior->name;
    // Offline DSE at every frequency level on first sight of the app.
    if (tables_.count(app->name) == 0) {
      std::vector<OperatingPointTable> per_level;
      for (double level : options_.freq_levels) {
        DseOptions dse;
        dse.freq_scale = level;
        per_level.push_back(run_offline_dse(*info.behavior, api_->hardware(), dse));
      }
      tables_.emplace(app->name, std::move(per_level));
    }
    managed_.emplace(id, std::move(app));
    reallocate();
    return;
  }
  HARP_CHECK_MSG(false, "registered app id is not running");
}

void DvfsHarpPolicy::on_app_exit(sim::AppId id) {
  managed_.erase(id);
  reallocate();
}

std::map<std::string, double> DvfsHarpPolicy::active_frequencies() const {
  std::map<std::string, double> out;
  for (const auto& [id, app] : managed_) out[app->name] = app->active_freq;
  return out;
}

void DvfsHarpPolicy::reallocate() {
  if (managed_.empty()) return;

  // Build one choice group per app over the joint (allocation × frequency)
  // space; `freq_of[g][c]` remembers which level candidate c came from.
  std::vector<sim::AppId> ids;
  std::vector<AllocationGroup> groups;
  std::vector<std::vector<double>> freq_of;
  for (const auto& [id, app] : managed_) {
    const std::vector<OperatingPointTable>& per_level = tables_.at(app->name);
    std::vector<OperatingPoint> candidates;
    std::vector<double> freqs;
    for (std::size_t level = 0; level < per_level.size(); ++level) {
      for (const OperatingPoint& p : per_level[level].points(0)) {
        candidates.push_back(p);
        freqs.push_back(options_.freq_levels[level]);
      }
    }
    // Joint Pareto filter over (utility↑, power↓, cores↓) across all levels;
    // frequency is not an objective of its own — it only matters through
    // its effect on utility and power.
    ParetoFront front;
    front.reset(static_cast<int>(api_->hardware().core_types.size()));
    for (const OperatingPoint& p : candidates) front.add(p.nfc, p.erv);
    front.filter();

    AllocationGroup group;
    group.app_name = app->name;
    std::vector<double> kept_freqs;
    for (std::size_t i : front.members()) {
      group.candidates.push_back(candidates[i]);
      kept_freqs.push_back(freqs[i]);
    }
    group.costs = front.costs();
    ids.push_back(id);
    groups.push_back(std::move(group));
    freq_of.push_back(std::move(kept_freqs));
  }

  AllocationResult result = allocator_->solve(groups);
  double drag = options_.drag_base +
                options_.drag_per_extra_app * (static_cast<double>(managed_.size()) - 1.0);
  if (!result.feasible) {
    for (auto& [id, app] : managed_) {
      sim::AppControl control;  // co-allocation fallback
      control.mgmt_drag = drag;
      app->active_freq = 1.0;
      api_->set_control(id, control);
    }
    return;
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    ManagedApp& app = *managed_.at(ids[g]);
    const OperatingPoint& point = groups[g].candidates[result.selection[g]];
    sim::AppControl control;
    control.allowed_slots = api_->slots().slots_of(result.allocations[g]);
    if (app.behavior->adaptivity != model::AdaptivityType::kStatic) {
      control.threads = point.erv.total_threads();
      control.rebalances = app.behavior->adaptivity == model::AdaptivityType::kCustom;
    }
    control.freq_scale = freq_of[g][result.selection[g]];
    control.mgmt_drag = drag;
    app.active_freq = control.freq_scale;
    api_->set_control(ids[g], control);
  }
}

}  // namespace harp::core
