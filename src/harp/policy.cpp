#include "src/harp/policy.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/common/logging.hpp"
#include "src/harp/dse.hpp"

namespace harp::core {

struct HarpPolicy::ManagedApp {
  sim::AppId id = -1;
  const model::AppBehavior* behavior = nullptr;
  std::string name;

  /// Configuration currently applied (and being measured).
  platform::ExtendedResourceVector active_erv;
  bool has_active = false;
  /// Point granted by the last MMKP solve.
  platform::ExtendedResourceVector mmkp_erv;
  /// Exploration budget (cores per type): granted + share of unassigned.
  std::vector<int> budget;

  int target_measurements = 0;
  bool exploration_paused = false;  ///< no in-budget candidate left
  MaturityStage last_stage = MaturityStage::kInitial;
  int last_phase = 0;  ///< last reported execution stage (phase awareness)

  /// Choice group (surrogate fit + Pareto filter + usage rows), rebuilt only
  /// when the backing table mutated or the table key switched (phase
  /// awareness) since the cached build.
  CachedGroup group;

  std::vector<double> cpu_marker;  ///< attribution window start
};

std::string HarpPolicy::table_key(const ManagedApp& app) const {
  if (!options_.phase_aware || !app.behavior->multi_phase()) return app.name;
  return app.name + "#" + std::to_string(api_->app_phase(app.id));
}

OperatingPointTable& HarpPolicy::table_of(const ManagedApp& app) {
  std::string key = table_key(app);
  auto it = tables_.find(key);
  if (it == tables_.end()) it = tables_.emplace(key, OperatingPointTable(key)).first;
  return it->second;
}

const OperatingPointTable& HarpPolicy::table_of(const ManagedApp& app) const {
  return const_cast<HarpPolicy*>(this)->table_of(app);
}

HarpPolicy::HarpPolicy(HarpOptions options)
    : options_(std::move(options)), session_(options_.tracer, options_.metrics) {}
HarpPolicy::~HarpPolicy() = default;

std::string HarpPolicy::name() const {
  if (!options_.apply_affinity) return "harp-overhead";
  if (!options_.apply_scaling) return "harp-noscaling";
  return options_.mode == HarpOptions::Mode::kOffline ? "harp-offline" : "harp";
}

void HarpPolicy::attach(sim::RunnerApi& api) {
  api_ = &api;
  options_.exploration.tracer = options_.tracer;
  catalog_ = std::make_shared<const CandidateCatalog>(api.hardware(),
                                                      options_.exploration.regression_degree);
  explorer_ = std::make_unique<AppExplorer>(api.hardware(), options_.exploration, catalog_);
  attributor_ = std::make_unique<energy::EnergyAttributor>(api.hardware());
  allocator_ =
      std::make_unique<Allocator>(api.hardware(), SolverKind::kLagrangian, options_.tracer);
  session_.invalidate();
  unassigned_cores_.assign(api.hardware().core_types.size(), 0);
  next_measurement_time_ = options_.exploration.measurement_interval_s;
  if (options_.metrics != nullptr) {
    reallocs_counter_ = &options_.metrics->counter("rm_reallocs_total");
    measurements_counter_ = &options_.metrics->counter("rm_measurements_total");
    stage_transitions_counter_ = &options_.metrics->counter("rm_stage_transitions_total");
  }
}

void HarpPolicy::on_app_start(sim::AppId id) {
  HARP_CHECK(api_ != nullptr);
  if (options_.trace_clock != nullptr) options_.trace_clock->set(api_->now());
  for (const sim::RunningAppInfo& info : api_->running_apps()) {
    if (info.id != id) continue;
    auto app = std::make_unique<ManagedApp>();
    app->id = id;
    app->behavior = info.behavior;
    app->name = info.behavior->name;
    app->cpu_marker = api_->cpu_time_by_type(id);

    app->last_phase = api_->app_phase(id);
    std::string key = table_key(*app);
    if (tables_.count(key) == 0) {
      // First sighting: install the shipped profile when one exists — the
      // DSE table in offline mode, or a previously learned table in online
      // mode (§4.3's self-improving profiles; online runs keep refining it)
      // — otherwise start an empty table to be learned.
      auto it = options_.offline_tables.find(key);
      if (it != options_.offline_tables.end())
        tables_.emplace(key, it->second);
      else
        tables_.emplace(key, OperatingPointTable(key));
    }
    app->last_stage = explorer_->stage(tables_.at(key));
    if (options_.tracer != nullptr)
      options_.tracer->instant(telemetry::EventType::kRegistration, app->name,
                               {{"app_id", static_cast<double>(id)}},
                               {{"stage", to_string(app->last_stage)}});
    managed_.emplace(id, std::move(app));
    api_->charge_overhead(options_.registration_overhead_s);
    needs_realloc_ = true;
    return;
  }
  HARP_CHECK_MSG(false, "registered app id is not running");
}

void HarpPolicy::on_app_exit(sim::AppId id) {
  managed_.erase(id);
  needs_realloc_ = true;
}

bool HarpPolicy::all_stable() const {
  if (managed_.empty()) return false;  // nothing running ≠ learned (Fig. 8 shading)
  for (const auto& [id, app] : managed_)
    if (explorer_->stage(table_of(*app)) != MaturityStage::kStable) return false;
  return true;
}

MaturityStage HarpPolicy::stage_of(const std::string& app_name) const {
  auto it = tables_.find(app_name);
  if (it == tables_.end()) return MaturityStage::kInitial;
  return explorer_->stage(it->second);
}

std::map<std::string, platform::ExtendedResourceVector> HarpPolicy::active_configs() const {
  std::map<std::string, platform::ExtendedResourceVector> out;
  for (const auto& [id, app] : managed_)
    if (app->has_active) out[app->name] = app->active_erv;
  return out;
}

double HarpPolicy::attributed_energy_j(const std::string& app_name) const {
  auto it = attributed_energy_.find(app_name);
  return it == attributed_energy_.end() ? 0.0 : it->second;
}

void HarpPolicy::tick() {
  HARP_CHECK(api_ != nullptr);
  if (options_.trace_clock != nullptr) options_.trace_clock->set(api_->now());
  if (needs_realloc_) reallocate();
  if (api_->now() + 1e-9 >= next_measurement_time_) {
    next_measurement_time_ += options_.exploration.measurement_interval_s;
    measurement_tick();
    if (needs_realloc_) reallocate();
  }
}

void HarpPolicy::measurement_tick() {
  if (managed_.empty()) return;
  api_->charge_overhead(options_.measurement_overhead_s *
                        static_cast<double>(managed_.size()));
  if (co_allocation_) return;  // §4.2.2: monitoring suspended in co-allocation

  // Which managed apps are past startup?
  std::map<sim::AppId, bool> in_startup;
  for (const sim::RunningAppInfo& info : api_->running_apps())
    in_startup[info.id] = info.in_startup;

  // --- EnergAt-style power attribution over the window ----------------------
  double window = options_.exploration.measurement_interval_s;
  double package_delta = api_->read_package_energy();
  std::vector<sim::AppId> ids;
  std::vector<std::vector<double>> cpu_deltas;
  for (auto& [id, app] : managed_) {
    std::vector<double> cpu_now = api_->cpu_time_by_type(id);
    std::vector<double> delta(cpu_now.size());
    for (std::size_t t = 0; t < cpu_now.size(); ++t)
      delta[t] = std::max(cpu_now[t] - app->cpu_marker[t], 0.0);
    app->cpu_marker = cpu_now;
    ids.push_back(id);
    cpu_deltas.push_back(std::move(delta));
  }
  std::vector<double> energies =
      attributor_->attribute(std::max(package_delta, 0.0), window, cpu_deltas);
  std::map<sim::AppId, double> power_estimate;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    power_estimate[ids[i]] = energies[i] / window;
    attributed_energy_[managed_.at(ids[i])->name] += energies[i];
  }

  if (options_.mode == HarpOptions::Mode::kOffline) return;  // no online learning

  // --- Record measurements and drive exploration -----------------------------
  bool want_realloc = false;
  for (auto& [id, app] : managed_) {
    if (in_startup[id] || !app->has_active) {
      // Keep the rate readers drained so the first real window is clean.
      (void)api_->read_perf_gips(id);
      (void)api_->read_app_utility(id);
      continue;
    }
    // Stage-transition handling (§7 outlook): a notified phase change
    // switches to the stage's own table and triggers a reallocation.
    int phase = api_->app_phase(id);
    if (options_.phase_aware && phase != app->last_phase) {
      app->last_phase = phase;
      app->target_measurements = 0;
      app->exploration_paused = false;
      want_realloc = true;
    }
    std::optional<double> app_utility = api_->read_app_utility(id);
    double perf = api_->read_perf_gips(id);
    double utility = app_utility.has_value() ? *app_utility : perf;
    OperatingPointTable& table = table_of(*app);
    table.record_measurement(app->active_erv, std::max(utility, 0.0),
                             std::max(power_estimate[id], 0.0));
    ++app->target_measurements;
    if (measurements_counter_ != nullptr) measurements_counter_->inc();
    if (options_.tracer != nullptr)
      options_.tracer->instant(telemetry::EventType::kMeasurement, app->name,
                               {{"power_w", std::max(power_estimate[id], 0.0)},
                                {"utility", std::max(utility, 0.0)}},
                               {{"erv", app->active_erv.to_string(api_->hardware())}});

    MaturityStage stage = explorer_->stage(table);
    if (stage == MaturityStage::kStable && app->last_stage != MaturityStage::kStable)
      want_realloc = true;  // §5.3: reassess once an app stabilises
    if (stage != app->last_stage) {
      if (stage_transitions_counter_ != nullptr) stage_transitions_counter_->inc();
      if (options_.tracer != nullptr)
        options_.tracer->instant(
            telemetry::EventType::kStageTransition, app->name,
            {{"measured", static_cast<double>(explorer_->measured_configs(table))}},
            {{"from", to_string(app->last_stage)}, {"to", to_string(stage)}});
    }
    app->last_stage = stage;

    // Target fully measured → pick the next configuration within the budget.
    if (stage != MaturityStage::kStable && !app->exploration_paused &&
        app->target_measurements >= options_.exploration.measurements_per_point) {
      std::optional<platform::ExtendedResourceVector> next =
          explorer_->select_next(table, app->budget);
      app->target_measurements = 0;
      if (next.has_value()) {
        app->active_erv = *next;
        push_controls();
      } else {
        app->exploration_paused = true;
      }
    }
  }
  if (want_realloc) needs_realloc_ = true;

  // In the stable regime the allocator re-runs on a long interval
  // (every `stable_realloc_interval` measurements).
  bool none_exploring = true;
  for (const auto& [id, app] : managed_) {
    MaturityStage stage = explorer_->stage(table_of(*app));
    if (stage != MaturityStage::kStable && !app->exploration_paused) none_exploring = false;
  }
  if (none_exploring && !managed_.empty()) {
    if (++stable_tick_counter_ >= options_.exploration.stable_realloc_interval) {
      stable_tick_counter_ = 0;
      needs_realloc_ = true;
    }
  }
}

std::vector<int> HarpPolicy::exploration_budget(const ManagedApp& app) const {
  const platform::HardwareDescription& hw = api_->hardware();
  std::vector<int> budget(hw.core_types.size(), 0);
  for (std::size_t t = 0; t < budget.size(); ++t)
    budget[t] = app.mmkp_erv.cores_used(static_cast<int>(t));
  // Unassigned cores are split evenly among the exploring apps (§5.3).
  int exploring = 0;
  for (const auto& [id, other] : managed_)
    if (explorer_->stage(table_of(*other)) != MaturityStage::kStable) ++exploring;
  if (exploring > 0)
    for (std::size_t t = 0; t < budget.size(); ++t)
      budget[t] += unassigned_cores_[t] / exploring;
  return budget;
}

AllocationGroup HarpPolicy::build_group(const ManagedApp& app) {
  const platform::HardwareDescription& hw = api_->hardware();
  const OperatingPointTable& table = table_of(app);
  const CandidateCatalog& catalog = *catalog_;
  const int num_types = catalog.num_types();
  AllocationGroup group;
  group.app_name = app.name;

  std::vector<Candidate>& candidates = candidates_;
  candidates.clear();
  std::vector<OperatingPoint> offline_points;
  std::vector<int> offline_usage;
  if (options_.mode == HarpOptions::Mode::kOffline && !table.empty()) {
    offline_points = table.points(0);
    offline_usage.resize(offline_points.size() * static_cast<std::size_t>(num_types));
    for (std::size_t i = 0; i < offline_points.size(); ++i) {
      const OperatingPoint& p = offline_points[i];
      int* usage = offline_usage.data() + i * static_cast<std::size_t>(num_types);
      p.erv.write_core_usage(usage);
      candidates.push_back({&p.erv, usage, p.nfc, p.measurements});
    }
  } else if (table.count_points(1) == 0) {
    // Fresh application: optimistic synthetic points (utility grows with
    // threads, power with active cores) so the allocator grants it room to
    // start exploring (§5.3: "sufficient resources to new applications").
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const int* usage = catalog.usage(i);
      NonFunctional nfc;
      if (app.behavior->qos.has_value()) {
        // Deadline apps declare their contract at registration; seed with
        // the analytic hit-rate of the allocation's raw issue capacity so
        // synthetic utilities live on the same [0, 1] scale measurements
        // will report.
        const model::QosSpec& spec = *app.behavior->qos;
        double raw_gips = 0.0;
        for (int t = 0; t < num_types; ++t)
          raw_gips += hw.core_types[static_cast<std::size_t>(t)].base_gips *
                      static_cast<double>(usage[t]);
        nfc.utility =
            model::qos_utility(raw_gips / spec.work_per_request_gi, spec.nominal_rate_rps, spec);
      } else {
        nfc.utility = static_cast<double>(catalog.total_threads(i));
      }
      nfc.power_w = active_power_w(hw, usage);
      candidates.push_back({&catalog.erv(i), usage, nfc, 0});
    }
  } else {
    // Measured points verbatim; unmeasured configurations approximated by
    // the regression surrogate (clamped positive — anomalies are exploration
    // targets, not allocation candidates). The clamp's bound comes first so
    // that a NaN prediction clamps too.
    NfcModel surrogate(options_.exploration.regression_degree);
    surrogate.fit(table.points(1), static_cast<int>(catalog.feature_dim()),
                  /*zero_anchor=*/true);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const int* usage = catalog.usage(i);
      if (const OperatingPoint* known = table.find(catalog.erv(i)); known != nullptr) {
        candidates.push_back({&known->erv, usage, known->nfc, known->measurements});
        continue;
      }
      NonFunctional pred = surrogate.predict_expanded(catalog.expansion(i), catalog.expansion_dim());
      NonFunctional nfc{std::max(1e-3, pred.utility), std::max(1e-2, pred.power_w)};
      candidates.push_back({&catalog.erv(i), usage, nfc, 0});
    }
  }

  // Static applications cannot grow their thread count: configurations with
  // more hardware threads than application threads would idle the surplus.
  if (app.behavior->adaptivity == model::AdaptivityType::kStatic) {
    int max_threads = app.behavior->default_threads > 0
                          ? app.behavior->default_threads
                          : hw.total_hardware_threads();
    std::erase_if(candidates, [&](const Candidate& c) {
      return c.erv->total_threads() > max_threads;
    });
    HARP_CHECK(!candidates.empty());
  }

  // Discard useless configurations (< 5 % of the app's best utility): their
  // ζ is orders of magnitude above anything sensible, and letting them into
  // the knapsack only distorts the Lagrangian multipliers. The smallest-
  // footprint candidate is always retained so a feasible selection exists.
  double v_best = 1e-9;
  for (const Candidate& c : candidates) v_best = std::max(v_best, c.nfc.utility);
  std::size_t min_footprint = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i)
    if (candidates[i].erv->total_cores() < candidates[min_footprint].erv->total_cores())
      min_footprint = i;
  std::vector<std::size_t>& kept = kept_;
  kept.clear();
  front_.reset(num_types);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i == min_footprint || candidates[i].nfc.utility >= 0.05 * v_best) {
      kept.push_back(i);
      front_.add(candidates[i].nfc, candidates[i].usage);
    }
  }

  // Pareto-filter the group (utility max; power and per-type cores min) to
  // keep the MMKP instance small. Only front members become points.
  front_.filter();
  const double v_max = front_.v_max();
  group.candidates.reserve(front_.members().size());
  for (std::size_t m : front_.members()) {
    const Candidate& c = candidates[kept[m]];
    group.candidates.push_back(OperatingPoint{*c.erv, c.nfc, c.measurements});
  }
  group.costs = front_.costs();

  // Deadline apps carry a slack-priced soft-QoS row: candidates whose
  // (hit-rate-shaped) utility falls below the contract's min_hit_rate pay a
  // penalty proportional to the relative deficit, steering the MMKP toward
  // QoS-meeting points while degrading gracefully under overload.
  if (app.behavior->qos.has_value()) {
    const model::QosSpec& spec = *app.behavior->qos;
    AllocationGroup::SoftQos row;
    row.min_rate = spec.min_hit_rate * v_max;
    row.slack_weight = spec.slack_weight;
    row.rates.reserve(group.candidates.size());
    for (const OperatingPoint& p : group.candidates) row.rates.push_back(p.nfc.utility);
    group.qos = std::move(row);
  }
  return group;
}

void HarpPolicy::reallocate() {
  needs_realloc_ = false;
  stable_tick_counter_ = 0;
  if (managed_.empty()) return;
  api_->charge_overhead(options_.realloc_overhead_s);
  ++alloc_cycles_;
  if (reallocs_counter_ != nullptr) reallocs_counter_->inc();

  const platform::HardwareDescription& hw = api_->hardware();
  const int num_types = static_cast<int>(hw.core_types.size());
  session_.begin(managed_.size(), static_cast<double>(alloc_cycles_));
  for (auto& [id, app] : managed_) {
    std::string key = table_key(*app);
    bool rebuilt = session_.refresh(app->group, table_of(*app).version(), key, num_types,
                                    [&] { return build_group(*app); });
    session_.add(static_cast<std::uint64_t>(id), app->group.group, rebuilt);
  }
  // On a no-change cycle the session hands back the previous result, which
  // is re-applied below exactly as a fresh solve of it would be.
  session_.solve(*allocator_);
  const AllocationResult& result = session_.result();
  telemetry::Tracer* tracer = options_.tracer;
  if (!result.feasible) {
    // §4.2.2 Limitations: demand exceeds capacity even at minimum points —
    // relax constraint (1b) and let applications co-allocate under the OS
    // scheduler; performance monitoring is suspended meanwhile.
    co_allocation_ = true;
    for (auto& [id, app] : managed_) {
      app->has_active = false;
      app->exploration_paused = true;
    }
    push_controls();
    session_.end();
    return;
  }
  co_allocation_ = false;

  // Record grants and the unassigned remainder.
  unassigned_cores_.assign(hw.core_types.size(), 0);
  for (std::size_t t = 0; t < hw.core_types.size(); ++t)
    unassigned_cores_[t] = hw.core_types[t].core_count;
  std::size_t g = 0;
  for (auto& [id, managed] : managed_) {
    ManagedApp& app = *managed;
    const AllocationGroup& group = app.group.group;
    const std::size_t selected = result.selection[g++];
    const OperatingPoint& point = group.candidates[selected];
    app.mmkp_erv = point.erv;
    for (std::size_t t = 0; t < hw.core_types.size(); ++t)
      unassigned_cores_[t] -= app.mmkp_erv.cores_used(static_cast<int>(t));
    HARP_DEBUG << "t=" << api_->now() << " grant " << app.name << " "
               << point.erv.to_string(hw) << " u=" << point.nfc.utility
               << " p=" << point.nfc.power_w << " cost=" << group.costs[selected]
               << " meas=" << point.measurements << " candidates=" << group.candidates.size();
    if (tracer != nullptr)
      tracer->instant(telemetry::EventType::kGrant, app.name,
                      {{"cost", group.costs[selected]},
                       {"cycle", static_cast<double>(alloc_cycles_)},
                       {"measured", static_cast<double>(point.measurements)},
                       {"power_w", point.nfc.power_w},
                       {"utility", point.nfc.utility}},
                      {{"erv", point.erv.to_string(hw)}});
  }

  // Exploration targets within the fresh budgets; stable apps execute their
  // granted point.
  for (auto& [id, app] : managed_) {
    const OperatingPointTable& table = table_of(*app);
    MaturityStage stage = explorer_->stage(table);
    app->budget = exploration_budget(*app);
    app->exploration_paused = false;
    app->target_measurements = 0;
    if (options_.mode == HarpOptions::Mode::kOnline && stage != MaturityStage::kStable) {
      std::optional<platform::ExtendedResourceVector> target =
          explorer_->select_next(table, app->budget);
      if (target.has_value()) {
        app->active_erv = *target;
      } else {
        app->active_erv = app->mmkp_erv;
        app->exploration_paused = true;
      }
    } else {
      app->active_erv = app->mmkp_erv;
    }
    app->has_active = true;
  }
  push_controls();
  session_.end();
}

void HarpPolicy::push_controls() {
  const platform::HardwareDescription& hw = api_->hardware();
  double drag = options_.drag_base +
                options_.drag_per_extra_app * (static_cast<double>(managed_.size()) - 1.0);

  // Concrete, spatially isolated assignment for every active configuration.
  std::vector<sim::AppId> ids;
  std::vector<platform::ExtendedResourceVector> demands;
  for (const auto& [id, app] : managed_) {
    if (!app->has_active) continue;
    ids.push_back(id);
    demands.push_back(app->active_erv);
  }
  std::vector<platform::CoreAllocation> allocations;
  if (!demands.empty()) {
    auto assigned = platform::assign_cores(hw, demands);
    HARP_CHECK_MSG(assigned.ok(), "active configurations exceed capacity: " +
                                      assigned.error().message);
    allocations = std::move(assigned).take();
  }

  std::map<sim::AppId, const platform::CoreAllocation*> alloc_of;
  for (std::size_t i = 0; i < ids.size(); ++i) alloc_of[ids[i]] = &allocations[i];

  for (auto& [id, app] : managed_) {
    sim::AppControl control;
    control.mgmt_drag = drag;
    if (options_.apply_affinity && app->has_active) {
      control.allowed_slots = api_->slots().slots_of(*alloc_of.at(id));
      bool scale = options_.apply_scaling &&
                   app->behavior->adaptivity != model::AdaptivityType::kStatic;
      if (scale) {
        control.threads = app->active_erv.total_threads();
        control.rebalances = app->behavior->adaptivity == model::AdaptivityType::kCustom;
      }
    }
    api_->set_control(id, control);
    api_->charge_overhead(options_.message_overhead_s);
  }
}

}  // namespace harp::core
