// sim_learn: core::HarpPolicy on sim::ScenarioRunner, no IPC. One pass runs
// online HarpPolicy learning from empty tables over every multi-app
// scenario of the raptor-lake catalog at a fixed repeat horizon, then the
// qos-web service under bursty traffic with its offline DSE table (as in
// bench/qos_workload). Passes repeat until the measured time is used up;
// every repeat must reproduce pass 0 bit for bit, which is what lets the
// simulated results (energy, hit rate) stand as exact counts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rmbench/src/common.hpp"
#include "rmbench/src/workloads.hpp"
#include "src/harp/dse.hpp"
#include "src/harp/policy.hpp"
#include "src/model/qos.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace rmbench {

namespace {

using harp::sim::AppControl;
using harp::sim::AppId;

constexpr const char* kServiceName = "qos-web";
// Simulated outcomes swing with the seed (noise streams, burst timing), so
// a pass pools several runs per scenario to keep them steady across seeds.
constexpr double kLearnHorizon = 120.0;  ///< simulated seconds per learning run
constexpr int kLearnRuns = 5;            ///< learning runs per multi-app scenario
constexpr double kQosHorizon = 60.0;
constexpr int kQosRuns = 8;
constexpr int kSetupRepeats = 40;

/// Host-side observations of the policy, taken by TimedPolicy.
struct PolicyStats {
  Samples activation;    ///< hook calls that pushed controls
  Samples registration;  ///< on_app_start → end of the hook with its first control
  double hook_s = 0.0;   ///< host time inside every policy hook
  double tick_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t violations = 0;
};

/// Forwarding sim::Policy that times every hook of the wrapped policy and
/// watches its controls through a forwarding RunnerApi: a hook that changes
/// some app's control (slots or threads) is one activation, and after every
/// such hook the apps' slot sets must be disjoint. Re-pushes of unchanged
/// controls are not activations; counting them made the latency bimodal,
/// with its median flipping between the modes from seed to seed.
class TimedPolicy final : public harp::sim::Policy, private harp::sim::RunnerApi {
 public:
  TimedPolicy(harp::sim::Policy& inner, PolicyStats& stats) : inner_(inner), stats_(stats) {}

  std::string name() const override { return inner_.name(); }
  void attach(harp::sim::RunnerApi& api) override {
    api_ = &api;
    hook(false, [&] { inner_.attach(*this); });
  }
  void on_app_start(AppId id) override {
    started_[id] = mono();
    hook(false, [&] { inner_.on_app_start(id); });
  }
  void on_app_exit(AppId id) override {
    hook(false, [&] { inner_.on_app_exit(id); });
    controls_.erase(id);
    started_.erase(id);
  }
  void tick() override { hook(true, [&] { inner_.tick(); }); }

 private:
  template <typename Fn>
  void hook(bool is_tick, Fn&& fn) {
    gauge_if_due();  // the simulator never waits, so the gauge runs here
    changed_ = false;
    controlled_.clear();
    const double t0 = mono();
    fn();
    const double t1 = mono();
    stats_.hook_s += t1 - t0;
    if (is_tick) {
      stats_.tick_s += t1 - t0;
      ++stats_.ticks;
    }
    if (controlled_.empty()) return;
    if (changed_) stats_.activation.add(t1 - t0);
    for (AppId id : controlled_) {
      auto it = started_.find(id);
      if (it == started_.end()) continue;
      stats_.registration.add(t1 - it->second);
      started_.erase(it);
    }
    check_disjoint();
  }

  void check_disjoint() {
    std::vector<int> owner(static_cast<std::size_t>(api_->slots().num_slots()), -1);
    for (const auto& [id, control] : controls_)
      for (int slot : control.allowed_slots) {
        int& o = owner[static_cast<std::size_t>(slot)];
        if (o != -1 && o != id) {
          ++stats_.violations;
          return;
        }
        o = id;
      }
  }

  // RunnerApi, forwarded to the runner.
  const harp::platform::HardwareDescription& hardware() const override { return api_->hardware(); }
  const harp::sim::SlotMap& slots() const override { return api_->slots(); }
  double now() const override { return api_->now(); }
  std::vector<harp::sim::RunningAppInfo> running_apps() const override {
    return api_->running_apps();
  }
  double read_perf_gips(AppId id) override { return api_->read_perf_gips(id); }
  double read_package_energy() override { return api_->read_package_energy(); }
  std::vector<double> cpu_time_by_type(AppId id) const override {
    return api_->cpu_time_by_type(id);
  }
  std::optional<double> read_app_utility(AppId id) override { return api_->read_app_utility(id); }
  int app_phase(AppId id) const override { return api_->app_phase(id); }
  std::optional<harp::sim::QosSnapshot> qos_snapshot(AppId id) const override {
    return api_->qos_snapshot(id);
  }
  void set_control(AppId id, const AppControl& control) override {
    api_->set_control(id, control);
    controlled_.push_back(id);
    auto [it, inserted] = controls_.try_emplace(id, control);
    if (inserted || it->second.allowed_slots != control.allowed_slots ||
        it->second.threads != control.threads) {
      changed_ = true;
      it->second = control;
    }
  }
  void charge_overhead(double cpu_seconds) override { api_->charge_overhead(cpu_seconds); }

  harp::sim::Policy& inner_;
  PolicyStats& stats_;
  harp::sim::RunnerApi* api_ = nullptr;
  std::vector<AppId> controlled_;
  bool changed_ = false;
  std::map<AppId, AppControl> controls_;
  std::map<AppId, double> started_;
};

/// Everything set-up builds: the platform, the catalog with the QoS
/// service, and the service's offline DSE table.
struct World {
  harp::platform::HardwareDescription hw;
  harp::model::WorkloadCatalog catalog;
  std::map<std::string, harp::core::OperatingPointTable> qos_tables;
};

harp::model::QosSpec service_spec() {
  harp::model::QosSpec spec;
  spec.work_per_request_gi = 0.2;
  spec.deadline_s = 0.05;
  spec.nominal_rate_rps = 40.0;
  spec.min_hit_rate = 0.95;
  return spec;
}

harp::model::ArrivalConfig bursty_traffic() {
  harp::model::ArrivalConfig bursty;
  bursty.kind = harp::model::ArrivalKind::kBursty;
  bursty.rate_rps = 30.0;
  bursty.burst_rate_rps = 120.0;
  bursty.calm_mean_s = 2.0;
  bursty.burst_mean_s = 0.5;
  return bursty;
}

World build_world() {
  World world{harp::platform::raptor_lake(), harp::model::WorkloadCatalog::raptor_lake(), {}};
  world.catalog.add_app(harp::model::qos_service_behavior(kServiceName, service_spec(), {1.0, 0.9}));
  world.qos_tables[kServiceName] =
      harp::core::run_offline_dse(world.catalog.app(kServiceName), world.hw);
  return world;
}

/// One simulator run of a pass.
struct RunSpec {
  harp::model::Scenario scenario;
  std::uint64_t seed = 0;
  double horizon = 0.0;
  bool qos = false;
};

std::vector<RunSpec> pass_runs(const World& world, std::uint64_t seed) {
  std::vector<RunSpec> runs;
  const std::vector<harp::model::Scenario>& multis = world.catalog.multi_scenarios();
  for (std::size_t i = 0; i < multis.size(); ++i)
    for (int r = 0; r < kLearnRuns; ++r)
      runs.push_back(RunSpec{multis[i], mix_seed(seed, i * kLearnRuns + r) % 1000000007ull,
                             kLearnHorizon, false});
  harp::model::Scenario service;
  service.name = "qos-service";
  service.apps.push_back(harp::model::ScenarioApp(kServiceName, 0.0, bursty_traffic()));
  for (int i = 0; i < kQosRuns; ++i)
    runs.push_back(RunSpec{service, mix_seed(seed, 99 + i) % 1000000007ull, kQosHorizon, true});
  return runs;
}

/// Simulated outcome of one run (compared bitwise across passes).
struct RunOutcome {
  double energy_j = 0.0;
  int completions = 0;
  double sim_s = 0.0;
  std::uint64_t qos_hits = 0, qos_completed = 0;
  bool operator==(const RunOutcome&) const = default;
};

/// Telemetry attached to a traced pass.
struct Telemetry {
  harp::telemetry::MetricsRegistry metrics;
  harp::telemetry::FunctionClock clock{[] { return mono(); }};
  harp::telemetry::Tracer tracer{&clock, harp::telemetry::TracerOptions{1 << 17}};
  Samples solves;  ///< kMmkpSolve span durations
  std::uint64_t solve_count = 0;
  std::uint64_t dropped = 0;

  void harvest() {
    double begin = -1.0;
    for (const harp::telemetry::TraceEvent& event : tracer.events()) {
      if (event.type != harp::telemetry::EventType::kMmkpSolve) continue;
      if (event.phase == harp::telemetry::Phase::kBegin) begin = event.t;
      if (event.phase == harp::telemetry::Phase::kEnd && begin >= 0.0) {
        solves.add(event.t - begin);
        ++solve_count;
        begin = -1.0;
      }
    }
    dropped += tracer.dropped();
    tracer.clear();
  }
};

struct PassResult {
  std::vector<RunOutcome> outcomes;
  double host_s = 0.0;
  double sim_s = 0.0;
  std::vector<std::string> failures;
};

/// One pass over `runs`; `between_runs` is called after each run.
PassResult run_pass(const World& world, const std::vector<RunSpec>& runs, PolicyStats& stats,
                    Telemetry* telemetry, const std::function<void()>& between_runs) {
  PassResult pass;
  for (const RunSpec& spec : runs) {
    if (&spec != &runs.front()) between_runs();
    harp::core::HarpOptions options;
    if (spec.qos) {
      options.offline_tables = world.qos_tables;
      options.exploration.stable_realloc_interval = 10;
    }
    if (telemetry != nullptr) {
      options.metrics = &telemetry->metrics;
      options.tracer = &telemetry->tracer;
    }
    harp::core::HarpPolicy policy(options);
    TimedPolicy timed(policy, stats);
    harp::sim::RunOptions run_options;
    run_options.seed = spec.seed;
    run_options.repeat_horizon = spec.horizon;
    harp::sim::ScenarioRunner runner(world.hw, world.catalog, spec.scenario, run_options);
    const double t0 = mono();
    harp::sim::RunResult result = runner.run(timed);
    pass.host_s += mono() - t0;
    if (telemetry != nullptr) telemetry->harvest();

    RunOutcome outcome;
    outcome.energy_j = result.package_energy_j;
    outcome.sim_s = result.makespan;
    for (const harp::sim::AppRunStats& app : result.apps) {
      outcome.completions += app.completions;
      outcome.qos_hits += app.deadline_hits;
      outcome.qos_completed += app.requests_completed;
    }
    pass.sim_s += result.makespan;
    std::string why;
    if (!(std::isfinite(outcome.energy_j) && outcome.energy_j > 0.0)) why = "no package energy";
    if (result.makespan + 1e-9 < spec.horizon) why = "run stopped before its horizon";
    if (spec.qos && outcome.qos_completed == 0) why = "QoS service completed no request";
    if (!why.empty()) pass.failures.push_back(spec.scenario.name + ": " + why);
    pass.outcomes.push_back(outcome);
  }
  return pass;
}

/// Runs passes until `seconds` of host time are used (at least one).
struct Phase {
  PolicyStats stats;
  std::vector<double> pass_speeds;
  double host_s = 0.0, sim_s = 0.0;
  std::uint64_t runs = 0, failed_runs = 0;
  std::vector<RunOutcome> first;  ///< pass 0's outcomes
  std::vector<std::string> errors;
};

Phase run_phase(const World& world, const std::vector<RunSpec>& runs, double seconds,
                Telemetry* telemetry, const std::function<void()>& between_runs = [] {}) {
  Phase phase;
  const double start = mono();
  do {
    PassResult pass = run_pass(world, runs, phase.stats, telemetry, between_runs);
    phase.runs += runs.size();
    phase.host_s += pass.host_s;
    phase.sim_s += pass.sim_s;
    phase.pass_speeds.push_back(pass.sim_s / pass.host_s);
    for (const std::string& failure : pass.failures) phase.errors.push_back(failure);
    phase.failed_runs += pass.failures.size();
    if (phase.first.empty()) phase.first = pass.outcomes;
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (!(pass.outcomes[i] == phase.first[i])) {
        ++phase.failed_runs;
        phase.errors.push_back(runs[i].scenario.name + ": repeat differs from pass 0");
      }
    // Start another pass only if it fits the measured time.
  } while (mono() - start + phase.host_s / static_cast<double>(phase.pass_speeds.size()) <=
           seconds);
  if (phase.stats.violations > 0)
    phase.errors.push_back(std::to_string(phase.stats.violations) +
                           " control(s) granted one slot to two apps");
  return phase;
}

double pass_median(const std::vector<double>& values) {
  Samples samples;
  for (double v : values) samples.add(v);
  return samples.median();
}

}  // namespace

std::vector<std::string> sim_learn_schedule(std::uint64_t seed, std::size_t count) {
  std::vector<std::string> lines;
  harp::model::WorkloadCatalog catalog = harp::model::WorkloadCatalog::raptor_lake();
  World shell{harp::platform::raptor_lake(), catalog, {}};
  for (const RunSpec& run : pass_runs(shell, seed))
    lines.push_back("run " + run.scenario.name + " seed " + std::to_string(run.seed));
  const RunSpec qos = pass_runs(shell, seed)[catalog.multi_scenarios().size() * kLearnRuns];
  // The runner derives the service's stream seed from the run seed and app id 0.
  harp::model::ArrivalGenerator arrivals(bursty_traffic(),
                                         qos.seed ^ (1ull * 0x9E3779B97F4A7C15ull));
  char buffer[64];
  while (lines.size() < count) {
    std::optional<harp::model::QosRequest> request = arrivals.next();
    if (!request.has_value()) break;
    std::snprintf(buffer, sizeof buffer, "qos %.17g", request->arrival_s);
    lines.push_back(buffer);
  }
  lines.resize(std::min(lines.size(), count));
  return lines;
}

Report run_sim_learn(const Args& args) {
  Report report;
  Samples setups;
  // Two untimed warm-up set-ups, then the one whose world the runs use. The
  // other timed set-ups are spread between the runs, so that set-up timings
  // see the same host as the runs do rather than the first second of the
  // process.
  auto set_up = [&setups] {
    gauge_if_due();
    const double t0 = mono();
    World world = build_world();
    setups.add(mono() - t0);
    return world;
  };
  World world;
  for (int i = 0; i < 2; ++i) world = set_up();
  setups = Samples{};
  world = set_up();
  const std::vector<RunSpec> runs = pass_runs(world, args.seed);

  if (!args.trace) {
    Phase phase = run_phase(world, runs, args.seconds, nullptr, [&] {
      if (setups.count() < kSetupRepeats) set_up();
    });
    report.attempted = phase.runs;
    report.failed = phase.failed_runs + phase.stats.violations;
    double energy = 0.0, qos_hits = 0.0, qos_completed = 0.0;
    int jobs = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].qos) {
        qos_hits += static_cast<double>(phase.first[i].qos_hits);
        qos_completed += static_cast<double>(phase.first[i].qos_completed);
      } else {
        energy += phase.first[i].energy_j;
        jobs += phase.first[i].completions;
      }
    }
    report.add("setup_s", setups.median(), "s");
    report.add_percentile_ms("activation_p50_ms", phase.stats.activation, 0.50);
    report.add_percentile_ms("activation_p99_ms", phase.stats.activation, 0.99);
    report.add_percentile_ms("register_p50_ms", phase.stats.registration, 0.50);
    report.add_percentile_ms("register_p90_ms", phase.stats.registration, 0.90);
    report.add("ok_frac", 1.0 - static_cast<double>(report.failed) /
                                    static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
               "frac");
    report.add("rm_busy_frac", phase.stats.hook_s / phase.host_s, "frac");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("sim_speed", pass_median(phase.pass_speeds), "s/s");
    if (jobs == 0) report.fail("no application run completed in a whole pass");
    report.add("energy_per_job_j", jobs > 0 ? energy / jobs : 0.0, "J");
    report.add("qos_hit_rate", qos_completed > 0.0 ? qos_hits / qos_completed : 0.0, "frac");
    for (const std::string& error : phase.errors) report.fail(error);
    return report;
  }

  Phase untraced = run_phase(world, runs, args.seconds * kReferenceShare, nullptr);
  Telemetry telemetry;
  Phase traced = run_phase(world, runs, args.seconds * (1.0 - kReferenceShare), &telemetry);
  report.attempted = untraced.runs + traced.runs;
  report.failed = untraced.failed_runs + traced.failed_runs + untraced.stats.violations +
                  traced.stats.violations;
  const double speed_untraced = pass_median(untraced.pass_speeds);
  const double speed_traced = pass_median(traced.pass_speeds);
  const double passes = static_cast<double>(traced.pass_speeds.size());
  harp::telemetry::MetricsRegistry& m = telemetry.metrics;
  report.add("bench.trace_overhead_frac", (speed_untraced - speed_traced) / speed_untraced, "frac");
  report.add("allocator.solve_ms_mean", telemetry.solves.mean() * 1e3, "ms");
  const double solves = static_cast<double>(telemetry.solve_count);
  report.add("allocator.incremental_frac",
             solves > 0 ? static_cast<double>(m.counter_value("rm_solve_incremental_total")) / solves
                        : 0.0,
             "frac");
  report.add("allocator.rescanned_per_solve",
             solves > 0
                 ? static_cast<double>(m.counter_value("rm_solve_groups_rescanned_total")) / solves
                 : 0.0,
             "count");
  report.add("policy.tick_us", traced.stats.tick_s / static_cast<double>(traced.stats.ticks) * 1e6,
             "us");
  report.add("policy.host_frac", traced.stats.hook_s / traced.host_s, "frac");
  // Counters accumulate over identical passes: per-pass values are exact.
  report.add("policy.reallocs", static_cast<double>(m.counter_value("rm_reallocs_total")) / passes,
             "count");
  report.add("policy.group_rebuilds",
             static_cast<double>(m.counter_value("rm_group_rebuilds_total")) / passes, "count");
  report.add("policy.measurements",
             static_cast<double>(m.counter_value("rm_measurements_total")) / passes, "count");
  report.add("sim.runner_frac", (traced.host_s - traced.stats.hook_s) / traced.sim_s, "ratio");
  if (telemetry.dropped > 0)
    std::fprintf(stderr, "note: tracer dropped %llu events\n",
                 static_cast<unsigned long long>(telemetry.dropped));
  for (const std::string& error : untraced.errors) report.fail(error);
  for (const std::string& error : traced.errors) report.fail(error);
  return report;
}

}  // namespace rmbench
