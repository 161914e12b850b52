// rmbench: one benchmark for the HARP RM as applications and the simulator
// see it. Usage:
//
//   rmbench --workload desktop|crowd|sim_learn --seed N --seconds S --trace 0|1
//           [--smoke] [--dump-schedule N]
//
// Prints a human-readable metric table (percentiles with their sample
// counts), then, as the last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
// Exit codes: 0 ok; 1 a correctness check failed (result still printed);
// 2 bad arguments; 3 a tail percentile was refused for lack of samples
// (no result printed, unless --smoke, which prints it as null).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "rmbench/src/common.hpp"
#include "rmbench/src/workloads.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/mlmodels/pareto.hpp"
#include "src/mlmodels/regressors.hpp"

namespace rmbench {

const std::vector<MetricName> kLayerMetrics = {
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "frac"},
    {"libharp.poll_us", "us"},
    {"libharp.submit_us", "us"},
    {"ipc.encode_points_us", "us"},
    {"ipc.decode_points_us", "us"},
    {"ipc.encode_activate_us", "us"},
    {"ipc.decode_activate_us", "us"},
    {"ipc.activations_per_update", "ratio"},
    {"ipc.ready_per_cycle", "ratio"},
    {"rm_server.poll_us_p50", "us"},
    {"rm_server.poll_us_p99", "us"},
    {"rm_server.reallocs_per_update", "ratio"},
    {"rm_server.group_rebuilds_per_realloc", "ratio"},
    {"rm_server.group_cache_hit_frac", "frac"},
    {"rm_server.skip_frac", "frac"},
    {"allocator.solve_ms_mean", "ms"},
    {"allocator.incremental_frac", "frac"},
    {"allocator.rescanned_per_solve", "count"},
    {"policy.tick_us", "us"},
    {"policy.host_frac", "frac"},
    {"policy.reallocs", "count"},
    {"policy.group_rebuilds", "count"},
    {"policy.measurements", "count"},
    {"mlmodels.pareto_us", "us"},
    {"mlmodels.poly2_fit_us", "us"},
    {"mlmodels.poly2_predict_us", "us"},
    {"sim.runner_frac", "ratio"},
};

void add_mlmodels_layers(Report& report) {
  const harp::platform::HardwareDescription hw = harp::platform::raptor_lake();
  const std::vector<harp::platform::ExtendedResourceVector> coarse =
      harp::platform::enumerate_coarse_points(hw);

  // ml::pareto_front over the coarse-point objective rows RmServer builds
  // for an app without a table (utility = threads, modelled power, cores).
  std::vector<std::vector<double>> rows;
  for (const harp::platform::ExtendedResourceVector& erv : coarse) {
    std::vector<double> row{-static_cast<double>(erv.total_threads()), model_power_w(erv, hw)};
    for (int t = 0; t < erv.num_types(); ++t) row.push_back(erv.cores_used(t));
    rows.push_back(std::move(row));
  }
  Samples pareto;
  std::size_t kept = 0;
  for (int i = 0; i < 40; ++i) {
    const double t0 = mono();
    kept += harp::ml::pareto_front(rows).size();
    pareto.add(mono() - t0);
  }

  // Degree-2 polynomial surrogate as exploration uses it: ~20 measured
  // points, predictions over the whole configuration space.
  harp::Rng rng(42);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    const harp::platform::ExtendedResourceVector& erv =
        coarse[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(coarse.size()) - 1))];
    x.push_back(erv.feature_vector());
    y.push_back(std::sqrt(static_cast<double>(erv.total_threads())) * rng.noise_factor(0.05));
  }
  Samples fit, predict;
  harp::ml::PolynomialRegressor model(2);
  for (int i = 0; i < 200; ++i) {
    const double t0 = mono();
    model.fit(x, y);
    fit.add(mono() - t0);
  }
  std::vector<std::vector<double>> features;
  for (const harp::platform::ExtendedResourceVector& erv : coarse)
    features.push_back(erv.feature_vector());
  double sink = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double t0 = mono();
    for (const std::vector<double>& f : features) sink += model.predict(f);
    predict.add((mono() - t0) / static_cast<double>(features.size()));
  }
  if (kept == 0 || !std::isfinite(sink)) report.fail("mlmodels direct calls returned nothing");
  report.add("mlmodels.pareto_us", pareto.median() * 1e6, "us");
  report.add("mlmodels.poly2_fit_us", fit.median() * 1e6, "us");
  report.add("mlmodels.poly2_predict_us", predict.median() * 1e6, "us");
}

namespace {

/// Kernel runs that set the clock's first speed reading.
constexpr int kFirstGaugeBlock = 64;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload desktop|crowd|sim_learn --seed N --seconds S --trace 0|1 "
               "[--smoke] [--dump-schedule N]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (flag == "--dump-schedule") {
      args.dump_schedule = std::atoi(value);
    } else {
      return false;
    }
  }
  return args.workload == "desktop" || args.workload == "crowd" || args.workload == "sim_learn";
}

void print_json_number(double value) {
  if (std::isfinite(value)) std::printf("%.17g", value);
  else std::printf("null");
}

}  // namespace

}  // namespace rmbench

int main(int argc, char** argv) {
  using namespace rmbench;
  Args args;
  if (!parse(argc, argv, args)) return usage(argv[0]);
  harp::set_log_level(harp::LogLevel::kError);  // co-allocation warnings are counted instead
  gauge_block(kFirstGaugeBlock);

  if (args.dump_schedule > 0) {
    const std::size_t count = static_cast<std::size_t>(args.dump_schedule);
    if (args.workload == "sim_learn") {
      for (const std::string& line : sim_learn_schedule(args.seed, count))
        std::printf("%s\n", line.c_str());
      return 0;
    }
    std::vector<Event> events = rm_schedule(args.workload, args.seed, args.seconds);
    for (std::size_t i = 0; i < events.size() && i < count; ++i)
      std::printf("%.17g %d %d %llu\n", events[i].due, events[i].kind, events[i].app,
                  static_cast<unsigned long long>(events[i].payload_seed));
    return 0;
  }

  Report report = args.workload == "desktop" ? run_desktop(args)
                  : args.workload == "crowd" ? run_crowd(args)
                                             : run_sim_learn(args);
  if (args.trace) add_mlmodels_layers(report);
  std::printf("host-speed gauge: median %.3f us over %zu kernel runs\n", gauge_median_s() * 1e6,
              gauge_count());
  if (args.trace) {
    // Layers this workload does not exercise read 0.
    std::vector<Metric> ordered;
    for (const MetricName& layer : kLayerMetrics) {
      Metric metric{layer.name, 0.0, layer.unit, 0};
      for (const Metric& m : report.metrics)
        if (m.name == layer.name) metric = m;
      ordered.push_back(metric);
    }
    report.metrics = std::move(ordered);
  }

  bool refused = false;
  for (const Metric& m : report.metrics) {
    if (m.value.has_value())
      std::printf("%-40s %16.6f %-6s", m.name.c_str(), *m.value, m.unit.c_str());
    else
      std::printf("%-40s %16s %-6s", m.name.c_str(), "refused", m.unit.c_str());
    if (m.samples > 0) std::printf("  (n=%zu)", m.samples);
    std::printf("\n");
    if (!m.value.has_value()) {
      refused = true;
      std::fprintf(stderr, "%s: fewer than ten samples beyond the percentile (n=%zu)\n",
                   m.name.c_str(), m.samples);
    }
  }
  for (const std::string& error : report.errors) std::fprintf(stderr, "error: %s\n", error.c_str());
  if (refused && !args.smoke) return 3;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(report.attempted, 1)),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    if (m.value.has_value()) print_json_number(*m.value);
    else std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
