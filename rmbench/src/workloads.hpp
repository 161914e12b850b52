// The three rmbench workloads and the metric names each run reports.
#pragma once

#include <string>
#include <vector>

#include "rmbench/src/common.hpp"

namespace rmbench {

/// Untraced run: every end-to-end metric, on every workload.
Report run_desktop(const Args& args);
Report run_crowd(const Args& args);
Report run_sim_learn(const Args& args);

/// The open-loop schedule a desktop/crowd window of `window_s` replays.
std::vector<Event> rm_schedule(const std::string& workload, std::uint64_t seed, double window_s);

/// sim_learn's inputs as text lines: its run list and its QoS arrivals.
std::vector<std::string> sim_learn_schedule(std::uint64_t seed, std::size_t count);

/// Share of a traced run spent in its untraced reference window; the rest
/// is the traced window the per-layer metrics come from.
constexpr double kReferenceShare = 0.25;

/// Direct timings of the mlmodels layer (traced runs of every workload).
void add_mlmodels_layers(Report& report);

struct MetricName {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, in report order. A workload reports 0 for a layer it
/// does not exercise (e.g. libharp under sim_learn).
extern const std::vector<MetricName> kLayerMetrics;

}  // namespace rmbench
