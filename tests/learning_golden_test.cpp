// Golden pins for online HarpPolicy learning on the simulator.
//
// Each case runs online HARP from empty tables on one multi-app scenario at
// a fixed seed and pins what the learning path decides: package energy (to
// the last bit), per-app completions, the policy's reallocation, group
// rebuild and measurement counters, and an FNV-1a hash of every grant and
// exploration-select event as telemetry::to_jsonl renders it. Any change to
// the surrogate, the Pareto filter, the candidate set, ζ or the allocator
// that moves a single decision moves one of these.
//
// Regenerating the pins (after an intentional policy change — never to
// paper over an unexplained diff):
//   HARP_REGEN_LEARNING_GOLDEN=1 ./build/tests/learning_golden_test
// rewrites tests/learning_fixtures/golden_learning.txt in the source tree;
// commit the new file together with the change that moved it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/harp/policy.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"
#include "src/sim/runner.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/export.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace harp {
namespace {

struct Case {
  const char* platform;  ///< "raptor-lake" or "odroid"
  const char* scenario;  ///< a multi-app scenario of that platform's catalog
  std::uint64_t seed;
  double horizon_s;
};

const Case kCases[] = {
    {"raptor-lake", "bt+mg+pi", 11, 200.0},
    {"raptor-lake", "ep+is+lu+mg", 12, 200.0},
    {"odroid", "ep+mg+lms", 13, 200.0},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// One line of the fixture: every pinned outcome of a case.
std::string run_case(const Case& c) {
  bool raptor = std::string(c.platform) == "raptor-lake";
  platform::HardwareDescription hw = raptor ? platform::raptor_lake() : platform::odroid_xu3e();
  model::WorkloadCatalog catalog =
      raptor ? model::WorkloadCatalog::raptor_lake() : model::WorkloadCatalog::odroid();
  const model::Scenario* scenario = nullptr;
  for (const model::Scenario& s : catalog.multi_scenarios())
    if (s.name == c.scenario) scenario = &s;
  EXPECT_NE(scenario, nullptr) << "no scenario " << c.scenario;
  if (scenario == nullptr) return {};

  telemetry::ManualClock clock;
  telemetry::TracerOptions tracer_options;
  tracer_options.capacity = 1 << 20;
  telemetry::Tracer tracer(&clock, tracer_options);
  telemetry::MetricsRegistry metrics;
  core::HarpOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.trace_clock = &clock;
  core::HarpPolicy policy(options);

  sim::RunOptions run;
  run.seed = c.seed;
  run.repeat_horizon = c.horizon_s;
  sim::ScenarioRunner runner(hw, catalog, *scenario, run);
  sim::RunResult result = runner.run(policy);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::vector<telemetry::TraceEvent> decisions;
  for (const telemetry::TraceEvent& event : tracer.events())
    if (event.type == telemetry::EventType::kGrant ||
        event.type == telemetry::EventType::kExplorationSelect)
      decisions.push_back(event);
  EXPECT_FALSE(decisions.empty());

  std::ostringstream line;
  line << c.platform << ' ' << c.scenario << ' ' << c.seed << " energy_j="
       << format_double(result.package_energy_j) << " completions=";
  for (std::size_t i = 0; i < result.apps.size(); ++i)
    line << (i == 0 ? "" : ",") << result.apps[i].name << ':' << result.apps[i].completions;
  line << " reallocs=" << metrics.counter_value("rm_reallocs_total")
       << " rebuilds=" << metrics.counter_value("rm_group_rebuilds_total")
       << " measurements=" << metrics.counter_value("rm_measurements_total")
       << " decisions=" << decisions.size() << " fnv=" << std::hex
       << fnv1a(telemetry::to_jsonl(decisions));
  return line.str();
}

std::string fixture_path() {
  return std::string(HARP_LEARNING_FIXTURE_DIR) + "/golden_learning.txt";
}

TEST(LearningGolden, OnlineDecisionsMatchPinnedRuns) {
  std::string rendered;
  // harp-lint: allow(r9 HARP_REGEN_LEARNING_GOLDEN only gates the human-invoked regen path; the rendered pins are seed-deterministic and compared exactly)
  for (const Case& c : kCases) rendered += run_case(c) + "\n";
  if (std::getenv("HARP_REGEN_LEARNING_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << rendered;
    ASSERT_TRUE(out.flush().good());
    GTEST_SKIP() << "regenerated " << fixture_path();
  }
  std::ifstream in(fixture_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << fixture_path();
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str());
}

}  // namespace
}  // namespace harp
