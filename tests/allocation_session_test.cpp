// Tests for the one RM decision cycle (src/harp/allocation_session.hpp),
// directly and through each of its two callers, RmServer and HarpPolicy.
// In every caller
//  - an arrival or a departure changes the id sequence: a full solve;
//  - a resubmission rebuilds one group: an incremental solve;
//  - a cycle where nothing changed returns the previous result without
//    calling the solver, sends nothing, and counts rm_realloc_skips_total.
// Cycles are classified from the session's own metrics: every solver call
// observes rm_solve_seconds, incremental ones also bump
// rm_solve_incremental_total, and no-change cycles bump
// rm_realloc_skips_total.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/harp/allocation_session.hpp"
#include "src/harp/policy.hpp"
#include "src/harp/rm_server.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"
#include "src/sim/slots.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::core {
namespace {

enum class Cycle { kNone, kFull, kIncremental, kNoChange, kSeveral };

/// Session metrics at one point in time.
struct Counts {
  std::uint64_t solves = 0;
  std::uint64_t incremental = 0;
  std::uint64_t skips = 0;

  static Counts read(telemetry::MetricsRegistry& metrics) {
    return Counts{metrics.histogram("rm_solve_seconds", {}).count(),
                  metrics.counter_value("rm_solve_incremental_total"),
                  metrics.counter_value("rm_realloc_skips_total")};
  }
};

/// Classify the decision cycles run since `mark`, and move `mark` forward.
Cycle next_cycle(telemetry::MetricsRegistry& metrics, Counts& mark) {
  Counts now = Counts::read(metrics);
  const std::uint64_t solves = now.solves - mark.solves;
  const std::uint64_t incremental = now.incremental - mark.incremental;
  const std::uint64_t skips = now.skips - mark.skips;
  mark = now;
  if (solves + skips == 0) return Cycle::kNone;
  if (solves + skips > 1) return Cycle::kSeveral;
  if (skips == 1) return Cycle::kNoChange;
  return incremental == 1 ? Cycle::kIncremental : Cycle::kFull;
}

AllocationGroup small_group(const platform::HardwareDescription& hw, int flavour) {
  AllocationGroup group;
  group.app_name = "app" + std::to_string(flavour);
  for (int c = 0; c < 4; ++c) {
    OperatingPoint point;
    point.erv = platform::ExtendedResourceVector::from_threads(hw, {1 + c, flavour % 3});
    point.nfc.utility = 1.0;
    group.candidates.push_back(point);
    group.costs.push_back(1.0 + 2.0 * c + 0.25 * flavour);
  }
  group.prepare(static_cast<int>(hw.core_types.size()));
  return group;
}

void expect_same_result(const AllocationResult& actual, const AllocationResult& expected) {
  EXPECT_EQ(actual.feasible, expected.feasible);
  EXPECT_EQ(actual.selection, expected.selection);
  EXPECT_EQ(actual.total_cost, expected.total_cost);
  ASSERT_EQ(actual.allocations.size(), expected.allocations.size());
  for (std::size_t g = 0; g < actual.allocations.size(); ++g)
    EXPECT_EQ(actual.allocations[g].cores, expected.allocations[g].cores);
}

TEST(AllocationSession, ClassifiesCyclesAndMatchesColdSolves) {
  platform::HardwareDescription hw = platform::raptor_lake();
  std::map<std::uint64_t, AllocationGroup> groups;
  for (int id = 1; id <= 3; ++id) groups[static_cast<std::uint64_t>(id)] = small_group(hw, id);
  Allocator allocator(hw);
  telemetry::MetricsRegistry metrics;
  AllocationSession session(nullptr, &metrics);
  Counts mark;

  // One cycle over `ids`; `rebuilt` lists the ids whose group changed.
  auto cycle = [&](const std::vector<std::uint64_t>& ids,
                   const std::vector<std::uint64_t>& rebuilt) {
    session.begin(ids.size(), 0.0);
    std::vector<AllocationGroup> cold;
    for (std::uint64_t id : ids) {
      bool changed = std::find(rebuilt.begin(), rebuilt.end(), id) != rebuilt.end();
      session.add(id, groups.at(id), changed);
      cold.push_back(groups.at(id));
    }
    bool solved = session.solve(allocator);
    session.end();
    expect_same_result(session.result(), allocator.solve(cold));
    return solved;
  };

  EXPECT_TRUE(cycle({1, 2}, {1, 2}));
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);

  groups.at(2).costs[0] += 0.5;  // a resubmission
  EXPECT_TRUE(cycle({1, 2}, {2}));
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kIncremental);

  EXPECT_FALSE(cycle({1, 2}, {}));
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kNoChange);

  EXPECT_TRUE(cycle({1, 2, 3}, {3}));  // arrival
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);

  EXPECT_TRUE(cycle({1, 3}, {}));  // departure
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);

  // A new budget under unchanged groups: the next cycle must solve in full.
  session.invalidate();
  EXPECT_TRUE(cycle({1, 3}, {}));
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);
}

// ---------------------------------------------------------------------------
// RmServer: in-process clients
// ---------------------------------------------------------------------------

struct TestClient {
  std::unique_ptr<ipc::Channel> app;
  int activations = 0;
};

ipc::OperatingPointsMsg points(const platform::HardwareDescription& hw, double utility) {
  ipc::OperatingPointsMsg msg;
  msg.points = {{platform::ExtendedResourceVector::from_threads(hw, {2, 0}), utility, 6.0},
                {platform::ExtendedResourceVector::from_threads(hw, {0, 2}), utility / 2, 1.2}};
  return msg;
}

/// A client registered with `rm`, with two points.
TestClient connect(RmServer& rm, const platform::HardwareDescription& hw,
                   const std::string& name, std::int32_t pid) {
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  ipc::RegisterRequest reg;
  reg.pid = pid;
  reg.app_name = name;
  EXPECT_TRUE(app_end->send(ipc::Message(reg)).ok());
  EXPECT_TRUE(app_end->send(ipc::Message(points(hw, 100.0))).ok());
  rm.adopt_channel(std::move(rm_end));
  return TestClient{std::move(app_end), 0};
}

/// Activations received since the last call.
int take_activations(TestClient& client) {
  int before = client.activations;
  for (;;) {
    auto polled = client.app->poll();
    if (!polled.ok() || !polled.value().has_value()) break;
    if (std::holds_alternative<ipc::ActivateMsg>(*polled.value())) ++client.activations;
  }
  return client.activations - before;
}

TEST(AllocationSessionCallers, RmServer) {
  platform::HardwareDescription hw = platform::raptor_lake();
  telemetry::MetricsRegistry metrics;
  telemetry::ManualClock clock;
  telemetry::Tracer tracer(&clock);
  RmServerOptions options;
  options.lease_seconds = 0;
  options.metrics = &metrics;
  options.tracer = &tracer;
  RmServer rm(hw, options);
  Counts mark;

  TestClient a = connect(rm, hw, "a", 1);
  rm.poll(0.0);
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);
  EXPECT_EQ(take_activations(a), 1);

  TestClient b = connect(rm, hw, "b", 2);  // arrival
  rm.poll(0.0);
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);
  EXPECT_EQ(take_activations(a), 1);
  EXPECT_EQ(take_activations(b), 1);

  ASSERT_TRUE(a.app->send(ipc::Message(points(hw, 120.0))).ok());  // resubmission
  rm.poll(0.0);
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kIncremental);
  EXPECT_EQ(take_activations(a), 1);
  EXPECT_EQ(take_activations(b), 1);

  // A connection that closes without registering still triggers a
  // reallocation; nothing changed, so no client is sent anything.
  const std::uint64_t reallocs = rm.realloc_count();
  {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    rm.adopt_channel(std::move(rm_end));
  }
  rm.poll(0.0);
  EXPECT_EQ(rm.realloc_count(), reallocs + 1);
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kNoChange);
  EXPECT_EQ(take_activations(a), 0);
  EXPECT_EQ(take_activations(b), 0);
  bool saw_skipped_end = false;
  for (const telemetry::TraceEvent& event : tracer.events())
    if (event.type == telemetry::EventType::kAllocCycle && event.phase == telemetry::Phase::kEnd)
      for (const auto& [key, value] : event.num)
        if (key == "skipped" && value == 1.0) saw_skipped_end = true;
  EXPECT_TRUE(saw_skipped_end);

  ASSERT_TRUE(b.app->send(ipc::Message(ipc::Deregister{})).ok());  // departure
  rm.poll(0.0);
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);
  EXPECT_EQ(take_activations(a), 1);
}

// ---------------------------------------------------------------------------
// HarpPolicy: a scripted runner
// ---------------------------------------------------------------------------

/// A RunnerApi whose apps run (past startup) from the moment they start,
/// on a clock the test moves; controls are counted, not applied. Every app
/// is single-threaded and static, so its choice group always holds the same
/// two candidates (one thread on a P or an E core): a table refresh keeps
/// the group's shape, which the incremental solve path requires.
class ScriptedRunner : public sim::RunnerApi {
 public:
  explicit ScriptedRunner(platform::HardwareDescription hw)
      : hw_(std::move(hw)), slots_(hw_) {}

  void start(sim::AppId id) {
    model::AppBehavior& behavior = behaviors_[id];
    behavior = model::WorkloadCatalog::raptor_lake().app("ep.C");
    behavior.name = "static" + std::to_string(id);
    behavior.adaptivity = model::AdaptivityType::kStatic;
    behavior.default_threads = 1;
    apps_[id] = sim::RunningAppInfo{id, &behavior, now_, false};
  }
  void stop(sim::AppId id) { apps_.erase(id); }
  void advance(double seconds) { now_ += seconds; }
  int controls() const { return controls_; }

  const platform::HardwareDescription& hardware() const override { return hw_; }
  const sim::SlotMap& slots() const override { return slots_; }
  double now() const override { return now_; }
  std::vector<sim::RunningAppInfo> running_apps() const override {
    std::vector<sim::RunningAppInfo> out;
    for (const auto& [id, info] : apps_) out.push_back(info);
    return out;
  }
  double read_perf_gips(sim::AppId) override { return 10.0; }
  double read_package_energy() override { return 1.0; }
  std::vector<double> cpu_time_by_type(sim::AppId) const override {
    return std::vector<double>(hw_.core_types.size(), now_);
  }
  std::optional<double> read_app_utility(sim::AppId) override { return std::nullopt; }
  int app_phase(sim::AppId) const override { return 0; }
  void set_control(sim::AppId, const sim::AppControl&) override { ++controls_; }
  void charge_overhead(double) override {}

 private:
  platform::HardwareDescription hw_;
  sim::SlotMap slots_;
  std::map<sim::AppId, model::AppBehavior> behaviors_;
  std::map<sim::AppId, sim::RunningAppInfo> apps_;
  double now_ = 0.0;
  int controls_ = 0;
};

TEST(AllocationSessionCallers, HarpPolicy) {
  ScriptedRunner runner(platform::raptor_lake());
  telemetry::MetricsRegistry metrics;
  HarpOptions options;
  options.metrics = &metrics;
  HarpPolicy policy(options);
  policy.attach(runner);
  Counts mark;

  runner.start(0);
  runner.start(1);
  policy.on_app_start(0);
  policy.on_app_start(1);
  policy.tick();
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);

  // One measurement tick refines both tables without reallocating; the next
  // reallocation (forced by an exit of an app the policy never managed)
  // then re-solves the two rebuilt groups incrementally.
  runner.advance(options.exploration.measurement_interval_s);
  policy.tick();
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kNone);
  policy.on_app_exit(99);
  policy.tick();
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kIncremental);

  // The same forced reallocation with no table change: no solver call, but
  // the previous grants are pushed again as before.
  const int controls = runner.controls();
  policy.on_app_exit(99);
  policy.tick();
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kNoChange);
  EXPECT_EQ(runner.controls(), controls + 2);
  EXPECT_EQ(policy.active_configs().size(), 2u);

  runner.stop(1);  // departure
  policy.on_app_exit(1);
  policy.tick();
  EXPECT_EQ(next_cycle(metrics, mark), Cycle::kFull);
}

}  // namespace
}  // namespace harp::core
