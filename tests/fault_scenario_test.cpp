// Deterministic fault scenarios for the RM ↔ libharp protocol.
//
// Each scenario drives a real RmServer plus real HarpClients through the
// scenario harness (one thread, virtual clock, seeded fault injection) and
// relies on World::check_invariants after every step: no core double-grant,
// capacity conservation, no client retained past its lease. The scenarios
// are parameterized over fault-plan seeds, so each timeline is exercised
// under several distinct (but reproducible) fault interleavings.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/rng.hpp"
#include "src/platform/hardware.hpp"
#include "src/telemetry/export.hpp"
#include "src/telemetry/metrics.hpp"
#include "tests/scenario_harness.hpp"

namespace harp {
namespace {

using client::HarpClient;
using client::LinkState;
using ipc::FaultKind;
using ipc::FaultPlan;
using scenario::App;
using scenario::World;

std::vector<ipc::OperatingPointsMsg::Point> two_points(
    const platform::HardwareDescription& hw) {
  return {{platform::ExtendedResourceVector::from_threads(hw, {4, 0}), 100.0, 6.0},
          {platform::ExtendedResourceVector::from_threads(hw, {0, 4}), 50.0, 1.2}};
}

client::Config app_config(const std::string& name, std::int32_t pid,
                          std::uint64_t seed) {
  client::Config config;
  config.app_name = name;
  config.pid = pid;
  config.heartbeat_interval_s = 0.2;
  config.jitter_seed = seed;
  return config;
}

core::RmServerOptions rm_options() {
  core::RmServerOptions options;
  options.lease_seconds = 2.0;
  options.utility_poll_interval_s = 0.25;
  return options;
}

/// A lossy-but-alive link: frames drop, duplicate, garble and the sender
/// sees transient errors, yet the link itself never closes.
FaultPlan flaky(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_p = 0.12;
  plan.duplicate_p = 0.08;
  plan.reorder_p = 0.05;
  plan.garbage_p = 0.04;
  plan.transient_error_p = 0.08;
  return plan;
}

class FaultScenario : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::uint64_t seed() const { return GetParam(); }
};

// Scenario 1 — crash during registration. Two clients die mid-handshake:
// one before the RM ever sees its RegisterRequest processed to completion
// (link already closed when the ack goes out), one after the ack was queued
// but before the app reads it. A healthy bystander must keep its grant and
// the RM must converge back to exactly one client.
TEST_P(FaultScenario, CrashDuringRegistration) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* steady = world.spawn(app_config("steady", 100, seed()), flaky(seed()));
  ASSERT_TRUE(steady->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(steady->client->registered());
  ASSERT_TRUE(steady->client->current_activation().has_value());

  // Crash A: link drops before the RM even polls — the RegisterRequest sits
  // in a closed queue; the RM reads it, fails to ack, and must drop the
  // corpse without disturbing the event loop.
  App* corpse_a = world.spawn(app_config("corpse-a", 200, seed()), FaultPlan::clean());
  world.crash(*corpse_a);
  world.run(0.5);
  EXPECT_EQ(world.registered_count("corpse-a"), 0);

  // Crash B: the RM registers the app and queues the ack, then the app dies
  // before ever reading it (RM-only step exposes the window).
  App* corpse_b = world.spawn(app_config("corpse-b", 300, seed()), FaultPlan::clean());
  world.step_rm_only(0.05);
  world.crash(*corpse_b);
  // The closed link (or, failing that, the lease) reclaims the slot.
  world.run(3.0);
  EXPECT_EQ(world.registered_count("corpse-b"), 0);

  EXPECT_TRUE(steady->client->registered());
  EXPECT_TRUE(steady->client->current_activation().has_value());
  EXPECT_EQ(world.rm().client_count(), 1u);
}

// Scenario 2 — kill and restart. An app with a grant dies abruptly (no
// Deregister) and a new instance with the same (name, pid) registers right
// away. The RM must evict the zombie on the spot — not after the lease —
// and the restarted instance must re-submit points and get a fresh grant.
TEST_P(FaultScenario, AppKillAndRestart) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* first = world.spawn(app_config("phoenix", 4242, seed()), flaky(seed()));
  ASSERT_TRUE(first->client->submit_operating_points(two_points(hw)).ok());
  App* other = world.spawn(app_config("bystander", 7, seed()), flaky(seed() + 17));
  ASSERT_TRUE(other->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(first->client->registered());
  ASSERT_TRUE(other->client->registered());

  world.crash(*first);

  App* reborn = world.spawn(app_config("phoenix", 4242, seed() + 1), flaky(seed() + 1));
  ASSERT_TRUE(reborn->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);

  EXPECT_TRUE(reborn->client->registered());
  EXPECT_TRUE(reborn->client->current_activation().has_value());
  // Zombie evicted immediately on identity collision: never two phoenixes.
  EXPECT_EQ(world.registered_count("phoenix"), 1);
  EXPECT_EQ(world.rm().client_count(), 2u);
  EXPECT_TRUE(other->client->registered());
}

// Scenario 3 — RM restart with clients alive. The daemon is torn down and
// replaced; clients see the dead link, back off, redial through their
// factories and re-register idempotently, replaying their operating-point
// tables so the new RM can allocate without any application involvement.
TEST_P(FaultScenario, RmRestartWithClientsAlive) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* a = world.spawn(app_config("alpha", 11, seed()), flaky(seed()));
  ASSERT_TRUE(a->client->submit_operating_points(two_points(hw)).ok());
  App* b = world.spawn(app_config("beta", 22, seed()), flaky(seed() + 31));
  ASSERT_TRUE(b->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(a->client->registered());
  ASSERT_TRUE(b->client->registered());
  std::int32_t old_a_id = a->client->app_id();

  world.restart_rm();
  world.run(3.0);

  EXPECT_TRUE(a->client->registered());
  EXPECT_TRUE(b->client->registered());
  EXPECT_GE(a->client->reconnect_count(), 1);
  EXPECT_GE(b->client->reconnect_count(), 1);
  EXPECT_EQ(world.rm().client_count(), 2u);
  // The new RM re-learned the tables: both apps hold fresh activations.
  EXPECT_TRUE(a->client->current_activation().has_value());
  EXPECT_TRUE(b->client->current_activation().has_value());
  // The id may change across RM generations; the client must track it.
  EXPECT_GE(a->client->app_id(), 1);
  (void)old_a_id;
}

// Scenario 4 — flaky link during exploration. An app streams operating
// points incrementally (as online exploration would) and reports utility
// over a link that drops/duplicates/garbles frames. Heartbeats and register
// retransmits must keep the lease alive; utility must still reach the RM.
TEST_P(FaultScenario, FlakyLinkDuringExploration) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  client::Callbacks callbacks;
  callbacks.utility_provider = [] { return 77.5; };
  client::Config config = app_config("explorer", 55, seed());
  config.provides_utility = true;
  // Faults in both directions: the app's sends AND the RM's acks/requests.
  App* explorer = world.spawn(config, flaky(seed()), flaky(seed() + 101),
                              std::move(callbacks));

  // Stream the table in three installments, a second apart, while faults
  // are active — the cumulative table is replayed on any re-registration.
  std::vector<ipc::OperatingPointsMsg::Point> table = two_points(hw);
  ASSERT_TRUE(explorer->client->submit_operating_points({table[0]}).ok());
  world.run(1.0);
  ASSERT_TRUE(explorer->client->submit_operating_points(table).ok());
  world.run(1.0);
  table.push_back({platform::ExtendedResourceVector::from_threads(hw, {2, 2}), 80.0, 3.0});
  ASSERT_TRUE(explorer->client->submit_operating_points(table).ok());
  world.run(8.0);

  EXPECT_TRUE(explorer->client->registered());
  EXPECT_TRUE(explorer->client->current_activation().has_value());
  // Utility survived the lossy link (droppable, but retried every interval).
  EXPECT_DOUBLE_EQ(world.rm().last_utility("explorer"), 77.5);
  // The lease never fired: heartbeats kept the client alive throughout.
  EXPECT_EQ(world.rm().lease_evictions(), 0u);
  EXPECT_EQ(world.rm().client_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScenario, ::testing::Values(1u, 7u, 1234u));

// Acceptance criterion: a lease-expired client's cores are reclaimed and
// reallocated within ONE poll() cycle — the eviction sweep and the MMKP
// re-solve happen in the same call.
TEST(FaultLease, ExpiryReclaimsCoresWithinOnePoll) {
  platform::HardwareDescription hw = platform::raptor_lake();
  core::RmServerOptions options = rm_options();  // lease = 2 s
  World world(hw, options);

  App* keeper = world.spawn(app_config("keeper", 1, 1), FaultPlan::clean());
  ASSERT_TRUE(keeper->client->submit_operating_points(two_points(hw)).ok());
  App* sleeper = world.spawn(app_config("sleeper", 2, 2), FaultPlan::clean());
  ASSERT_TRUE(sleeper->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(keeper->client->registered());
  ASSERT_TRUE(sleeper->client->registered());
  ASSERT_EQ(world.rm().client_count(), 2u);

  // The sleeper hangs: socket open, but no polls → no heartbeats. One more
  // step drains its final queued frames, after which its lease clock stops.
  world.hang(*sleeper);
  world.step(0.05);
  std::uint64_t evictions_before = world.rm().lease_evictions();

  // Step until the lease fires. The keeper heartbeats throughout, so only
  // the sleeper can expire; in steady state nothing triggers the MMKP, so a
  // realloc-count bump in the eviction step is attributable to that poll.
  bool evicted = false;
  for (int i = 0; i < 100 && !evicted; ++i) {
    std::uint64_t reallocs = world.rm().realloc_count();
    world.step(0.05);
    if (world.rm().lease_evictions() > evictions_before) {
      evicted = true;
      // The SAME poll() call that evicted the sleeper re-ran the MMKP: its
      // cores are reclaimed within one cycle, not one lease period later.
      EXPECT_EQ(world.rm().realloc_count(), reallocs + 1);
    }
  }
  ASSERT_TRUE(evicted);
  EXPECT_EQ(world.rm().client_count(), 1u);
  EXPECT_EQ(world.registered_count("sleeper"), 0);
  EXPECT_EQ(world.registered_count("keeper"), 1);
}

// Malformed frames must not kill the RM event loop: a client that garbles a
// few frames keeps its registration; one that spews garbage persistently is
// cut after the strike limit without affecting its neighbour.
TEST(FaultLease, MalformedFramesAreContained) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* neighbour = world.spawn(app_config("neighbour", 1, 1), FaultPlan::clean());
  ASSERT_TRUE(neighbour->client->submit_operating_points(two_points(hw)).ok());

  // Occasional garbage (4%) with healthy traffic in between: tolerated.
  FaultPlan dirty;
  dirty.seed = 9;
  dirty.garbage_p = 0.04;
  App* dirty_app = world.spawn(app_config("dirty", 2, 2), dirty);
  ASSERT_TRUE(dirty_app->client->submit_operating_points(two_points(hw)).ok());

  world.run(5.0);
  EXPECT_TRUE(neighbour->client->registered());
  EXPECT_TRUE(dirty_app->client->registered());
  EXPECT_EQ(world.rm().client_count(), 2u);

  // Pure garbage on every frame: the strike limit cuts this client only.
  FaultPlan hostile;
  hostile.seed = 10;
  hostile.garbage_p = 1.0;
  (void)world.spawn(app_config("attacker", 3, 3), hostile);
  world.run(5.0);

  EXPECT_EQ(world.registered_count("attacker"), 0);
  EXPECT_TRUE(neighbour->client->registered());
  EXPECT_TRUE(dirty_app->client->registered());
}

/// Drain every pending message from one end of an in-process channel.
std::vector<ipc::Message> drain(ipc::Channel& channel) {
  std::vector<ipc::Message> out;
  while (true) {
    auto polled = channel.poll();
    if (!polled.ok() || !polled.value().has_value()) break;
    out.push_back(*polled.value());
  }
  return out;
}

// Regression — a registration that supersedes a stale connection must also
// unregister the zombie, not just close its socket: a still-registered
// zombie is handed a grant by the reallocation running later in the same
// poll(). With both instances demanding all four big cores the MMKP goes
// infeasible, so the fresh instance used to be degraded to the
// co-allocation fallback (full-machine erv, parallelism 0).
TEST(RmServerSupersede, ZombieExcludedFromSameCycleReallocation) {
  platform::HardwareDescription hw = platform::odroid_xu3e();
  core::RmServer rm(hw, rm_options());
  ipc::OperatingPointsMsg all_big;
  all_big.points = {{platform::ExtendedResourceVector::from_threads(hw, {4, 0}), 100.0, 6.0}};

  auto [rm_a, app_a] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_a));
  ASSERT_TRUE(app_a->send(ipc::Message(ipc::RegisterRequest{
                              77, "worker", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  ASSERT_TRUE(app_a->send(ipc::Message(all_big)).ok());
  rm.poll(0.0);
  EXPECT_FALSE(drain(*app_a).empty());  // ack + activation for the first instance

  // The process restarted: a new connection arrives with the same identity
  // and the same demand while the old socket is not torn down yet.
  auto [rm_b, app_b] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_b));
  ASSERT_TRUE(app_b->send(ipc::Message(ipc::RegisterRequest{
                              77, "worker", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  ASSERT_TRUE(app_b->send(ipc::Message(all_big)).ok());
  rm.poll(1.0);

  bool activated = false;
  for (const ipc::Message& m : drain(*app_b)) {
    if (const auto* activate = std::get_if<ipc::ActivateMsg>(&m)) {
      activated = true;
      EXPECT_EQ(activate->erv.total_threads(), 4);
      EXPECT_EQ(activate->parallelism, 4);
      EXPECT_FALSE(activate->cores.empty());
    }
  }
  EXPECT_TRUE(activated);

  rm.poll(2.0);  // the closed zombie connection is reaped next cycle
  EXPECT_EQ(rm.client_count(), 1u);
}

// Regression — one client's table must not be able to corrupt the RM's
// heap. The decoder rejected only negative characteristics, so a NaN power
// got in; and a finite table with utility 1e300 beside a point with utility
// 0 and power 0 gave that point ζ = 0·∞ = NaN. Either way a NaN cost sat in
// the solver's sorted cost mirror, and the client's second resubmission ran
// an incremental merge that could not retire it (NaN == NaN is false) and
// wrote past its buffer. Three in-process clients with default options, as
// harpd builds them; every resubmission gets its own cycle, so each one is
// an incremental solve.
TEST(HostileTables, ResubmissionsCannotCorruptTheRm) {
  platform::HardwareDescription hw = platform::raptor_lake();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto erv = [&](int big, int little) {
    return platform::ExtendedResourceVector::from_threads(hw, {big, little});
  };
  const std::vector<ipc::OperatingPointsMsg::Point> hostile_tables[] = {
      {{erv(4, 0), 100.0, nan}, {erv(0, 4), 50.0, 1.2}},
      {{erv(4, 0), 1e300, 6.0}, {erv(0, 4), 0.0, 0.0}},
  };
  for (const std::vector<ipc::OperatingPointsMsg::Point>& hostile : hostile_tables) {
    SCOPED_TRACE(std::isnan(hostile[0].power_w) ? "NaN power" : "0 * inf cost");
    core::RmServer rm(hw);
    std::vector<std::unique_ptr<ipc::Channel>> apps;
    for (std::int32_t i = 0; i < 3; ++i) {
      auto [rm_end, app_end] = ipc::make_in_process_pair();
      rm.adopt_channel(std::move(rm_end));
      ASSERT_TRUE(app_end
                      ->send(ipc::Message(ipc::RegisterRequest{
                          100 + i, "app" + std::to_string(i), ipc::WireAdaptivity::kScalable,
                          false}))
                      .ok());
      apps.push_back(std::move(app_end));
    }
    double now = 0.0;
    rm.poll(now);
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < apps.size(); ++i) {
        ipc::OperatingPointsMsg table;
        table.points = i == 1 ? hostile : two_points(hw);
        ASSERT_TRUE(apps[i]->send(ipc::Message(table)).ok());
        rm.poll(now += 1.0);
      }
    }

    // Every client is still served, from disjoint cores within capacity.
    std::vector<core::ClientSnapshot> clients = rm.snapshot();
    ASSERT_EQ(clients.size(), 3u);
    std::vector<std::vector<int>> owner(hw.core_types.size());
    for (std::size_t t = 0; t < owner.size(); ++t)
      owner[t].assign(static_cast<std::size_t>(hw.core_types[t].core_count), 0);
    for (const core::ClientSnapshot& client : clients) {
      EXPECT_TRUE(client.registered) << client.name;
      EXPECT_FALSE(client.granted.empty()) << client.name;
      for (const ipc::ActivateMsg::CoreGrant& grant : client.granted) {
        ASSERT_LT(static_cast<std::size_t>(grant.type), owner.size());
        ASSERT_LT(static_cast<std::size_t>(grant.core), owner[grant.type].size());
        EXPECT_EQ(++owner[grant.type][grant.core], 1) << "core granted twice";
      }
    }
    for (auto& app : apps) (void)drain(*app);
  }
}

// Seeded sweep of extreme but legal tables: utilities and powers drawn from
// {0, 1e-300, the smallest denormal, 1, 1e300, DBL_MAX}, resubmitted one
// client per cycle so that full and incremental solves both see them.
// Whatever the costs come out as, no solve may fail and every grant must
// stay on distinct cores within capacity.
TEST(HostileTables, ExtremeValueSweepKeepsGrantsWithinCapacity) {
  platform::HardwareDescription hw = platform::raptor_lake();
  const double values[] = {0.0,
                           1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           1.0,
                           1e300,
                           std::numeric_limits<double>::max()};
  const int num_values = static_cast<int>(std::size(values));
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto random_table = [&] {
      ipc::OperatingPointsMsg table;
      const int points = rng.uniform_int(1, 6);
      for (int p = 0; p < points; ++p) {
        // Small enough that any four points fit: every solve is feasible.
        std::vector<int> threads{rng.uniform_int(0, 3), rng.uniform_int(0, 3)};
        if (threads[0] + threads[1] == 0) threads[1] = 1;
        table.points.push_back({platform::ExtendedResourceVector::from_threads(hw, threads),
                                values[rng.uniform_int(0, num_values - 1)],
                                values[rng.uniform_int(0, num_values - 1)]});
      }
      return table;
    };
    telemetry::MetricsRegistry metrics;
    core::RmServerOptions options;
    options.metrics = &metrics;
    core::RmServer rm(hw, options);
    std::vector<std::unique_ptr<ipc::Channel>> apps;
    for (std::int32_t i = 0; i < 4; ++i) {
      auto [rm_end, app_end] = ipc::make_in_process_pair();
      rm.adopt_channel(std::move(rm_end));
      ASSERT_TRUE(app_end
                      ->send(ipc::Message(ipc::RegisterRequest{
                          200 + i, "sweep" + std::to_string(i), ipc::WireAdaptivity::kScalable,
                          false}))
                      .ok());
      ASSERT_TRUE(app_end->send(ipc::Message(random_table())).ok());
      apps.push_back(std::move(app_end));
    }
    double now = 0.0;
    ASSERT_NO_THROW(rm.poll(now));
    for (int step = 0; step < 24; ++step) {
      const std::size_t who = static_cast<std::size_t>(rng.uniform_int(0, 3));
      ASSERT_TRUE(apps[who]->send(ipc::Message(random_table())).ok());
      ASSERT_NO_THROW(rm.poll(now += 1.0));

      std::vector<std::vector<int>> owner(hw.core_types.size());
      for (std::size_t t = 0; t < owner.size(); ++t)
        owner[t].assign(static_cast<std::size_t>(hw.core_types[t].core_count), 0);
      for (const core::ClientSnapshot& client : rm.snapshot()) {
        EXPECT_TRUE(client.registered) << client.name;
        EXPECT_FALSE(client.granted.empty()) << client.name;
        for (const ipc::ActivateMsg::CoreGrant& grant : client.granted) {
          ASSERT_LT(static_cast<std::size_t>(grant.type), owner.size());
          ASSERT_LT(static_cast<std::size_t>(grant.core), owner[grant.type].size());
          ASSERT_EQ(++owner[grant.type][grant.core], 1) << "core granted twice";
        }
      }
      for (auto& app : apps) (void)drain(*app);
    }
    EXPECT_GT(metrics.counter_value("rm_solve_incremental_total"), 0u);
  }
}

// A table-less client on a platform far too wide to enumerate (3×1024
// SMT-1 cores: ~1.1·10⁹ coarse points) is activated promptly from the
// bounded fair-share set: per type {0, 1, 2, 4, …, 1024} cores, 12³ − 1 =
// 1727 candidates before the Pareto filter.
TEST(RmServerFairShare, WidePlatformActivatesATablelessClientFromABoundedSet) {
  platform::HardwareDescription hw;
  hw.name = "wide-3x1024";
  for (const char* name : {"A", "B", "C"}) {
    platform::CoreType type;
    type.name = name;
    type.core_count = 1024;
    hw.core_types.push_back(type);
  }
  ASSERT_EQ(platform::coarse_point_count(hw), 1025ull * 1025ull * 1025ull - 1ull);

  const auto start = std::chrono::steady_clock::now();
  core::RmServer rm(hw);
  auto [rm_end, app] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_end));
  ASSERT_TRUE(app->send(ipc::Message(ipc::RegisterRequest{
                            7, "no-table", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  rm.poll(0.0);
  std::optional<ipc::ActivateMsg> activation;
  for (const ipc::Message& m : drain(*app))
    if (const auto* activate = std::get_if<ipc::ActivateMsg>(&m)) activation = *activate;
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ASSERT_TRUE(activation.has_value());
  EXPECT_LT(elapsed_s, 1.0);
  auto in_bounded_set = [](int cores) {
    return cores == 0 || cores == 1024 || (cores & (cores - 1)) == 0;
  };
  for (int t = 0; t < 3; ++t)
    EXPECT_TRUE(in_bounded_set(activation->erv.cores_used(t))) << activation->erv.cores_used(t);
  EXPECT_GT(activation->erv.total_threads(), 0);
  EXPECT_EQ(activation->parallelism, activation->erv.total_threads());
  EXPECT_EQ(static_cast<int>(activation->cores.size()), activation->erv.total_cores());
}

// The fair-share set stays within kMaxFairShareCandidates however many core
// types the description has, where the per-type ladders alone would not: 6
// types of 64 cores give 8⁶ − 1 = 262 143 points, 8×1024 cores 12⁸ − 1 ≈
// 4.3·10⁸, 16 types of 2 cores 3¹⁶ − 1. The shipped platforms, below the
// constant, keep every coarse configuration, and a table-less client on the
// six-type description is activated promptly from the set.
TEST(RmServerFairShare, ManyTypePlatformsStayWithinTheConstant) {
  auto platform_of = [](int types, int cores, int smt) {
    platform::HardwareDescription hw;
    hw.name = "many-types";
    for (int t = 0; t < types; ++t) {
      platform::CoreType type;
      type.name = "T" + std::to_string(t);
      type.core_count = cores;
      type.smt_width = smt;
      hw.core_types.push_back(type);
    }
    return hw;
  };
  for (const platform::HardwareDescription& hw :
       {platform_of(6, 64, 1), platform_of(8, 1024, 1), platform_of(16, 2, 1),
        platform_of(13, 1, 1), platform_of(12, 1, 1), platform_of(5, 256, 2)}) {
    SCOPED_TRACE(std::to_string(hw.core_types.size()) + "x" +
                 std::to_string(hw.core_types.front().core_count));
    const std::vector<platform::ExtendedResourceVector> set = core::fair_share_configurations(hw);
    ASSERT_FALSE(set.empty());
    EXPECT_LE(set.size(), core::kMaxFairShareCandidates);
    EXPECT_GE(set.size(), std::min<std::uint64_t>(platform::coarse_point_count(hw),
                                                  core::kMaxFairShareCandidates / 2));
    std::set<platform::ExtendedResourceVector> distinct(set.begin(), set.end());
    EXPECT_EQ(distinct.size(), set.size());
    for (const platform::ExtendedResourceVector& erv : set) {
      EXPECT_FALSE(erv.is_zero());
      for (int t = 0; t < erv.num_types(); ++t)
        EXPECT_LE(erv.cores_used(t), hw.core_types[static_cast<std::size_t>(t)].core_count);
    }
  }
  for (const platform::HardwareDescription& hw : {platform::raptor_lake(), platform::odroid_xu3e()})
    EXPECT_EQ(core::fair_share_configurations(hw), platform::enumerate_coarse_points(hw));

  const platform::HardwareDescription hw = platform_of(6, 64, 1);
  const std::vector<platform::ExtendedResourceVector> set = core::fair_share_configurations(hw);
  const auto start = std::chrono::steady_clock::now();
  core::RmServer rm(hw);
  auto [rm_end, app] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_end));
  ASSERT_TRUE(app->send(ipc::Message(ipc::RegisterRequest{
                            8, "no-table", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  rm.poll(0.0);
  std::optional<ipc::ActivateMsg> activation;
  for (const ipc::Message& m : drain(*app))
    if (const auto* activate = std::get_if<ipc::ActivateMsg>(&m)) activation = *activate;
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(activation.has_value());
  EXPECT_LT(elapsed_s, 1.0);
  EXPECT_NE(std::find(set.begin(), set.end(), activation->erv), set.end());
}

// An RM built while the process is out of file descriptors has no readiness
// loop. listen() must report that (harpd then exits non-zero) rather than
// bind a socket whose clients no cycle would ever see.
TEST(RmServerListen, FailsWhenTheEventLoopCannotBeCreated) {
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit exhausted = saved;
  exhausted.rlim_cur = 3;  // stdin/stdout/stderr only: no fd left for the wakeup pipe
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &exhausted), 0);
  auto rm = std::make_unique<core::RmServer>(platform::raptor_lake(), rm_options());
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  Status listening = rm->listen(::testing::TempDir() + "harp-no-event-loop.sock");
  ASSERT_FALSE(listening.ok());
  EXPECT_NE(listening.error().message.find("event loop unavailable"), std::string::npos)
      << listening.error().message;
}

// A long-lived app resubmits its table again and again, as rmbench desktop's
// long-lived apps do (16–24 points at 15/s). After an RM restart its replay
// must still restore the table: the RM keeps the latest point per ERV, so
// the replay needs only that, while the whole submission history — 100 800
// points here — is more than the decoder accepts in one message.
TEST(FaultReplay, RestartedRmRegainsALongLivedAppsTable) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  App* app = world.spawn(app_config("veteran", 3, 1), FaultPlan::clean());
  // 24 points; utilities end in .5, so none equals a fair-share point's
  // (utility = thread count).
  std::vector<ipc::OperatingPointsMsg::Point> table;
  for (int p = 0; p < 6; ++p)
    for (int e = 1; e <= 4; ++e)
      table.push_back({platform::ExtendedResourceVector::from_threads(hw, {p, e}),
                       10.0 * (p + e) + 0.5, 2.0 + p + e});
  world.run(0.5);
  ASSERT_TRUE(app->client->registered());
  for (int i = 0; i < 4200; ++i) {
    ASSERT_TRUE(app->client->submit_operating_points(table).ok());
    if (i % 200 == 199) world.step(0.05);
  }
  world.run(0.5);

  world.restart_rm();
  world.run(3.0);
  ASSERT_TRUE(app->client->registered());
  EXPECT_EQ(app->client->reconnect_count(), 1);
  std::optional<core::OperatingPoint> held = world.rm().current_point("veteran");
  ASSERT_TRUE(held.has_value());
  bool from_table = false;
  for (const ipc::OperatingPointsMsg::Point& point : table)
    from_table |= point.erv == held->erv && point.utility == held->nfc.utility;
  EXPECT_TRUE(from_table) << "the restarted RM holds a fair-share point ("
                          << held->erv.to_string(hw) << "), not one of the app's";
}

// ---------------------------------------------------------------------------
// Telemetry over fault scenarios
// ---------------------------------------------------------------------------

/// One scripted fault scenario — flaky links, an RM restart, an app crash —
/// returning the full JSONL trace of everything the world observed.
std::string scripted_scenario_trace() {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  App* a = world.spawn(app_config("alpha", 11, 5), flaky(5));
  EXPECT_TRUE(a->client->submit_operating_points(two_points(hw)).ok());
  App* b = world.spawn(app_config("beta", 22, 6), flaky(37), flaky(91));
  EXPECT_TRUE(b->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.5);
  world.restart_rm();
  world.run(2.0);
  world.crash(*b);
  world.run(2.5);
  EXPECT_TRUE(a->client->registered());
  EXPECT_EQ(world.tracer().dropped(), 0u);  // ring sized for the whole scenario
  return telemetry::to_jsonl(world.tracer().events());
}

// Acceptance criterion: traces are a pure function of the scenario — two
// fresh worlds driven through the same scripted timeline export
// byte-identical JSONL (timestamps come from the virtual clock, fault
// decisions from seeded PRNGs; no wall clock anywhere).
TEST(TelemetryDeterminism, SameScenarioExportsByteIdenticalTrace) {
  std::string first = scripted_scenario_trace();
  std::string second = scripted_scenario_trace();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The trace is substantive, not vacuously equal: it saw faults, the link
  // lifecycle, and allocation traffic.
  EXPECT_NE(first.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(first.find("\"reconnect\""), std::string::npos);
  EXPECT_NE(first.find("\"alloc_cycle\""), std::string::npos);
  EXPECT_NE(first.find("\"grant\""), std::string::npos);
}

// Satellite criterion: telemetry counters must agree with the scripted fault
// schedule exactly — three scripted drops produce frames_dropped_total == 3
// (probabilities are all zero, and the link never redials so the script
// fires once).
TEST(TelemetryCounters, ScriptedDropsMatchDroppedFramesCounter) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  FaultPlan plan;  // script-only: three drops, nothing else, ever
  plan.script = {{1, FaultKind::kDrop}, {3, FaultKind::kDrop}, {6, FaultKind::kDrop}};
  App* app = world.spawn(app_config("dropper", 1, 1), plan);
  ASSERT_TRUE(app->client->submit_operating_points(two_points(hw)).ok());
  world.run(3.0);  // heartbeats every 0.2 s push the send count well past 6
  ASSERT_TRUE(app->client->registered());
  ASSERT_EQ(app->client->reconnect_count(), 0);

  EXPECT_EQ(world.metrics().counter_value("frames_dropped_total"), 3u);
  EXPECT_EQ(world.metrics().counter_value("faults_injected_total"), 3u);
  std::size_t fault_events = 0;
  for (const telemetry::TraceEvent& event : world.tracer().events())
    if (event.type == telemetry::EventType::kFaultInjected) ++fault_events;
  EXPECT_EQ(fault_events, 3u);
}

// Satellite criterion: every scripted RM outage causes exactly one reconnect
// per client on a clean link, and the registry counter agrees with the
// clients' own books.
TEST(TelemetryCounters, RmRestartsMatchReconnectCounter) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  App* a = world.spawn(app_config("alpha", 1, 1), FaultPlan::clean());
  ASSERT_TRUE(a->client->submit_operating_points(two_points(hw)).ok());
  App* b = world.spawn(app_config("beta", 2, 2), FaultPlan::clean());
  ASSERT_TRUE(b->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(a->client->registered());
  ASSERT_TRUE(b->client->registered());

  world.restart_rm();
  world.run(2.0);
  world.restart_rm();
  world.run(2.0);

  EXPECT_EQ(a->client->reconnect_count(), 2);
  EXPECT_EQ(b->client->reconnect_count(), 2);
  EXPECT_EQ(world.metrics().counter_value("client_reconnects_total"), 4u);
  EXPECT_EQ(world.metrics().counter_value("client_link_down_total"), 4u);
}

}  // namespace
}  // namespace harp
