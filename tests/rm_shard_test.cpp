// Tests for the sharded multi-RM scale-out (src/harp/rm_shard.hpp): budget
// conservation across rebalances, λ-drift core migration, a seeded churn
// oracle that no core is ever granted to two live apps across shards,
// per-shard fault/lease isolation, shard telemetry, and a threaded smoke
// run. Also registered under the `race` ctest label so the HARP_RACE_CHECK /
// TSan CI job runs the whole suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/harp/rm_shard.hpp"
#include "src/platform/hardware.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::core {
namespace {

using ipc::ActivateMsg;
using ipc::Message;
using ipc::OperatingPointsMsg;
using ipc::RegisterRequest;

/// The app-side half of one simulated client plus everything it received.
struct TestClient {
  std::unique_ptr<ipc::Channel> app;
  std::vector<ActivateMsg> activations;
  int acks = 0;
};

OperatingPointsMsg::Point point(const platform::HardwareDescription& hw, int p_threads,
                                int e_threads, double utility, double power_w) {
  return {platform::ExtendedResourceVector::from_threads(hw, {p_threads, e_threads}), utility,
          power_w};
}

/// Queue a registration (and optional points) on a fresh in-process pair;
/// returns the app end and hands the RM end back through `rm_end`.
TestClient make_client(const std::string& name, int pid,
                       const std::vector<OperatingPointsMsg::Point>& points,
                       std::unique_ptr<ipc::Channel>* rm_end) {
  auto [server_end, app_end] = ipc::make_in_process_pair();
  RegisterRequest reg;
  reg.pid = pid;
  reg.app_name = name;
  EXPECT_TRUE(app_end->send(Message(reg)).ok());
  if (!points.empty()) {
    OperatingPointsMsg msg;
    msg.points = points;
    EXPECT_TRUE(app_end->send(Message(msg)).ok());
  }
  *rm_end = std::move(server_end);
  return TestClient{std::move(app_end), {}, 0};
}

/// Drain everything pending on a client's app end into its record. Stops
/// cleanly if the server dropped the client (peer closed).
void drain(TestClient& client) {
  for (;;) {
    auto polled = client.app->poll();
    if (!polled.ok() || !polled.value().has_value()) return;
    const Message& message = *polled.value();
    if (std::holds_alternative<ActivateMsg>(message))
      client.activations.push_back(std::get<ActivateMsg>(message));
    else if (std::holds_alternative<ipc::RegisterAck>(message))
      ++client.acks;
  }
}

/// Assert the per-shard budgets partition the platform exactly: for every
/// core type, the union of owned ids across shards is {0..count-1} with no
/// overlap — the conservation invariant after any number of rebalances.
void expect_partition(const std::vector<std::vector<std::vector<int>>>& budgets,
                      const platform::HardwareDescription& hw) {
  ASSERT_FALSE(budgets.empty());
  for (std::size_t t = 0; t < hw.core_types.size(); ++t) {
    std::vector<int> owned;
    for (const auto& shard : budgets) {
      ASSERT_GT(shard.size(), t);
      owned.insert(owned.end(), shard[t].begin(), shard[t].end());
    }
    std::sort(owned.begin(), owned.end());
    ASSERT_EQ(owned.size(), static_cast<std::size_t>(hw.core_types[t].core_count))
        << "type " << hw.core_types[t].name;
    for (int c = 0; c < hw.core_types[t].core_count; ++c)
      EXPECT_EQ(owned[static_cast<std::size_t>(c)], c) << "type " << hw.core_types[t].name;
  }
}

TEST(ShardedRm, InitialBudgetsPartitionPlatform) {
  platform::HardwareDescription hw = platform::raptor_lake();
  ShardedRmOptions options;
  options.num_shards = 3;
  ShardedRmServer rm(hw, options);
  EXPECT_EQ(rm.shard_count(), 3);
  expect_partition(rm.budgets(), hw);
}

TEST(ShardedRm, RoundRobinAdoptionSpreadsClients) {
  platform::HardwareDescription hw = platform::raptor_lake();
  ShardedRmOptions options;
  options.num_shards = 2;
  ShardedRmServer rm(hw, options);
  for (int i = 0; i < 5; ++i) {
    auto [server_end, app_end] = ipc::make_in_process_pair();
    rm.adopt_channel(std::move(server_end));
    (void)app_end;  // closing the app end is fine; adoption already happened
  }
  EXPECT_EQ(rm.client_count(), 5u);
  EXPECT_EQ(rm.shard(0).client_count(), 3u);
  EXPECT_EQ(rm.shard(1).client_count(), 2u);
}

// λ-drift rebalancing: pile contended clients onto shard 0 while shard 1
// idles; after the hysteresis window one core must migrate toward the
// contention, and the budgets must remain an exact partition throughout.
TEST(ShardedRm, LambdaDriftMovesCoreTowardContention) {
  platform::HardwareDescription hw = platform::raptor_lake();
  int p_type = hw.type_index("P");
  ASSERT_GE(p_type, 0);

  ShardedRmOptions options;
  options.num_shards = 2;
  options.rebalance_min_cycles = 3;
  options.lambda_drift_threshold = 0.25;
  options.server.lease_seconds = 0;
  ShardedRmServer rm(hw, options);

  std::size_t shard0_p_cores_before =
      rm.budgets()[0][static_cast<std::size_t>(p_type)].size();

  // Six clients, all on shard 0, each wanting most of the shard's P threads
  // (with a cheap fallback so the shard solve stays feasible).
  std::vector<TestClient> clients;
  for (int c = 0; c < 6; ++c) {
    std::unique_ptr<ipc::Channel> rm_end;
    clients.push_back(make_client("hot" + std::to_string(c), 200 + c,
                                  {point(hw, 8, 0, 100.0, 40.0), point(hw, 1, 0, 5.0, 5.0)},
                                  &rm_end));
    rm.adopt_into_shard(0, std::move(rm_end));
  }

  for (int cycle = 0; cycle < 12 && rm.rebalances() == 0; ++cycle) {
    rm.poll(static_cast<double>(cycle));
    expect_partition(rm.budgets(), hw);
  }
  ASSERT_GE(rm.rebalances(), 1u);
  expect_partition(rm.budgets(), hw);
  EXPECT_GT(rm.budgets()[0][static_cast<std::size_t>(p_type)].size(), shard0_p_cores_before);
}

// A misbehaving client must be cut by its own shard without disturbing
// clients on other shards.
TEST(ShardedRm, FaultyClientIsIsolatedToItsShard) {
  platform::HardwareDescription hw = platform::raptor_lake();
  ShardedRmOptions options;
  options.num_shards = 2;
  options.server.max_malformed_frames = 3;
  options.server.lease_seconds = 0;
  ShardedRmServer rm(hw, options);

  // Bad client on shard 0: a stream of garbage frames.
  auto [bad_rm_end, bad_app_end] = ipc::make_in_process_pair();
  std::vector<std::uint8_t> garbage(16, 0xEE);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(bad_app_end->send_raw(garbage).ok());
  rm.adopt_into_shard(0, std::move(bad_rm_end));

  // Good client on shard 1.
  std::unique_ptr<ipc::Channel> good_rm_end;
  TestClient good = make_client("good", 300, {point(hw, 2, 0, 10.0, 5.0)}, &good_rm_end);
  rm.adopt_into_shard(1, std::move(good_rm_end));

  rm.poll(0.0);
  rm.poll(0.0);
  EXPECT_EQ(rm.shard(0).client_count(), 0u);  // struck out after 3 bad frames
  EXPECT_EQ(rm.shard(1).client_count(), 1u);
  drain(good);
  EXPECT_EQ(good.acks, 1);
  EXPECT_FALSE(good.activations.empty());
}

TEST(ShardedRm, LeaseEvictionRunsPerShard) {
  platform::HardwareDescription hw = platform::raptor_lake();
  ShardedRmOptions options;
  options.num_shards = 2;
  options.server.lease_seconds = 5.0;
  ShardedRmServer rm(hw, options);

  std::vector<TestClient> clients;
  for (int c = 0; c < 2; ++c) {
    std::unique_ptr<ipc::Channel> rm_end;
    clients.push_back(make_client("quiet" + std::to_string(c), 400 + c,
                                  {point(hw, 1, 0, 10.0, 5.0)}, &rm_end));
    rm.adopt_into_shard(c, std::move(rm_end));
  }
  rm.poll(0.0);
  EXPECT_EQ(rm.client_count(), 2u);

  rm.poll(100.0);  // 100 s of silence >> the 5 s lease
  EXPECT_EQ(rm.client_count(), 0u);
  EXPECT_EQ(rm.shard(0).lease_evictions(), 1u);
  EXPECT_EQ(rm.shard(1).lease_evictions(), 1u);
}

TEST(ShardedRm, EmitsShardTelemetryAndMetrics) {
  platform::HardwareDescription hw = platform::raptor_lake();
  telemetry::ManualClock clock;
  telemetry::Tracer tracer(&clock);
  telemetry::MetricsRegistry metrics;

  ShardedRmOptions options;
  options.num_shards = 2;
  options.server.lease_seconds = 0;
  options.server.tracer = &tracer;
  options.server.metrics = &metrics;
  ShardedRmServer rm(hw, options);

  // One client per shard (round-robin), so each shard runs its own solve.
  std::vector<TestClient> clients;
  for (int c = 0; c < 2; ++c) {
    std::unique_ptr<ipc::Channel> rm_end;
    clients.push_back(make_client("traced" + std::to_string(c), 500 + c,
                                  {point(hw, 2, 0, 10.0, 5.0)}, &rm_end));
    rm.adopt_channel(std::move(rm_end));
  }
  rm.poll(0.0);
  clock.advance(0.1);
  rm.poll(0.1);

  // Each alloc_cycle span must sit inside the shard_cycle span of the shard
  // that solved it.
  int shard_cycle_begins = 0, shard_cycle_ends = 0;
  std::set<std::string> solved_in;
  std::string open_shard;
  for (const telemetry::TraceEvent& event : tracer.events()) {
    if (event.type == telemetry::EventType::kShardCycle) {
      if (event.phase == telemetry::Phase::kBegin) {
        ++shard_cycle_begins;
        open_shard = event.scope;
      }
      if (event.phase == telemetry::Phase::kEnd) {
        ++shard_cycle_ends;
        open_shard.clear();
      }
    }
    if (event.type == telemetry::EventType::kAllocCycle &&
        event.phase == telemetry::Phase::kBegin) {
      EXPECT_FALSE(open_shard.empty()) << "alloc_cycle outside any shard cycle";
      solved_in.insert(open_shard);
    }
  }
  EXPECT_EQ(shard_cycle_begins, shard_cycle_ends);
  EXPECT_GE(shard_cycle_begins, 4);  // 2 shards x 2 polls
  EXPECT_EQ(solved_in, (std::set<std::string>{"shard0", "shard1"}));

  std::string snapshot = metrics.text_snapshot();
  EXPECT_NE(snapshot.find("rm_eventloop_cycles_total"), std::string::npos);
  EXPECT_NE(snapshot.find("rm_eventloop_ready_fds"), std::string::npos);
  EXPECT_NE(snapshot.find("rm_shard_rebalances_total"), std::string::npos);
  EXPECT_NE(snapshot.find("rm_cycle_seconds_shard0"), std::string::npos);
  EXPECT_NE(snapshot.find("rm_cycle_seconds_shard1"), std::string::npos);
}

// Joint-grant oracle under seeded churn: registrations (most of them onto
// shard 0, so λ drifts and cores move), resubmissions and departures. After
// every lockstep poll, the latest activation each live client holds must
// never share a (type, core) with another's, and no type may be granted past
// its capacity — across shards, whatever the budgets did in between. Every
// table carries a one-thread point and at most 12 apps live on the 24-core
// platform, so most shard solves grant cores instead of co-allocating.
TEST(ShardedRm, LiveClientsNeverShareACoreUnderChurn) {
  platform::HardwareDescription hw = platform::raptor_lake();
  std::uint64_t total_rebalances = 0;
  std::uint64_t granted_holders = 0;  // (step, live app holding cores) pairs checked
  for (int seed = 1; seed <= 64; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull + 5);
    ShardedRmOptions options;
    options.num_shards = rng.uniform_int(2, 4);
    options.rebalance_min_cycles = 2;
    options.lambda_drift_threshold = 0.1;
    options.server.lease_seconds = 0;
    ShardedRmServer rm(hw, options);

    auto random_points = [&] {
      std::vector<OperatingPointsMsg::Point> points{point(hw, 0, 1, 1.0, 0.5)};
      for (int p = rng.uniform_int(1, 3); p > 0; --p) {
        int p_threads = rng.uniform_int(0, 8);
        int e_threads = rng.uniform_int(0, 8);
        if (p_threads == 0 && e_threads == 0) e_threads = 1;
        points.push_back(point(hw, p_threads, e_threads, 1.0 + rng.uniform_int(0, 99),
                               1.0 + rng.uniform_int(0, 49)));
      }
      return points;
    };

    std::vector<TestClient> live;
    int next_pid = 1;
    for (int step = 0; step < 80; ++step) {
      const double action = rng.uniform();
      if (live.empty() || (action < 0.45 && live.size() < 12)) {
        std::unique_ptr<ipc::Channel> rm_end;
        const int pid = next_pid++;
        live.push_back(make_client("churn" + std::to_string(pid), pid, random_points(), &rm_end));
        if (rng.uniform() < 0.75)
          rm.adopt_into_shard(0, std::move(rm_end));
        else
          rm.adopt_channel(std::move(rm_end));
      } else if (action < 0.8) {
        OperatingPointsMsg msg;
        msg.points = random_points();
        TestClient& client =
            live[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1))];
        ASSERT_TRUE(client.app->send(Message(msg)).ok());
      } else {
        const std::size_t leaving =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1));
        ASSERT_TRUE(live[leaving].app->send(Message(ipc::Deregister{})).ok());
        live.erase(live.begin() + static_cast<long>(leaving));
      }
      rm.poll(static_cast<double>(step));

      std::set<std::pair<int, int>> held;  // (type, core)
      std::vector<int> per_type(hw.core_types.size(), 0);
      for (TestClient& client : live) {
        drain(client);
        if (client.activations.empty()) continue;
        if (!client.activations.back().cores.empty()) ++granted_holders;
        for (const ActivateMsg::CoreGrant& grant : client.activations.back().cores) {
          ASSERT_TRUE(held.insert({grant.type, grant.core}).second)
              << "seed " << seed << " step " << step << ": core (" << grant.type << ", "
              << grant.core << ") held by two live apps";
          ++per_type[static_cast<std::size_t>(grant.type)];
        }
      }
      for (std::size_t t = 0; t < per_type.size(); ++t)
        ASSERT_LE(per_type[t], hw.core_types[t].core_count)
            << "seed " << seed << " step " << step << " type " << t;
      expect_partition(rm.budgets(), hw);
    }
    total_rebalances += rm.rebalances();
  }
  EXPECT_GE(total_rebalances, 1u);
  EXPECT_GT(granted_holders, 0u);
}

// Threaded smoke: shards on their own blocking threads must accept
// cross-thread adoptions (wakeup path) and deliver activations end to end.
// Bounded wall-clock wait; also exercised under TSan via the `race` label.
TEST(ShardedRm, ThreadedShardsDeliverActivations) {
  platform::HardwareDescription hw = platform::raptor_lake();
  ShardedRmOptions options;
  options.num_shards = 2;
  options.server.lease_seconds = 0;
  ShardedRmServer rm(hw, options);
  rm.start_threads();

  std::vector<TestClient> clients;
  for (int c = 0; c < 4; ++c) {
    std::unique_ptr<ipc::Channel> rm_end;
    clients.push_back(make_client("threaded" + std::to_string(c), 600 + c,
                                  {point(hw, 2, 2, 10.0 + c, 5.0)}, &rm_end));
    rm.adopt_channel(std::move(rm_end));
  }

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool all_activated = false;
  while (!all_activated && std::chrono::steady_clock::now() < deadline) {
    all_activated = true;
    for (TestClient& client : clients) {
      drain(client);
      if (client.activations.empty()) all_activated = false;
    }
    if (!all_activated) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rm.stop_threads();
  EXPECT_TRUE(all_activated);
  for (TestClient& client : clients) EXPECT_EQ(client.acks, 1);
}

}  // namespace
}  // namespace harp::core
