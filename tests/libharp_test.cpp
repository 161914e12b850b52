// Integration tests for libharp + the RM daemon: the full Fig. 3 control
// flow over the in-process transport and real sockets, with the RM on its own
// thread in harpd's loop. Also registered under the `race` ctest label, so
// the HARP_RACE_CHECK / TSan CI job runs the whole suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "src/harp/dse.hpp"
#include "src/harp/rm_server.hpp"
#include "src/libharp/client.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"

namespace harp {
namespace {

/// Drives an RmServer from a helper thread so blocking client calls (the
/// registration handshake) can complete in a single-process test. The thread
/// runs harpd's loop (tools/harpd.cpp): it blocks in poll(now, timeout) until
/// readiness or the next utility tick, and stops on a flag plus wakeup(). So
/// the tests adopt channels and listen() while the RM blocks, and an unseen
/// wakeup stalls the RM until its next tick, past the tests' waits.
class RmHarness {
 public:
  explicit RmHarness(platform::HardwareDescription hw) : rm_(std::move(hw)) {
    thread_ = std::thread([this] {
      const double tick_s = core::RmServerOptions{}.utility_poll_interval_s;
      double next_tick = tick_s;
      auto t0 = std::chrono::steady_clock::now();
      while (!stop_.load()) {
        double now =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        bool tick = now >= next_tick;
        rm_.poll(now, tick ? 0 : static_cast<int>(std::ceil((next_tick - now) * 1e3)));
        if (tick) next_tick = now + tick_s;
      }
    });
  }
  ~RmHarness() {
    stop_ = true;
    rm_.wakeup();
    thread_.join();
  }
  core::RmServer& rm() { return rm_; }

 private:
  core::RmServer rm_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::vector<ipc::OperatingPointsMsg::Point> table_points(
    const core::OperatingPointTable& table) {
  std::vector<ipc::OperatingPointsMsg::Point> out;
  for (const core::OperatingPoint& p : table.points(0))
    out.push_back({p.erv, p.nfc.utility, p.nfc.power_w});
  return out;
}

TEST(LibharpClient, RegistersOverChannel) {
  RmHarness harness(platform::raptor_lake());
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  harness.rm().adopt_channel(std::move(rm_end));

  client::Config config;
  config.app_name = "demo";
  auto connected = client::HarpClient::over_channel(std::move(app_end), config);
  ASSERT_TRUE(connected.ok()) << connected.error().message;
  EXPECT_GE(connected.value()->app_id(), 1);
  EXPECT_EQ(connected.value()->app_name(), "demo");
  // Allow the RM to count the client before checking.
  for (int i = 0; i < 100 && harness.rm().client_count() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(harness.rm().client_count(), 1u);
}

TEST(LibharpClient, ValidatesConfig) {
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  (void)rm_end;
  client::Config config;  // missing app_name
  EXPECT_FALSE(client::HarpClient::over_channel(std::move(app_end), config).ok());

  auto [rm_end2, app_end2] = ipc::make_in_process_pair();
  (void)rm_end2;
  client::Config wants_utility;
  wants_utility.app_name = "x";
  wants_utility.provides_utility = true;  // …but no provider callback
  EXPECT_FALSE(client::HarpClient::over_channel(std::move(app_end2), wants_utility).ok());
}

TEST(LibharpClient, ReceivesActivationAfterSubmittingPoints) {
  platform::HardwareDescription hw = platform::raptor_lake();
  RmHarness harness(hw);
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  harness.rm().adopt_channel(std::move(rm_end));

  client::Config config;
  config.app_name = "mg.C";
  config.adaptivity = ipc::WireAdaptivity::kScalable;
  auto connected = client::HarpClient::over_channel(std::move(app_end), config);
  ASSERT_TRUE(connected.ok());
  auto client = std::move(connected).take();

  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  core::OperatingPointTable table = core::run_offline_dse(catalog.app("mg.C"), hw);
  ASSERT_TRUE(client->submit_operating_points(table_points(table)).ok());

  // Wait for the answer to the points, not for the fair-share grant sent at
  // registration: the RM holds one of the submitted points (its utility and
  // power, not the fair-share estimate) and the client holds its ERV. A
  // blocked RM that missed the points' wakeup would answer only at its next
  // utility tick, 1 s later.
  auto answered = [&] {
    std::optional<core::OperatingPoint> held = harness.rm().current_point("mg.C");
    std::optional<client::Activation> activation = client->current_activation();
    if (!held.has_value() || !activation.has_value() || !(activation->erv == held->erv))
      return false;
    for (const core::OperatingPoint& p : table.points(0))
      if (p.erv == held->erv)
        return p.nfc.utility == held->nfc.utility && p.nfc.power_w == held->nfc.power_w;
    return false;
  };
  for (int i = 0; i < 500 && !answered(); ++i) {
    (void)client->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(answered());
  client::Activation activation = *client->current_activation();
  EXPECT_GT(activation.parallelism, 0);
  EXPECT_FALSE(activation.cores.empty());
  EXPECT_TRUE(activation.erv.fits(hw));
  EXPECT_EQ(client->recommended_parallelism(1), activation.parallelism);
  // §4.1.3: the hook takes the max of user request and RM assignment.
  EXPECT_EQ(client->recommended_parallelism(64), 64);
}

TEST(LibharpClient, CustomCallbackInvokedOnActivation) {
  platform::HardwareDescription hw = platform::odroid_xu3e();
  RmHarness harness(hw);
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  harness.rm().adopt_channel(std::move(rm_end));

  int activations = 0;
  client::Callbacks callbacks;
  callbacks.on_activate = [&](const client::Activation&) { ++activations; };
  client::Config config;
  config.app_name = "mandelbrot";
  config.adaptivity = ipc::WireAdaptivity::kCustom;
  auto connected =
      client::HarpClient::over_channel(std::move(app_end), config, std::move(callbacks));
  ASSERT_TRUE(connected.ok());
  auto client = std::move(connected).take();
  ASSERT_TRUE(client
                  ->submit_operating_points(
                      {{platform::ExtendedResourceVector::from_threads(hw, {4, 0}), 100.0, 6.0},
                       {platform::ExtendedResourceVector::from_threads(hw, {0, 4}), 50.0, 1.2}})
                  .ok());
  for (int i = 0; i < 500 && activations == 0; ++i) {
    (void)client->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(activations, 1);
  EXPECT_TRUE(client->current_activation()->rebalance);  // custom apps rebalance
}

TEST(LibharpClient, UtilityFeedbackReachesRm) {
  platform::HardwareDescription hw = platform::raptor_lake();
  RmHarness harness(hw);
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  harness.rm().adopt_channel(std::move(rm_end));

  client::Callbacks callbacks;
  callbacks.utility_provider = [] { return 321.5; };
  client::Config config;
  config.app_name = "vgg";
  config.provides_utility = true;
  auto connected =
      client::HarpClient::over_channel(std::move(app_end), config, std::move(callbacks));
  ASSERT_TRUE(connected.ok());
  auto client = std::move(connected).take();

  // The RM polls utility on its interval (default 1 s); pump the client.
  for (int i = 0; i < 3000 && harness.rm().last_utility("vgg") == 0.0; ++i) {
    (void)client->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_DOUBLE_EQ(harness.rm().last_utility("vgg"), 321.5);
}

TEST(LibharpClient, TwoClientsGetDisjointGrants) {
  platform::HardwareDescription hw = platform::raptor_lake();
  RmHarness harness(hw);
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();

  auto make_client = [&](const std::string& name) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    harness.rm().adopt_channel(std::move(rm_end));
    client::Config config;
    config.app_name = name;
    auto connected = client::HarpClient::over_channel(std::move(app_end), config);
    EXPECT_TRUE(connected.ok());
    auto client = std::move(connected).take();
    core::OperatingPointTable table = core::run_offline_dse(catalog.app(name), hw);
    EXPECT_TRUE(client->submit_operating_points(table_points(table)).ok());
    return client;
  };
  auto a = make_client("ep.C");
  auto b = make_client("mg.C");

  for (int i = 0; i < 1000; ++i) {
    (void)a->poll();
    (void)b->poll();
    if (a->current_activation().has_value() && b->current_activation().has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(a->current_activation().has_value());
  ASSERT_TRUE(b->current_activation().has_value());

  std::set<std::pair<int, int>> cores;
  for (const client::Activation& activation : {*a->current_activation(), *b->current_activation()})
    for (const ipc::ActivateMsg::CoreGrant& grant : activation.cores)
      EXPECT_TRUE(cores.insert({grant.type, grant.core}).second)
          << "core granted to both applications";
}

TEST(LibharpClient, DeregisterDropsClient) {
  RmHarness harness(platform::raptor_lake());
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  harness.rm().adopt_channel(std::move(rm_end));
  client::Config config;
  config.app_name = "temp";
  auto connected = client::HarpClient::over_channel(std::move(app_end), config);
  ASSERT_TRUE(connected.ok());
  auto client = std::move(connected).take();
  for (int i = 0; i < 100 && harness.rm().client_count() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(client->deregister().ok());
  for (int i = 0; i < 500 && harness.rm().client_count() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(harness.rm().client_count(), 0u);
}

TEST(LibharpClient, DeregisterOnHalfOpenChannelDoesNotBlock) {
  // Regression: the destructor calls deregister(); when the RM side is gone
  // the Deregister notice cannot be delivered, and the call must neither
  // block nor fail — the RM reclaims the grant via its lease instead.
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  client::Config config;
  config.app_name = "orphan";
  auto made = client::HarpClient::deferred(std::move(app_end), config);
  ASSERT_TRUE(made.ok()) << made.error().message;
  auto client = std::move(made).take();

  rm_end->close();  // the RM died; the link is now half-open
  (void)client->poll(0.0);

  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(client->deregister().ok());
  client.reset();  // destructor must be a no-op after explicit deregister
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 0.5) << "deregister/destructor blocked on a dead link";
}

TEST(LibharpClient, DestructorSurvivesUnregisteredHalfOpenLink) {
  // Same, but the destructor itself performs the deregistration — and the
  // handshake never completed, so every link state is exercised.
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  client::Config config;
  config.app_name = "orphan2";
  auto made = client::HarpClient::deferred(std::move(app_end), config);
  ASSERT_TRUE(made.ok());
  auto client = std::move(made).take();
  EXPECT_FALSE(client->registered());  // ack never arrived
  rm_end->close();

  auto t0 = std::chrono::steady_clock::now();
  client.reset();
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 0.5);
}

TEST(RmServer, BlockedPollStopsOnWakeup) {
  // harpd's shutdown: the stop flag plus wakeup() must end a poll that is
  // blocked until the next utility tick (1 s away) at once.
  auto harness = std::make_unique<RmHarness>(platform::raptor_lake());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the RM block
  auto t0 = std::chrono::steady_clock::now();
  harness.reset();
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 0.5) << "the blocked poll did not see the shutdown wakeup";
}

TEST(RmServer, FullStackOverUnixSocket) {
  std::string path = ::testing::TempDir() + "/harp_rm_test.sock";
  platform::HardwareDescription hw = platform::raptor_lake();
  RmHarness harness(hw);
  ASSERT_TRUE(harness.rm().listen(path).ok());

  client::Config config;
  config.app_name = "socket-app";
  auto connected = client::HarpClient::connect(path, config);
  ASSERT_TRUE(connected.ok()) << connected.error().message;
  auto client = std::move(connected).take();
  // Without a description file the RM still activates a fair-share grant.
  for (int i = 0; i < 1000 && !client->current_activation().has_value(); ++i) {
    (void)client->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(client->current_activation().has_value());
}

}  // namespace
}  // namespace harp
