// Tests for operating points, tables, the energy-utility cost (Eq. 2), EMA
// smoothing, serialisation (application description files), and offline DSE.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/harp/dse.hpp"
#include "src/harp/operating_point.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"

namespace harp::core {
namespace {

/// Parse a JSON literal the test knows is syntactically valid; fails the
/// test (and returns null) on a parse error instead of touching the Result.
json::Value doc(const std::string& text) {
  Result<json::Value> r = json::parse(text);
  EXPECT_TRUE(r.ok()) << "parse failed: " << text;
  if (!r.ok()) return json::Value();
  return std::move(r).take();
}

platform::HardwareDescription hw() { return platform::raptor_lake(); }

platform::ExtendedResourceVector erv(int p, int e) {
  return platform::ExtendedResourceVector::from_threads(hw(), {p, e});
}

TEST(Cost, MatchesEquationTwo) {
  // ζ = (p / v*) · (1 / v*), with v* = v / v_max.
  NonFunctional nfc{20.0, 50.0};
  double v_star = 20.0 / 40.0;
  EXPECT_NEAR(energy_utility_cost(nfc, 40.0), (50.0 / v_star) * (1.0 / v_star), 1e-12);
}

TEST(Cost, LowerForEfficientPoints) {
  // Same utility, less power → lower cost; same power, more utility → lower.
  EXPECT_LT(energy_utility_cost({20.0, 30.0}, 40.0), energy_utility_cost({20.0, 50.0}, 40.0));
  EXPECT_LT(energy_utility_cost({30.0, 50.0}, 40.0), energy_utility_cost({20.0, 50.0}, 40.0));
}

TEST(Cost, GuardsDegenerateInput) {
  EXPECT_THROW(energy_utility_cost({1.0, 1.0}, 0.0), CheckFailure);
  // Non-positive utility is clamped rather than dividing by zero.
  EXPECT_TRUE(std::isfinite(energy_utility_cost({0.0, 5.0}, 10.0)));
}

TEST(Cost, NeverNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Zero power beside a huge utility maximum: 1/v* overflows, and the
  // formula alone would give 0·∞ = NaN.
  EXPECT_EQ(energy_utility_cost({0.0, 0.0}, 1e300), 0.0);
  EXPECT_EQ(energy_utility_cost({0.0, 0.0}, std::numeric_limits<double>::max()), 0.0);
  EXPECT_EQ(energy_utility_cost({0.0, 1.0}, 1e300), inf);
  // Non-finite characteristics (never accepted from the wire) cost +∞.
  EXPECT_EQ(energy_utility_cost({nan, 1.0}, 10.0), inf);
  EXPECT_EQ(energy_utility_cost({1.0, nan}, 10.0), inf);
  EXPECT_EQ(energy_utility_cost({inf, 1.0}, inf), inf);
}

TEST(Cost, BitIdenticalToEquationTwoOnOrdinaryInputs) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double utility_max = rng.uniform(1e-6, 1e6);
    const NonFunctional nfc{rng.uniform(0.0, utility_max), rng.uniform(0.0, 500.0)};
    const double v_star = std::max(nfc.utility, 1e-9) / utility_max;
    const double expected = (nfc.power_w / v_star) * (1.0 / v_star);
    const double got = energy_utility_cost(nfc, utility_max);
    ASSERT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0) << nfc.utility << " " << nfc.power_w;
  }
}

TEST(Table, RecordAppliesEmaSmoothing) {
  OperatingPointTable table("app");
  table.record_measurement(erv(2, 0), 10.0, 5.0);
  table.record_measurement(erv(2, 0), 20.0, 5.0);
  const OperatingPoint* p = table.find(erv(2, 0));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->measurements, 2);
  // α = 0.1: 0.1·20 + 0.9·10 = 11.
  EXPECT_NEAR(p->nfc.utility, 11.0, 1e-12);
}

TEST(Table, SetPointSeedsEma) {
  OperatingPointTable table("app");
  table.set_point(erv(1, 1), NonFunctional{30.0, 12.0});
  EXPECT_EQ(table.find(erv(1, 1))->measurements, 0);
  table.record_measurement(erv(1, 1), 40.0, 12.0);
  EXPECT_NEAR(table.find(erv(1, 1))->nfc.utility, 31.0, 1e-12);  // smooths from 30
}

TEST(Table, UtilityMaxAndCost) {
  OperatingPointTable table("app");
  table.set_point(erv(2, 0), NonFunctional{10.0, 8.0});
  table.set_point(erv(8, 16), NonFunctional{40.0, 90.0});
  EXPECT_DOUBLE_EQ(table.utility_max(), 40.0);
  const OperatingPoint* big = table.find(erv(8, 16));
  EXPECT_NEAR(table.cost_of(*big), 90.0, 1e-12);  // v* = 1
}

TEST(Table, PointsFilterByMeasurements) {
  OperatingPointTable table("app");
  table.set_point(erv(1, 0), NonFunctional{1.0, 1.0});
  for (int i = 0; i < 20; ++i) table.record_measurement(erv(0, 4), 5.0, 3.0);
  EXPECT_EQ(table.points(0).size(), 2u);
  EXPECT_EQ(table.points(1).size(), 1u);
  EXPECT_EQ(table.points(20).size(), 1u);
  EXPECT_EQ(table.points(21).size(), 0u);
}

TEST(Table, JsonRoundTrip) {
  OperatingPointTable table("mg.C");
  table.set_point(erv(1, 16), NonFunctional{22.0, 28.0});
  for (int i = 0; i < 3; ++i) table.record_measurement(erv(8, 16), 30.0, 60.0);
  auto restored = OperatingPointTable::from_json(table.to_json());
  ASSERT_TRUE(restored.ok());
  const OperatingPointTable& r = restored.value();
  EXPECT_EQ(r.app_name(), "mg.C");
  EXPECT_EQ(r.size(), 2u);
  ASSERT_NE(r.find(erv(1, 16)), nullptr);
  EXPECT_DOUBLE_EQ(r.find(erv(1, 16))->nfc.utility, 22.0);
  EXPECT_EQ(r.find(erv(8, 16))->measurements, 3);
}

TEST(Table, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/harp_table_test.json";
  OperatingPointTable table("vgg");
  table.set_point(erv(4, 4), NonFunctional{17.5, 33.25});
  ASSERT_TRUE(table.save(path).ok());
  auto loaded = OperatingPointTable::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded.value().find(erv(4, 4))->nfc.power_w, 33.25);
  std::remove(path.c_str());
}

TEST(Table, FromJsonValidates) {
  EXPECT_FALSE(OperatingPointTable::from_json(json::Value(1.0)).ok());
  EXPECT_FALSE(OperatingPointTable::from_json(doc(R"({"application":"x"})")).ok());
  EXPECT_FALSE(OperatingPointTable::from_json(
                   doc(R"({"application":"x","operating_points":[{"resources":[[1]],"utility":-1,"power":2}]})"))
                   .ok());
  // Non-finite characteristics (a JSON number like 1e999 parses to +∞).
  platform::HardwareDescription hw = platform::raptor_lake();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    for (const char* field : {"utility", "power"}) {
      json::Object point;
      point["resources"] = platform::ExtendedResourceVector::from_threads(hw, {1, 0}).to_json();
      point["utility"] = 1.0;
      point["power"] = 1.0;
      point[field] = bad;
      json::Object root;
      root["application"] = "x";
      root["operating_points"] = json::Value(json::Array{json::Value(std::move(point))});
      Result<OperatingPointTable> table = OperatingPointTable::from_json(json::Value(std::move(root)));
      ASSERT_FALSE(table.ok()) << field << " " << bad;
      EXPECT_NE(table.error().message.find("non-finite"), std::string::npos);
    }
  }
}

TEST(Dse, ProducesParetoOptimalTable) {
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  OperatingPointTable table = run_offline_dse(catalog.app("mg.C"), hw());
  EXPECT_GT(table.size(), 5u);
  EXPECT_LT(table.size(), 764u);  // pareto-filtered, strictly below the full sweep
  // Every point is treated as fully measured (stable on load).
  for (const OperatingPoint& p : table.points(0)) EXPECT_GE(p.measurements, 20);
  // No point dominates another on (utility↑, power↓, cores↓).
  std::vector<OperatingPoint> points = table.points(0);
  for (const OperatingPoint& a : points) {
    for (const OperatingPoint& b : points) {
      if (a.erv == b.erv) continue;
      bool dominates = a.nfc.utility >= b.nfc.utility && a.nfc.power_w <= b.nfc.power_w &&
                       a.erv.cores_used(0) <= b.erv.cores_used(0) &&
                       a.erv.cores_used(1) <= b.erv.cores_used(1) &&
                       (a.nfc.utility > b.nfc.utility || a.nfc.power_w < b.nfc.power_w ||
                        a.erv.cores_used(0) < b.erv.cores_used(0) ||
                        a.erv.cores_used(1) < b.erv.cores_used(1));
      EXPECT_FALSE(dominates) << "dominated point in DSE table";
    }
  }
}

TEST(Dse, UnfilteredSweepKeepsEverything) {
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  DseOptions options;
  options.pareto_filter = false;
  OperatingPointTable table = run_offline_dse(catalog.app("ep.C"), hw(), options);
  EXPECT_EQ(table.size(), 764u);
}

TEST(Dse, UtilitySourceFollowsAppCapability) {
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  // vgg provides its own utility: table utilities equal useful rate, which
  // for a barrier-light app is below the spin-inflated measured IPS of lu.
  OperatingPointTable vgg = run_offline_dse(catalog.app("vgg"), hw());
  const model::AppBehavior& app = catalog.app("vgg");
  platform::ExtendedResourceVector full = platform::ExtendedResourceVector::full(hw());
  model::AppRates rates = model::exclusive_rates(app, hw(), full, 0.0);
  if (const OperatingPoint* p = vgg.find(full); p != nullptr) {
    EXPECT_NEAR(p->nfc.utility, rates.useful_gips, 1e-9);
  }
}

TEST(Dse, ManagedRebalanceFactorByAdaptivity) {
  EXPECT_DOUBLE_EQ(managed_rebalance_factor(model::AdaptivityType::kCustom), 1.0);
  EXPECT_DOUBLE_EQ(managed_rebalance_factor(model::AdaptivityType::kScalable), 0.0);
  EXPECT_DOUBLE_EQ(managed_rebalance_factor(model::AdaptivityType::kStatic), 0.0);
}

}  // namespace
}  // namespace harp::core
