// Unit + property tests for hardware descriptions, extended resource
// vectors, enumeration, and spatially isolated core assignment.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>

#include "src/common/check.hpp"
#include "src/platform/hardware.hpp"
#include "src/platform/resource_vector.hpp"

namespace harp::platform {
namespace {

/// Parse a JSON literal the test knows is syntactically valid; fails the
/// test (and returns null) on a parse error instead of touching the Result.
json::Value doc(const std::string& text) {
  Result<json::Value> r = json::parse(text);
  EXPECT_TRUE(r.ok()) << "parse failed: " << text;
  if (!r.ok()) return json::Value();
  return std::move(r).take();
}

TEST(Hardware, RaptorLakeShape) {
  HardwareDescription hw = raptor_lake();
  ASSERT_EQ(hw.num_core_types(), 2);
  EXPECT_EQ(hw.core_types[0].name, "P");
  EXPECT_EQ(hw.core_types[0].core_count, 8);
  EXPECT_EQ(hw.core_types[0].smt_width, 2);
  EXPECT_EQ(hw.core_types[1].core_count, 16);
  EXPECT_EQ(hw.total_hardware_threads(), 32);
  EXPECT_EQ(hw.hardware_threads(0), 16);
  EXPECT_EQ(hw.type_index("E"), 1);
  EXPECT_EQ(hw.type_index("big"), -1);
  EXPECT_GT(hw.power_gamma, 1.0);
}

TEST(Hardware, OdroidShape) {
  HardwareDescription hw = odroid_xu3e();
  EXPECT_EQ(hw.total_hardware_threads(), 8);
  EXPECT_EQ(hw.core_types[0].name, "big");
  // The big cores must be faster but hungrier than LITTLE.
  EXPECT_GT(hw.core_types[0].base_gips, hw.core_types[1].base_gips);
  EXPECT_GT(hw.core_types[0].active_power_w, hw.core_types[1].active_power_w);
}

TEST(Hardware, JsonRoundTrip) {
  HardwareDescription hw = raptor_lake();
  auto restored = HardwareDescription::from_json(hw.to_json());
  ASSERT_TRUE(restored.ok());
  const HardwareDescription& r = restored.value();
  EXPECT_EQ(r.name, hw.name);
  ASSERT_EQ(r.core_types.size(), hw.core_types.size());
  EXPECT_DOUBLE_EQ(r.core_types[0].active_power_w, hw.core_types[0].active_power_w);
  EXPECT_DOUBLE_EQ(r.memory_gips, hw.memory_gips);
}

TEST(Hardware, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/harp_hw_test.json";
  HardwareDescription hw = odroid_xu3e();
  ASSERT_TRUE(hw.save(path).ok());
  auto loaded = HardwareDescription::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().name, hw.name);
  std::remove(path.c_str());
}

TEST(Hardware, FromJsonValidatesShape) {
  EXPECT_FALSE(HardwareDescription::from_json(json::Value(3.0)).ok());
  EXPECT_FALSE(HardwareDescription::from_json(doc(R"({"name":"x"})")).ok());
  EXPECT_FALSE(HardwareDescription::from_json(doc(R"({"name":"x","core_types":[]})")).ok());
  EXPECT_FALSE(HardwareDescription::from_json(
                   doc(R"({"name":"x","core_types":[{"name":"P","core_count":0}]})"))
                   .ok());
}

TEST(Erv, PaperExampleVector) {
  // §4.1.2: 4 E-cores and 3 P-cores, two of them with both hyperthreads:
  // extended resource vector [1, 2, 4]ᵀ.
  HardwareDescription hw = raptor_lake();
  ExtendedResourceVector erv = ExtendedResourceVector::zero(hw);
  erv.set_count(0, 1, 1);  // one P-core at 1 thread
  erv.set_count(0, 2, 2);  // two P-cores at 2 threads
  erv.set_count(1, 1, 4);  // four E-cores
  EXPECT_EQ(erv.feature_vector(), (std::vector<double>{1, 2, 4}));
  EXPECT_EQ(erv.cores_used(0), 3);
  EXPECT_EQ(erv.threads(0), 5);
  EXPECT_EQ(erv.threads(1), 4);
  EXPECT_EQ(erv.total_threads(), 9);
  EXPECT_EQ(erv.total_cores(), 7);
  EXPECT_TRUE(erv.fits(hw));
  EXPECT_EQ(erv.to_string(hw), "P[1x1t,2x2t] E[4x1t]");
}

TEST(Erv, FromThreadsPacksSmtFirst) {
  HardwareDescription hw = raptor_lake();
  ExtendedResourceVector erv = ExtendedResourceVector::from_threads(hw, {5, 3});
  EXPECT_EQ(erv.count(0, 2), 2);  // 2 cores fully loaded
  EXPECT_EQ(erv.count(0, 1), 1);  // 1 core half loaded
  EXPECT_EQ(erv.count(1, 1), 3);
  EXPECT_EQ(erv.total_threads(), 8);
  EXPECT_THROW(ExtendedResourceVector::from_threads(hw, {17, 0}), CheckFailure);
}

TEST(Erv, ZeroAndFull) {
  HardwareDescription hw = raptor_lake();
  EXPECT_TRUE(ExtendedResourceVector::zero(hw).is_zero());
  ExtendedResourceVector full = ExtendedResourceVector::full(hw);
  EXPECT_EQ(full.total_threads(), 32);
  EXPECT_TRUE(full.fits(hw));
}

TEST(Erv, FitsRejectsOverCapacity) {
  HardwareDescription hw = odroid_xu3e();
  ExtendedResourceVector erv = ExtendedResourceVector::zero(hw);
  erv.set_count(0, 1, 5);  // only 4 big cores exist
  EXPECT_FALSE(erv.fits(hw));
}

TEST(Erv, NormalizedDistance) {
  HardwareDescription hw = raptor_lake();
  ExtendedResourceVector a = ExtendedResourceVector::zero(hw);
  ExtendedResourceVector b = ExtendedResourceVector::zero(hw);
  b.set_count(0, 2, 8);   // all P fully loaded: one dim moves by 8/8
  b.set_count(1, 1, 16);  // all E: one dim moves by 16/16
  EXPECT_NEAR(a.normalized_distance(b, hw), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.normalized_distance(a, hw), 0.0);
}

TEST(Erv, JsonRoundTrip) {
  HardwareDescription hw = raptor_lake();
  ExtendedResourceVector erv = ExtendedResourceVector::from_threads(hw, {7, 11});
  auto restored = ExtendedResourceVector::from_json(erv.to_json());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value() == erv);
}

TEST(Erv, FromJsonValidates) {
  EXPECT_FALSE(ExtendedResourceVector::from_json(json::Value(1.0)).ok());
  EXPECT_FALSE(ExtendedResourceVector::from_json(doc("[[-1]]")).ok());
  EXPECT_FALSE(ExtendedResourceVector::from_json(doc("[]")).ok());
}

TEST(Enumerate, OdroidCountIsExact) {
  // 4 big (no SMT) → 5 options; 4 LITTLE → 5 options; minus the zero vector.
  std::vector<ExtendedResourceVector> points = enumerate_coarse_points(odroid_xu3e());
  EXPECT_EQ(points.size(), 24u);
}

TEST(Enumerate, RaptorLakeCountIsExact) {
  // P: (n1,n2) with n1+n2 ≤ 8 → 45 options; E: 17 options; minus zero.
  std::vector<ExtendedResourceVector> points = enumerate_coarse_points(raptor_lake());
  EXPECT_EQ(points.size(), 45u * 17u - 1u);
}

TEST(CoarsePoints, CountMatchesEnumerationWithoutEnumerating) {
  EXPECT_EQ(coarse_point_count(raptor_lake()), 764u);
  EXPECT_EQ(coarse_point_count(odroid_xu3e()), 24u);
  // Small mixed platforms: the closed form equals the enumeration.
  for (int smt = 1; smt <= 3; ++smt) {
    for (int cores = 0; cores <= 5; ++cores) {
      HardwareDescription hw;
      CoreType a;
      a.name = "a";
      a.core_count = cores;
      a.smt_width = smt;
      CoreType b = a;
      b.name = "b";
      b.core_count = 3;
      b.smt_width = 2;
      hw.core_types = {a, b};
      EXPECT_EQ(coarse_point_count(hw), enumerate_coarse_points(hw).size())
          << cores << " cores, SMT " << smt;
    }
  }
  // 3×1024 SMT-1: 1025³ − 1, counted, never built.
  HardwareDescription wide;
  for (int t = 0; t < 3; ++t) {
    CoreType type;
    type.name = std::string(1, static_cast<char>('A' + t));
    type.core_count = 1024;
    wide.core_types.push_back(type);
  }
  EXPECT_EQ(coarse_point_count(wide), 1076890624u);
  // Too wide to count: saturates instead of wrapping.
  for (CoreType& type : wide.core_types) type.smt_width = 8;
  EXPECT_EQ(coarse_point_count(wide), std::numeric_limits<std::uint64_t>::max());
}

TEST(Enumerate, AllPointsUniqueAndFeasible) {
  HardwareDescription hw = raptor_lake();
  std::set<ExtendedResourceVector> seen;
  for (const ExtendedResourceVector& erv : enumerate_coarse_points(hw)) {
    EXPECT_TRUE(erv.fits(hw));
    EXPECT_FALSE(erv.is_zero());
    EXPECT_TRUE(seen.insert(erv).second) << "duplicate point";
  }
}

TEST(Assign, DisjointCoresForConcurrentApps) {
  HardwareDescription hw = raptor_lake();
  ExtendedResourceVector a = ExtendedResourceVector::from_threads(hw, {4, 0});
  ExtendedResourceVector b = ExtendedResourceVector::from_threads(hw, {8, 8});
  auto result = assign_cores(hw, {a, b});
  ASSERT_TRUE(result.ok());
  const auto& allocs = result.value();
  ASSERT_EQ(allocs.size(), 2u);
  std::set<int> p_cores;
  for (const auto& alloc : allocs)
    for (const auto& [core, threads] : alloc.cores[0]) {
      (void)threads;
      EXPECT_TRUE(p_cores.insert(core).second) << "P-core shared between apps";
    }
  EXPECT_EQ(allocs[0].total_threads(), 4);
  EXPECT_EQ(allocs[1].total_threads(), 16);
}

TEST(Assign, RoundTripsToSameErv) {
  HardwareDescription hw = raptor_lake();
  ExtendedResourceVector erv = ExtendedResourceVector::from_threads(hw, {5, 7});
  auto result = assign_cores(hw, {erv});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()[0].to_erv(hw) == erv);
}

TEST(Assign, FailsWhenOverCommitted) {
  HardwareDescription hw = odroid_xu3e();
  ExtendedResourceVector all = ExtendedResourceVector::full(hw);
  auto result = assign_cores(hw, {all, all});
  EXPECT_FALSE(result.ok());
}

TEST(Assign, EmptyDemandYieldsEmptyAllocation) {
  HardwareDescription hw = odroid_xu3e();
  auto result = assign_cores(hw, {ExtendedResourceVector::zero(hw)});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()[0].is_empty());
}

// Property sweep: from_threads must always produce a vector realising the
// requested thread counts and staying within capacity.
class FromThreadsProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FromThreadsProperty, RealisesThreadCounts) {
  HardwareDescription hw = raptor_lake();
  auto [p_threads, e_threads] = GetParam();
  ExtendedResourceVector erv = ExtendedResourceVector::from_threads(hw, {p_threads, e_threads});
  EXPECT_EQ(erv.threads(0), p_threads);
  EXPECT_EQ(erv.threads(1), e_threads);
  EXPECT_TRUE(erv.fits(hw));
  // Packing must be minimal in cores: ⌈threads/smt⌉ cores of each type.
  EXPECT_EQ(erv.cores_used(0), (p_threads + 1) / 2);
  EXPECT_EQ(erv.cores_used(1), e_threads);
}

INSTANTIATE_TEST_SUITE_P(AllThreadCounts, FromThreadsProperty,
                         ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{2, 0},
                                           std::pair{3, 5}, std::pair{16, 16}, std::pair{9, 1},
                                           std::pair{0, 16}, std::pair{15, 13}));

}  // namespace
}  // namespace harp::platform
