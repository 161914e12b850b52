// Tests for the regression models and Pareto tools used by §5.2/§5.3.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/mlmodels/pareto.hpp"
#include "src/mlmodels/regressors.hpp"
#include "src/platform/hardware.hpp"
#include "src/platform/resource_vector.hpp"

namespace harp::ml {
namespace {

// --- Polynomial -------------------------------------------------------------

TEST(Polynomial, ExpansionCountsAndValues) {
  // 2 vars, degree 2: 1, x, y, x², xy, y².
  std::vector<double> f = PolynomialRegressor::expand({2.0, 3.0}, 2);
  ASSERT_EQ(f.size(), 6u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
  EXPECT_DOUBLE_EQ(f[3], 4.0);
  EXPECT_DOUBLE_EQ(f[4], 6.0);
  EXPECT_DOUBLE_EQ(f[5], 9.0);
  // 3 vars, degree 3: C(3,1)+C(4,2)+C(5,3) monomials + constant = 20.
  EXPECT_EQ(PolynomialRegressor::expand({1, 1, 1}, 3).size(), 20u);
}

TEST(Polynomial, RecoversQuadraticSurface) {
  Rng rng(5);
  PolynomialRegressor model(2);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    double a = rng.uniform(0.0, 8.0), b = rng.uniform(0.0, 16.0);
    x.push_back({a, b});
    y.push_back(3.0 + 2.0 * a - 0.5 * b + 0.25 * a * b - 0.1 * a * a);
  }
  model.fit(x, y);
  for (int i = 0; i < 20; ++i) {
    double a = rng.uniform(0.0, 8.0), b = rng.uniform(0.0, 16.0);
    double truth = 3.0 + 2.0 * a - 0.5 * b + 0.25 * a * b - 0.1 * a * a;
    EXPECT_NEAR(model.predict({a, b}), truth, 0.05 * std::abs(truth) + 0.1);
  }
}

TEST(Polynomial, DegreeOneIsLinear) {
  PolynomialRegressor model(1);
  model.fit({{0.0}, {1.0}, {2.0}}, {1.0, 3.0, 5.0});  // y = 2x + 1
  EXPECT_NEAR(model.predict({10.0}), 21.0, 0.2);
}

TEST(Polynomial, SurvivesTinyTrainingSets) {
  // The exploration engine fits from very few samples; ridge keeps this
  // well-posed even when under-determined.
  PolynomialRegressor model(2);
  model.fit({{1.0, 2.0}}, {5.0});
  EXPECT_TRUE(std::isfinite(model.predict({2.0, 2.0})));
  EXPECT_THROW(PolynomialRegressor(0), CheckFailure);
}

TEST(Polynomial, PredictBeforeFitThrows) {
  PolynomialRegressor model(2);
  EXPECT_FALSE(model.trained());
  EXPECT_THROW(model.predict({1.0}), CheckFailure);
}

// --- MLP ---------------------------------------------------------------------

TEST(Mlp, LearnsSmoothFunction) {
  Rng rng(11);
  MlpRegressor model(8, 2000, 3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    double a = rng.uniform(-1.0, 1.0);
    x.push_back({a});
    y.push_back(std::sin(2.0 * a));
  }
  model.fit(x, y);
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    double a = -1.0 + 2.0 * i / 19.0;
    err += std::abs(model.predict({a}) - std::sin(2.0 * a));
  }
  EXPECT_LT(err / 20.0, 0.1);
}

TEST(Mlp, DeterministicForSeed) {
  std::vector<std::vector<double>> x{{0.0}, {0.5}, {1.0}, {1.5}};
  std::vector<double> y{0.0, 1.0, 0.5, 2.0};
  MlpRegressor a(4, 200, 7), b(4, 200, 7);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_DOUBLE_EQ(a.predict({0.7}), b.predict({0.7}));
}

// --- SVR ----------------------------------------------------------------------

TEST(Svr, FitsWithinEpsilonTube) {
  SvrRegressor model(50.0, 0.01, 1.0, 400);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    double a = -2.0 + 4.0 * i / 39.0;
    x.push_back({a});
    y.push_back(a * a);
  }
  model.fit(x, y);
  for (int i = 0; i < 40; ++i) {
    EXPECT_NEAR(model.predict(x[static_cast<std::size_t>(i)]), y[static_cast<std::size_t>(i)],
                0.3);
  }
}

TEST(Svr, ValidatesParameters) {
  EXPECT_THROW(SvrRegressor(-1.0, 0.1, 1.0), CheckFailure);
  EXPECT_THROW(SvrRegressor(1.0, 0.1, 0.0), CheckFailure);
}

// --- Factory -------------------------------------------------------------------

TEST(Factory, ProducesAllKinds) {
  for (const char* kind : {"poly1", "poly2", "poly3", "nn", "svm"}) {
    auto model = make_regressor(kind);
    ASSERT_NE(model, nullptr);
    model->fit({{0.0}, {1.0}, {2.0}, {3.0}}, {0.0, 1.0, 2.0, 3.0});
    EXPECT_TRUE(model->trained());
    EXPECT_TRUE(std::isfinite(model->predict({1.5})));
  }
  EXPECT_THROW(make_regressor("forest"), CheckFailure);
}

TEST(Regressors, RejectBadTrainingShapes) {
  PolynomialRegressor model(2);
  EXPECT_THROW(model.fit({}, {}), CheckFailure);
  EXPECT_THROW(model.fit({{1.0}}, {1.0, 2.0}), CheckFailure);
  EXPECT_THROW(model.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}), CheckFailure);
}

// --- Pareto tools -----------------------------------------------------------------

TEST(Pareto, FrontExtraction) {
  // Minimising both objectives: (1,4), (2,2), (4,1) are the front; (3,3)
  // is dominated by (2,2).
  std::vector<std::vector<double>> points{{1, 4}, {2, 2}, {3, 3}, {4, 1}, {5, 5}};
  std::vector<std::size_t> front = pareto_front(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Pareto, DuplicatesAreAllKept) {
  std::vector<std::vector<double>> points{{1, 1}, {1, 1}, {2, 2}};
  EXPECT_EQ(pareto_front(points).size(), 2u);
}

TEST(Pareto, HigherDimensionalDominance) {
  std::vector<std::vector<double>> points{{1, 1, 5}, {1, 1, 4}, {0, 2, 9}};
  std::vector<std::size_t> front = pareto_front(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{1, 2}));
}

TEST(Pareto, FlatRowsRejectNonFiniteValues) {
  SkylineScratch scratch;
  std::vector<std::size_t> front;
  const double nan_row[] = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(pareto_front(nan_row, 1, 2, scratch, front), CheckFailure);
  const double inf_row[] = {std::numeric_limits<double>::infinity(), 0.0, 1.0, 1.0};
  EXPECT_THROW(pareto_front(inf_row, 2, 2, scratch, front), CheckFailure);
  pareto_front(nullptr, 0, 4, scratch, front);
  EXPECT_TRUE(front.empty());
}

// The O(n²·d) pairwise scan the skyline replaced, kept as its oracle.
std::vector<std::size_t> pairwise_front(const std::vector<std::vector<double>>& rows) {
  auto dominates = [](const std::vector<double>& a, const std::vector<double>& b) {
    bool strictly = false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k] > b[k]) return false;
      if (a[k] < b[k]) strictly = true;
    }
    return strictly;
  };
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < rows.size() && !dominated; ++j)
      if (j != i && dominates(rows[j], rows[i])) dominated = true;
    if (!dominated) front.push_back(i);
  }
  return front;
}

/// Both entry points (nested rows, and flat rows through one scratch reused
/// across instances) against the pairwise oracle.
void expect_matches_oracle(const std::vector<std::vector<double>>& rows, SkylineScratch& scratch) {
  const std::vector<std::size_t> expected = pairwise_front(rows);
  EXPECT_EQ(pareto_front(rows), expected);
  const std::size_t d = rows.empty() ? 0 : rows.front().size();
  std::vector<double> flat;
  for (const std::vector<double>& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  std::vector<std::size_t> front{42};  // stale content must be replaced
  pareto_front(flat.data(), rows.size(), d, scratch, front);
  EXPECT_EQ(front, expected);
}

TEST(Pareto, SkylineMatchesPairwiseOracleOnSeededInstances) {
  Rng rng(2026);
  SkylineScratch scratch;
  for (int instance = 0; instance < 2000; ++instance) {
    // Mostly small instances, one in ten up to 900 rows.
    const int n = instance % 10 == 0 ? rng.uniform_int(0, 900) : rng.uniform_int(0, 120);
    const std::size_t d = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const int kind = instance % 6;
    std::vector<std::vector<double>> distinct;
    auto draw_row = [&](int row_kind) {
      std::vector<double> row(d);
      for (std::size_t k = 0; k < d; ++k) {
        switch (row_kind) {
          case 0: row[k] = rng.uniform(-1.0, 1.0); break;         // continuous
          case 1: row[k] = rng.uniform_int(0, 3); break;          // integer, heavy ties
          case 2: row[k] = k < 2 ? rng.uniform(0.0, 10.0)          // (−utility, power)
                                 : rng.uniform_int(0, 8); break;  // then core counts
          default: row[k] = rng.uniform_int(0, 1) == 0 ? 0.0 : -0.0; break;  // signed zeros
        }
      }
      return row;
    };
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < n; ++i) {
      switch (kind) {
        case 0: case 1: case 2: rows.push_back(draw_row(kind)); break;
        case 3: {  // duplicates: rows drawn with repetition from a small pool
          if (distinct.empty())
            for (int j = 0; j < 1 + n / 8; ++j) distinct.push_back(draw_row(j % 3));
          rows.push_back(distinct[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(distinct.size()) - 1))]);
          break;
        }
        case 4:  // all rows equal
          rows.push_back(i == 0 ? draw_row(0) : rows.front());
          break;
        default: {  // anti-correlated: most rows on the front, some exact ties
          std::vector<double> row = draw_row(1);
          row[0] = std::round(rng.uniform(0.0, 20.0));
          row[1] = 20.0 - row[0];
          rows.push_back(std::move(row));
        }
      }
    }
    SCOPED_TRACE("instance " + std::to_string(instance) + " kind " + std::to_string(kind));
    expect_matches_oracle(rows, scratch);
    if (HasFailure()) return;
  }
}

TEST(Pareto, SkylineMatchesPairwiseOracleOnCoarsePointRows) {
  // The rows the RM filters: (−utility, power, cores per type) over every
  // coarse configuration, with fair-share utilities (threads: heavy ties)
  // and with noisy surrogate-like ones.
  SkylineScratch scratch;
  Rng rng(7);
  for (const platform::HardwareDescription& hw :
       {platform::raptor_lake(), platform::odroid_xu3e()}) {
    const std::vector<platform::ExtendedResourceVector> points =
        platform::enumerate_coarse_points(hw);
    for (int variant = 0; variant < 20; ++variant) {
      std::vector<std::vector<double>> rows;
      for (const platform::ExtendedResourceVector& erv : points) {
        double utility = erv.total_threads();
        double power = 0.0;
        for (int t = 0; t < erv.num_types(); ++t)
          power += hw.core_types[static_cast<std::size_t>(t)].active_power_w * erv.cores_used(t);
        if (variant > 0) {
          utility = std::sqrt(utility) * rng.noise_factor(0.1);
          power *= rng.noise_factor(0.1);
          if (variant % 2 == 0) utility = std::round(utility * 4.0) / 4.0;
        }
        std::vector<double> row{-utility, power};
        for (int t = 0; t < erv.num_types(); ++t) row.push_back(erv.cores_used(t));
        rows.push_back(std::move(row));
      }
      SCOPED_TRACE(hw.name + " variant " + std::to_string(variant));
      expect_matches_oracle(rows, scratch);
    }
  }
}

TEST(Igd, ZeroForIdenticalFronts) {
  std::vector<std::vector<double>> front{{0.0, 1.0}, {0.5, 0.5}, {1.0, 0.0}};
  EXPECT_NEAR(igd(front, front), 0.0, 1e-12);
}

TEST(Igd, GrowsWithDistance) {
  std::vector<std::vector<double>> reference{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<std::vector<double>> near{{0.1, 1.0}, {1.0, 0.1}};
  std::vector<std::vector<double>> far{{0.8, 1.0}, {1.0, 0.8}};
  EXPECT_LT(igd(reference, near), igd(reference, far));
  EXPECT_GT(igd(reference, {}), 1e6);  // empty approximation is terrible
}

TEST(CommonRatio, CountsSharedKeys) {
  EXPECT_DOUBLE_EQ(common_point_ratio({1, 2, 3, 4}, {2, 4, 9}), 0.5);
  EXPECT_DOUBLE_EQ(common_point_ratio({1}, {1}), 1.0);
  EXPECT_DOUBLE_EQ(common_point_ratio({1, 2}, {}), 0.0);
}

}  // namespace
}  // namespace harp::ml
