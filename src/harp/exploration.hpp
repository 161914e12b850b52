// Runtime exploration of operating points (§5) — maturity stages, candidate
// selection heuristics, and the utility/power regression surrogate.
//
// Per application, exploration moves through three stages:
//   initial    — too few measured configurations for a model; candidates are
//                chosen by farthest-point sampling in extended-resource-
//                vector space to maximise diversity;
//   refinement — a second-degree polynomial surrogate exists but may be
//                anomalous; candidates with negative predicted utility or
//                power are prioritised (largest geometric-mean negative
//                deviation), otherwise the candidate with the largest
//                discrepancy between the primary model and a zero-anchored
//                auxiliary model is chosen;
//   stable     — ≥ `stable_points` configurations explored; the allocator
//                runs on a long interval and the app executes undisturbed.
// Each selected point receives `measurements_per_point` measurements at
// `measurement_interval_s` (paper: 20 × 50 ms).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/harp/candidates.hpp"
#include "src/harp/operating_point.hpp"
#include "src/mlmodels/regressors.hpp"
#include "src/platform/resource_vector.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::core {

enum class MaturityStage { kInitial, kRefinement, kStable };

const char* to_string(MaturityStage stage);

struct ExplorationConfig {
  int initial_points = 5;         ///< configs before a preliminary model is trusted
  int stable_points = 25;         ///< configs to reach the stable stage (§5.3)
  int measurements_per_point = 20;
  double measurement_interval_s = 0.05;
  int stable_realloc_interval = 100;  ///< measurement ticks between stable re-allocations
  int regression_degree = 2;          ///< §5.2's winning model
  /// Optional: every select_next() emits a kExplorationSelect instant.
  telemetry::Tracer* tracer = nullptr;
};

/// Utility+power surrogate over extended-resource-vector features.
class NfcModel {
 public:
  explicit NfcModel(int degree = 2);

  /// Fit on measured points; `zero_anchor` adds the (no cores → no utility,
  /// no power) pseudo-sample that defines the auxiliary model of §5.3.
  void fit(const std::vector<OperatingPoint>& measured, int feature_dim, bool zero_anchor);
  bool trained() const { return trained_; }

  NonFunctional predict(const platform::ExtendedResourceVector& erv) const;
  /// predict() from the monomial expansion of the ERV's feature row
  /// (CandidateCatalog::expansion), bit-identical and allocation-free.
  NonFunctional predict_expanded(const double* monomials, std::size_t count) const;

 private:
  ml::PolynomialRegressor utility_;
  ml::PolynomialRegressor power_;
  bool trained_ = false;
};

/// Stage machine + candidate selection for one application.
class AppExplorer {
 public:
  /// Explores `catalog`, which must be the coarse catalog of `hw` expanded
  /// at config.regression_degree; the two-argument form builds its own.
  AppExplorer(const platform::HardwareDescription& hw, ExplorationConfig config,
              std::shared_ptr<const CandidateCatalog> catalog);
  AppExplorer(const platform::HardwareDescription& hw, ExplorationConfig config);

  const ExplorationConfig& config() const { return config_; }

  /// Number of fully measured configurations in `table` (counted in place).
  int measured_configs(const OperatingPointTable& table) const;
  MaturityStage stage(const OperatingPointTable& table) const;

  /// Pick the next configuration to measure within the per-type core budget
  /// (granted allocation plus the app's share of unassigned cores, §5.3).
  /// Returns nullopt when every in-budget configuration is fully measured.
  std::optional<platform::ExtendedResourceVector> select_next(
      const OperatingPointTable& table, const std::vector<int>& core_budget) const;

 private:
  /// Catalog index of the next configuration, or nullopt.
  std::optional<std::size_t> select_next_impl(const OperatingPointTable& table,
                                              const std::vector<int>& core_budget) const;

  platform::HardwareDescription hw_;  // owned copy; callers may pass temporaries
  ExplorationConfig config_;
  std::shared_ptr<const CandidateCatalog> catalog_;
};

}  // namespace harp::core
