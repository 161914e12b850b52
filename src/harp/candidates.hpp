// What every choice group is built from (DESIGN.md "Hot path &
// incrementality"): a platform's candidate catalog, built once, and the one
// Pareto filter that turns an app's candidates into a costed front.
//
// CandidateCatalog — the configuration space of §5 is fixed per platform,
// so its ERVs, per-type core usage, thread counts and regression features
// are enumerated and expanded once. HarpPolicy's group builds and its
// AppExplorer index into it; surrogate predictions become one dot product
// per point over the precomputed monomial expansion.
//
// ParetoFront — candidates as flat (−utility, power, cores per type) rows,
// filtered by ml::pareto_front's skyline, the front costed (ζ, Eq. 2)
// against its own utility maximum. RmServer, HarpPolicy, DvfsHarpPolicy and
// run_offline_dse all filter through it.
#pragma once

#include <cstddef>
#include <vector>

#include "src/harp/operating_point.hpp"
#include "src/mlmodels/pareto.hpp"
#include "src/platform/hardware.hpp"
#include "src/platform/resource_vector.hpp"

namespace harp::core {

/// An immutable, indexed set of one platform's coarse configurations.
class CandidateCatalog {
 public:
  /// Every coarse configuration of `hw`, in enumerate_coarse_points order,
  /// each with the monomial expansion of its feature row at
  /// `regression_degree` (ml::PolynomialRegressor::expand).
  CandidateCatalog(const platform::HardwareDescription& hw, int regression_degree);

  std::size_t size() const { return points_.size(); }
  int num_types() const { return num_types_; }

  const platform::ExtendedResourceVector& erv(std::size_t i) const { return points_[i]; }
  /// Cores used per type: num_types() ints.
  const int* usage(std::size_t i) const {
    return usage_.data() + i * static_cast<std::size_t>(num_types_);
  }
  int total_threads(std::size_t i) const { return threads_[i]; }

  /// Length of a feature row (ExtendedResourceVector::feature_vector()).
  std::size_t feature_dim() const { return feature_dim_; }
  /// Monomial expansion of point i's feature row: expansion_dim() doubles,
  /// the constant 1 first, then the feature row itself, then the
  /// higher-degree products.
  const double* expansion(std::size_t i) const { return expansions_.data() + i * expansion_dim_; }
  std::size_t expansion_dim() const { return expansion_dim_; }
  int regression_degree() const { return regression_degree_; }

 private:
  std::vector<platform::ExtendedResourceVector> points_;
  int num_types_ = 0;
  std::vector<int> usage_;    ///< point-major, num_types_ per point
  std::vector<int> threads_;  ///< total hardware threads per point
  std::size_t feature_dim_ = 0;
  int regression_degree_ = 0;
  std::size_t expansion_dim_ = 0;
  std::vector<double> expansions_;  ///< point-major, expansion_dim_ per point
};

/// Power of a configuration when every used core draws its type's active
/// power: the optimistic model behind the fair-share and fresh-app groups.
double active_power_w(const platform::HardwareDescription& hw, const int* usage);

/// The Pareto filter of a choice group. Candidates are added in group
/// order; filter() keeps those no other candidate beats on utility (max),
/// power (min) and every per-type core count (min), and costs each kept one
/// against the kept candidates' utility maximum. Buffers persist, so a
/// builder reused across groups stops allocating once it has grown.
class ParetoFront {
 public:
  /// Start a new candidate list for a platform with `num_types` core types.
  void reset(int num_types);
  /// Append a candidate: its characteristics and per-type core usage.
  void add(const NonFunctional& nfc, const int* usage);
  void add(const NonFunctional& nfc, const platform::ExtendedResourceVector& erv);

  /// Filter the candidates added since reset(). Utility and power must be
  /// finite (a checked precondition of the skyline).
  void filter();
  /// Positions (add() order, ascending) of the kept candidates.
  const std::vector<std::size_t>& members() const { return members_; }
  /// ζ of each kept candidate against v_max(), parallel to members().
  const std::vector<double>& costs() const { return costs_; }
  /// The kept candidates' utility maximum (at least 1e-9).
  double v_max() const { return v_max_; }

 private:
  int num_types_ = 0;
  std::vector<NonFunctional> nfc_;
  std::vector<double> rows_;  ///< (−utility, power, cores per type), row-major
  ml::SkylineScratch scratch_;
  std::vector<std::size_t> members_;
  std::vector<double> costs_;
  double v_max_ = 1e-9;
};

}  // namespace harp::core
