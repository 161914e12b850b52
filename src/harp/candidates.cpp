#include "src/harp/candidates.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/mlmodels/regressors.hpp"

namespace harp::core {

CandidateCatalog::CandidateCatalog(const platform::HardwareDescription& hw, int regression_degree)
    : points_(platform::enumerate_coarse_points(hw)),
      num_types_(static_cast<int>(hw.core_types.size())),
      regression_degree_(regression_degree) {
  HARP_CHECK(num_types_ > 0 && !points_.empty());
  feature_dim_ = points_.front().feature_vector().size();
  usage_.resize(points_.size() * static_cast<std::size_t>(num_types_));
  threads_.reserve(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const platform::ExtendedResourceVector& erv = points_[i];
    erv.write_core_usage(usage_.data() + i * static_cast<std::size_t>(num_types_));
    threads_.push_back(erv.total_threads());
    // The regressor's own expansion, so predictions from these rows are
    // bit-identical to PolynomialRegressor::predict on the feature row.
    std::vector<double> monomials =
        ml::PolynomialRegressor::expand(erv.feature_vector(), regression_degree);
    if (i == 0) {
      expansion_dim_ = monomials.size();
      expansions_.reserve(points_.size() * expansion_dim_);
    }
    HARP_CHECK(monomials.size() == expansion_dim_);
    expansions_.insert(expansions_.end(), monomials.begin(), monomials.end());
  }
}

double active_power_w(const platform::HardwareDescription& hw, const int* usage) {
  double power = 0.0;
  for (std::size_t t = 0; t < hw.core_types.size(); ++t)
    power += hw.core_types[t].active_power_w * usage[t];
  return power;
}

void ParetoFront::reset(int num_types) {
  HARP_CHECK(num_types > 0);
  num_types_ = num_types;
  nfc_.clear();
  rows_.clear();
}

void ParetoFront::add(const NonFunctional& nfc, const int* usage) {
  nfc_.push_back(nfc);
  rows_.push_back(-nfc.utility);
  rows_.push_back(nfc.power_w);
  for (int t = 0; t < num_types_; ++t) rows_.push_back(static_cast<double>(usage[t]));
}

void ParetoFront::add(const NonFunctional& nfc, const platform::ExtendedResourceVector& erv) {
  HARP_CHECK(erv.num_types() == num_types_);
  nfc_.push_back(nfc);
  rows_.push_back(-nfc.utility);
  rows_.push_back(nfc.power_w);
  for (int t = 0; t < num_types_; ++t) rows_.push_back(static_cast<double>(erv.cores_used(t)));
}

void ParetoFront::filter() {
  const std::size_t d = 2 + static_cast<std::size_t>(num_types_);
  ml::pareto_front(rows_.data(), nfc_.size(), d, scratch_, members_);
  v_max_ = 1e-9;
  for (std::size_t i : members_) v_max_ = std::max(v_max_, nfc_[i].utility);
  costs_.clear();
  for (std::size_t i : members_) costs_.push_back(energy_utility_cost(nfc_[i], v_max_));
}

}  // namespace harp::core
