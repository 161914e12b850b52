#include "src/harp/exploration.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/check.hpp"

namespace harp::core {

const char* to_string(MaturityStage stage) {
  switch (stage) {
    case MaturityStage::kInitial: return "initial";
    case MaturityStage::kRefinement: return "refinement";
    case MaturityStage::kStable: return "stable";
  }
  return "?";
}

NfcModel::NfcModel(int degree) : utility_(degree), power_(degree) {}

void NfcModel::fit(const std::vector<OperatingPoint>& measured, int feature_dim,
                   bool zero_anchor) {
  HARP_CHECK(!measured.empty());
  std::vector<std::vector<double>> x;
  std::vector<double> yu, yp;
  for (const OperatingPoint& p : measured) {
    x.push_back(p.erv.feature_vector());
    HARP_CHECK(static_cast<int>(x.back().size()) == feature_dim);
    yu.push_back(p.nfc.utility);
    yp.push_back(p.nfc.power_w);
  }
  if (zero_anchor) {
    x.emplace_back(static_cast<std::size_t>(feature_dim), 0.0);
    yu.push_back(0.0);
    yp.push_back(0.0);
  }
  utility_.fit(x, yu);
  power_.fit(x, yp);
  trained_ = true;
}

NonFunctional NfcModel::predict(const platform::ExtendedResourceVector& erv) const {
  HARP_CHECK(trained_);
  std::vector<double> f = erv.feature_vector();
  return NonFunctional{utility_.predict(f), power_.predict(f)};
}

NonFunctional NfcModel::predict_expanded(const double* monomials, std::size_t count) const {
  HARP_CHECK(trained_);
  return NonFunctional{utility_.predict_expanded(monomials, count),
                       power_.predict_expanded(monomials, count)};
}

AppExplorer::AppExplorer(const platform::HardwareDescription& hw, ExplorationConfig config,
                         std::shared_ptr<const CandidateCatalog> catalog)
    : hw_(hw), config_(config), catalog_(std::move(catalog)) {
  HARP_CHECK(catalog_ != nullptr && catalog_->size() > 0);
  HARP_CHECK(catalog_->num_types() == static_cast<int>(hw_.core_types.size()));
  HARP_CHECK(catalog_->regression_degree() == config_.regression_degree);
}

AppExplorer::AppExplorer(const platform::HardwareDescription& hw, ExplorationConfig config)
    : AppExplorer(hw, config,
                  std::make_shared<const CandidateCatalog>(hw, config.regression_degree)) {}

int AppExplorer::measured_configs(const OperatingPointTable& table) const {
  return static_cast<int>(table.count_points(config_.measurements_per_point));
}

MaturityStage AppExplorer::stage(const OperatingPointTable& table) const {
  int measured = measured_configs(table);
  if (measured < config_.initial_points) return MaturityStage::kInitial;
  if (measured < config_.stable_points) return MaturityStage::kRefinement;
  return MaturityStage::kStable;
}

std::optional<platform::ExtendedResourceVector> AppExplorer::select_next(
    const OperatingPointTable& table, const std::vector<int>& core_budget) const {
  std::optional<std::size_t> next = select_next_impl(table, core_budget);
  if (!next.has_value()) return std::nullopt;
  const platform::ExtendedResourceVector& erv = catalog_->erv(*next);
  if (config_.tracer != nullptr)
    config_.tracer->instant(
        telemetry::EventType::kExplorationSelect, table.app_name(),
        {{"measured", static_cast<double>(measured_configs(table))}},
        {{"erv", erv.to_string(hw_)}, {"stage", to_string(stage(table))}});
  return erv;
}

std::optional<std::size_t> AppExplorer::select_next_impl(
    const OperatingPointTable& table, const std::vector<int>& core_budget) const {
  const CandidateCatalog& catalog = *catalog_;
  HARP_CHECK(core_budget.size() == hw_.core_types.size());
  const int num_types = catalog.num_types();

  // Unmeasured (or under-measured) configurations within the budget.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const int* usage = catalog.usage(i);
    bool fits = true;
    for (int t = 0; t < num_types && fits; ++t)
      if (usage[t] > core_budget[static_cast<std::size_t>(t)]) fits = false;
    if (!fits) continue;
    const OperatingPoint* point = table.find(catalog.erv(i));
    if (point == nullptr || point->measurements < config_.measurements_per_point)
      candidates.push_back(i);
  }
  if (candidates.empty()) return std::nullopt;

  std::vector<OperatingPoint> measured = table.points(1);
  if (stage(table) == MaturityStage::kInitial || measured.empty()) {
    // Farthest-point sampling: maximise the minimum normalised distance to
    // any measured configuration; with nothing measured yet, start from the
    // largest in-budget configuration (it also anchors the v* normaliser).
    if (measured.empty()) {
      std::size_t best = candidates.front();  // the first of the largest
      for (std::size_t c : candidates)
        if (catalog.total_threads(best) < catalog.total_threads(c)) best = c;
      return best;
    }
    double best_score = -1.0;
    std::size_t best = 0;
    for (std::size_t c : candidates) {
      double nearest = 1e300;
      for (const OperatingPoint& m : measured)
        nearest = std::min(nearest, catalog.erv(c).normalized_distance(m.erv, hw_));
      if (nearest > best_score) {
        best_score = nearest;
        best = c;
      }
    }
    return best;
  }

  // Refinement stage: primary model vs anomalies / auxiliary model.
  const std::size_t dim = catalog.expansion_dim();
  const int feature_dim = static_cast<int>(catalog.feature_dim());
  NfcModel primary(config_.regression_degree);
  primary.fit(measured, feature_dim, /*zero_anchor=*/false);

  // 1) Prioritise configurations with negative predictions: largest combined
  //    error, the geometric mean of the negative deviations with positive
  //    values counted as zero (falling back to the sum when every candidate
  //    has only one negative component and all products vanish).
  double best_geo = 0.0, best_sum = 0.0;
  std::optional<std::size_t> best_negative;
  for (std::size_t c : candidates) {
    NonFunctional pred = primary.predict_expanded(catalog.expansion(c), dim);
    double nu = std::max(0.0, -pred.utility);
    double np = std::max(0.0, -pred.power_w);
    if (nu <= 0.0 && np <= 0.0) continue;
    double geo = std::sqrt(nu * np);
    double sum = nu + np;
    if (geo > best_geo || (best_geo == 0.0 && sum > best_sum)) {
      best_geo = std::max(best_geo, geo);
      best_sum = std::max(best_sum, sum);
      best_negative = c;
    }
  }
  if (best_negative.has_value()) return best_negative;

  // 2) Otherwise: largest discrepancy between the primary model and the
  //    zero-anchored auxiliary model (geometric mean of the |Δutility| and
  //    |Δpower| components).
  NfcModel auxiliary(config_.regression_degree);
  auxiliary.fit(measured, feature_dim, /*zero_anchor=*/true);
  double best_score = -1.0;
  std::size_t best = 0;
  for (std::size_t c : candidates) {
    NonFunctional a = primary.predict_expanded(catalog.expansion(c), dim);
    NonFunctional b = auxiliary.predict_expanded(catalog.expansion(c), dim);
    double score = std::sqrt(std::abs(a.utility - b.utility) * std::abs(a.power_w - b.power_w));
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

}  // namespace harp::core
