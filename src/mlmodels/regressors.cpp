#include "src/mlmodels/regressors.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/linalg/least_squares.hpp"

namespace harp::ml {

namespace {

void check_training_data(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y) {
  HARP_CHECK_MSG(!x.empty() && x.size() == y.size(), "regressor: bad training data shape");
  for (const auto& row : x) HARP_CHECK(row.size() == x.front().size());
}

/// Column-wise mean/std for standardisation (std floored to avoid /0 on
/// constant features).
void standardise_stats(const std::vector<std::vector<double>>& x, std::vector<double>& mean,
                       std::vector<double>& std) {
  std::size_t dim = x.front().size();
  mean.assign(dim, 0.0);
  std.assign(dim, 0.0);
  for (const auto& row : x)
    for (std::size_t d = 0; d < dim; ++d) mean[d] += row[d];
  for (double& m : mean) m /= static_cast<double>(x.size());
  for (const auto& row : x)
    for (std::size_t d = 0; d < dim; ++d) std[d] += (row[d] - mean[d]) * (row[d] - mean[d]);
  for (double& s : std) s = std::max(std::sqrt(s / static_cast<double>(x.size())), 1e-9);
}

std::vector<double> standardise(const std::vector<double>& x, const std::vector<double>& mean,
                                const std::vector<double>& std) {
  HARP_CHECK(x.size() == mean.size());
  std::vector<double> out(x.size());
  for (std::size_t d = 0; d < x.size(); ++d) out[d] = (x[d] - mean[d]) / std[d];
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Polynomial
// ---------------------------------------------------------------------------

PolynomialRegressor::PolynomialRegressor(int degree) : degree_(degree) {
  HARP_CHECK(degree >= 1 && degree <= 5);
}

const char* PolynomialRegressor::name() const {
  switch (degree_) {
    case 1: return "poly1";
    case 2: return "poly2";
    case 3: return "poly3";
    default: return "poly";
  }
}

std::vector<double> PolynomialRegressor::expand(const std::vector<double>& x, int degree) {
  // Enumerate all monomials of total degree <= `degree` over x's variables
  // by a recursive descent over non-decreasing variable indices.
  std::vector<double> features{1.0};
  // Iterative generation: features of degree d are degree d-1 features times
  // a variable with index >= the last variable used. Track (value, min_var).
  struct Term {
    double value;
    std::size_t min_var;
  };
  std::vector<Term> current{{1.0, 0}};
  for (int d = 0; d < degree; ++d) {
    std::vector<Term> next;
    for (const Term& term : current)
      for (std::size_t v = term.min_var; v < x.size(); ++v)
        next.push_back({term.value * x[v], v});
    for (const Term& term : next) features.push_back(term.value);
    current = std::move(next);
  }
  return features;
}

void PolynomialRegressor::fit(const std::vector<std::vector<double>>& x,
                              const std::vector<double>& y) {
  check_training_data(x, y);
  input_dim_ = x.front().size();
  std::vector<linalg::Vector> rows;
  rows.reserve(x.size());
  for (const auto& sample : x) rows.push_back(expand(sample, degree_));
  // Ridge strength backs off quadratically as data accumulates; with very
  // few points it keeps the under-determined fit tame (exploration starts
  // from a handful of samples), while larger training sets get an almost
  // unbiased fit.
  double n = static_cast<double>(x.size());
  double ridge = 1e-9 + 1e-3 / (1.0 + n * n);
  coef_ = linalg::solve_least_squares(linalg::Matrix::from_rows(rows), y, ridge);
}

double PolynomialRegressor::predict(const std::vector<double>& x) const {
  HARP_CHECK_MSG(trained(), "predict() before fit()");
  HARP_CHECK(x.size() == input_dim_);
  std::vector<double> features = expand(x, degree_);
  return predict_expanded(features.data(), features.size());
}

double PolynomialRegressor::predict_expanded(const double* monomials, std::size_t count) const {
  HARP_CHECK_MSG(trained(), "predict() before fit()");
  HARP_CHECK(count == coef_.size());
  // linalg::dot's left-to-right sum.
  double s = 0.0;
  for (std::size_t i = 0; i < count; ++i) s += monomials[i] * coef_[i];
  return s;
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

MlpRegressor::MlpRegressor(int hidden_units, int epochs, std::uint64_t seed)
    : hidden_(hidden_units), epochs_(epochs), seed_(seed) {
  HARP_CHECK(hidden_units >= 1 && epochs >= 1);
}

void MlpRegressor::fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  check_training_data(x, y);
  std::size_t n = x.size();
  std::size_t in = x.front().size();
  auto h = static_cast<std::size_t>(hidden_);

  standardise_stats(x, x_mean_, x_std_);
  std::vector<std::vector<double>> xs;
  xs.reserve(n);
  for (const auto& row : x) xs.push_back(standardise(row, x_mean_, x_std_));
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = std::max(std::sqrt(var / static_cast<double>(n)), 1e-9);

  Rng rng(seed_);
  auto init = [&](std::size_t count, double scale) {
    std::vector<double> w(count);
    for (double& v : w) v = rng.gaussian(0.0, scale);
    return w;
  };
  w1_ = init(h * in, 1.0 / std::sqrt(static_cast<double>(in)));
  b1_.assign(h, 0.0);
  w2_ = init(h, 1.0 / std::sqrt(static_cast<double>(h)));
  b2_ = 0.0;

  // Full-batch Adam on squared error.
  std::size_t params = w1_.size() + b1_.size() + w2_.size() + 1;
  std::vector<double> m(params, 0.0), v(params, 0.0);
  const double lr = 0.02, beta1 = 0.9, beta2 = 0.999, adam_eps = 1e-8;

  std::vector<double> hidden(h), grad_w1(w1_.size()), grad_b1(h), grad_w2(h);
  for (int epoch = 1; epoch <= epochs_; ++epoch) {
    std::fill(grad_w1.begin(), grad_w1.end(), 0.0);
    std::fill(grad_b1.begin(), grad_b1.end(), 0.0);
    std::fill(grad_w2.begin(), grad_w2.end(), 0.0);
    double grad_b2 = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double>& xi = xs[i];
      double target = (y[i] - y_mean_) / y_std_;
      double out = b2_;
      for (std::size_t j = 0; j < h; ++j) {
        double z = b1_[j];
        for (std::size_t d = 0; d < in; ++d) z += w1_[j * in + d] * xi[d];
        hidden[j] = std::tanh(z);
        out += w2_[j] * hidden[j];
      }
      double err = (out - target) / static_cast<double>(n);
      grad_b2 += err;
      for (std::size_t j = 0; j < h; ++j) {
        grad_w2[j] += err * hidden[j];
        double dh = err * w2_[j] * (1.0 - hidden[j] * hidden[j]);
        grad_b1[j] += dh;
        for (std::size_t d = 0; d < in; ++d) grad_w1[j * in + d] += dh * xi[d];
      }
    }

    auto adam_step = [&](double& weight, double grad, std::size_t slot) {
      m[slot] = beta1 * m[slot] + (1.0 - beta1) * grad;
      v[slot] = beta2 * v[slot] + (1.0 - beta2) * grad * grad;
      double mh = m[slot] / (1.0 - std::pow(beta1, epoch));
      double vh = v[slot] / (1.0 - std::pow(beta2, epoch));
      weight -= lr * mh / (std::sqrt(vh) + adam_eps);
    };
    std::size_t slot = 0;
    for (std::size_t k = 0; k < w1_.size(); ++k) adam_step(w1_[k], grad_w1[k], slot++);
    for (std::size_t k = 0; k < b1_.size(); ++k) adam_step(b1_[k], grad_b1[k], slot++);
    for (std::size_t k = 0; k < w2_.size(); ++k) adam_step(w2_[k], grad_w2[k], slot++);
    adam_step(b2_, grad_b2, slot++);
  }
  trained_ = true;
}

double MlpRegressor::predict(const std::vector<double>& x) const {
  HARP_CHECK_MSG(trained_, "predict() before fit()");
  std::vector<double> xs = standardise(x, x_mean_, x_std_);
  auto h = static_cast<std::size_t>(hidden_);
  std::size_t in = xs.size();
  double out = b2_;
  for (std::size_t j = 0; j < h; ++j) {
    double z = b1_[j];
    for (std::size_t d = 0; d < in; ++d) z += w1_[j * in + d] * xs[d];
    out += w2_[j] * std::tanh(z);
  }
  return out * y_std_ + y_mean_;
}

// ---------------------------------------------------------------------------
// SVR
// ---------------------------------------------------------------------------

SvrRegressor::SvrRegressor(double c, double epsilon, double gamma, int max_sweeps)
    : c_(c), epsilon_(epsilon), gamma_(gamma), max_sweeps_(max_sweeps) {
  HARP_CHECK(c > 0 && epsilon >= 0 && gamma > 0 && max_sweeps >= 1);
}

double SvrRegressor::kernel(const std::vector<double>& a, const std::vector<double>& b) const {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d2 += (a[i] - b[i]) * (a[i] - b[i]);
  // "+1" folds the bias into the kernel, removing the equality constraint
  // from the dual so plain coordinate descent applies.
  return std::exp(-gamma_ * d2) + 1.0;
}

void SvrRegressor::fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  check_training_data(x, y);
  std::size_t n = x.size();
  standardise_stats(x, x_mean_, x_std_);
  support_.clear();
  support_.reserve(n);
  for (const auto& row : x) support_.push_back(standardise(row, x_mean_, x_std_));
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = std::max(std::sqrt(var / static_cast<double>(n)), 1e-9);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = (y[i] - y_mean_) / y_std_;

  // Gram matrix.
  std::vector<std::vector<double>> k(n, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) k[i][j] = k[j][i] = kernel(support_[i], support_[j]);

  // Dual: min_β ½ βᵀKβ − βᵀy + ε‖β‖₁, β ∈ [−C, C]ⁿ. Coordinate descent with
  // a soft-threshold closed form per coordinate.
  beta_.assign(n, 0.0);
  std::vector<double> kbeta(n, 0.0);  // K·β cache
  for (int sweep = 0; sweep < max_sweeps_; ++sweep) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double g = kbeta[i] - k[i][i] * beta_[i] - ys[i];  // gradient sans own term
      double denom = std::max(k[i][i], 1e-12);
      // Unconstrained minimiser with L1: soft threshold of -g by ε.
      double candidate;
      if (g + epsilon_ < 0.0) candidate = -(g + epsilon_) / denom;
      else if (g - epsilon_ > 0.0) candidate = -(g - epsilon_) / denom;
      else candidate = 0.0;
      candidate = std::clamp(candidate, -c_, c_);
      double delta = candidate - beta_[i];
      if (std::abs(delta) < 1e-12) continue;
      beta_[i] = candidate;
      for (std::size_t j = 0; j < n; ++j) kbeta[j] += delta * k[j][i];
      max_delta = std::max(max_delta, std::abs(delta));
    }
    if (max_delta < 1e-8) break;
  }
}

double SvrRegressor::predict(const std::vector<double>& x) const {
  HARP_CHECK_MSG(trained(), "predict() before fit()");
  std::vector<double> xs = standardise(x, x_mean_, x_std_);
  double out = 0.0;
  for (std::size_t i = 0; i < support_.size(); ++i)
    if (beta_[i] != 0.0) out += beta_[i] * kernel(support_[i], xs);
  return out * y_std_ + y_mean_;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<Regressor> make_regressor(const std::string& kind, std::uint64_t seed) {
  if (kind == "poly1") return std::make_unique<PolynomialRegressor>(1);
  if (kind == "poly2") return std::make_unique<PolynomialRegressor>(2);
  if (kind == "poly3") return std::make_unique<PolynomialRegressor>(3);
  if (kind == "nn") return std::make_unique<MlpRegressor>(8, 1500, seed);
  if (kind == "svm") return std::make_unique<SvrRegressor>();
  HARP_CHECK_MSG(false, "unknown regressor kind '" << kind << "'");
  __builtin_unreachable();
}

}  // namespace harp::ml
