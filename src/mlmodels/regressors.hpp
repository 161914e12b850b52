// Regression models for approximating utility and power of unmeasured
// operating points (§5.2).
//
// The paper compares polynomial regression (degrees 1–3), a neural network,
// and a support vector machine on pre-measured data from 15 applications and
// selects the second-degree polynomial (best Pareto alignment at the
// smallest training size, ~20 points). All three families are implemented
// here behind a common Regressor interface so the Fig. 5 bench can rerun the
// comparison; the exploration engine (src/harp) uses PolynomialRegressor
// with degree 2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace harp::ml {

/// Common interface: fit on rows of features (the extended-resource-vector
/// feature encoding) with scalar targets, then predict.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Train from scratch on the given samples. `x` rows must share one
  /// dimensionality; |x| == |y| >= 1.
  virtual void fit(const std::vector<std::vector<double>>& x,
                   const std::vector<double>& y) = 0;

  virtual double predict(const std::vector<double>& x) const = 0;
  virtual bool trained() const = 0;
  virtual const char* name() const = 0;
};

/// Multivariate polynomial regression of a given degree, fitted with
/// ridge-regularised least squares — stays well-posed with as few as three
/// measurements, which is why the runtime exploration relies on it.
class PolynomialRegressor : public Regressor {
 public:
  explicit PolynomialRegressor(int degree);

  void fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override;
  double predict(const std::vector<double>& x) const override;
  bool trained() const override { return !coef_.empty(); }
  const char* name() const override;

  int degree() const { return degree_; }

  /// predict() on an input whose expand() is already at hand: `monomials`
  /// holds expand(x, degree()), so callers that predict the same inputs
  /// under many fits expand them once. Bit-identical to predict(x).
  double predict_expanded(const double* monomials, std::size_t count) const;

  /// Expand an input vector into its monomial features (all monomials of
  /// total degree <= degree, including the constant 1). Exposed for tests.
  static std::vector<double> expand(const std::vector<double>& x, int degree);

 private:
  int degree_;
  std::size_t input_dim_ = 0;
  std::vector<double> coef_;
};

/// Small fully connected network: one tanh hidden layer, linear output,
/// full-batch Adam, standardised inputs/targets. Deterministic for a seed.
class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(int hidden_units = 8, int epochs = 1500,
                        std::uint64_t seed = 1);

  void fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override;
  double predict(const std::vector<double>& x) const override;
  bool trained() const override { return trained_; }
  const char* name() const override { return "nn"; }

 private:
  int hidden_;
  int epochs_;
  std::uint64_t seed_;
  bool trained_ = false;

  // Parameters and input/output standardisation.
  std::vector<double> w1_, b1_, w2_;  // w1: hidden×in, w2: hidden
  double b2_ = 0.0;
  std::vector<double> x_mean_, x_std_;
  double y_mean_ = 0.0, y_std_ = 1.0;
};

/// ε-insensitive support vector regression with an RBF kernel, trained by
/// coordinate descent on the (bias-folded) dual.
class SvrRegressor : public Regressor {
 public:
  explicit SvrRegressor(double c = 10.0, double epsilon = 0.02, double gamma = 0.5,
                        int max_sweeps = 200);

  void fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override;
  double predict(const std::vector<double>& x) const override;
  bool trained() const override { return !beta_.empty(); }
  const char* name() const override { return "svm"; }

 private:
  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

  double c_, epsilon_, gamma_;
  int max_sweeps_;
  std::vector<std::vector<double>> support_;  // standardised training inputs
  std::vector<double> beta_;
  std::vector<double> x_mean_, x_std_;
  double y_mean_ = 0.0, y_std_ = 1.0;
};

/// Factory for the Fig. 5 model zoo: "poly1", "poly2", "poly3", "nn", "svm".
std::unique_ptr<Regressor> make_regressor(const std::string& kind, std::uint64_t seed = 1);

}  // namespace harp::ml
