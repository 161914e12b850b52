// Operating points and per-application operating-point tables (§4.1.2,
// §4.2.1) — the central data structure linking the HARP RM and libharp.
//
// An operating point couples a configuration variant (represented towards
// the RM as an extended resource vector, even for fine-grained points) with
// *instant* non-functional characteristics: utility (IPS or an
// application-specific metric) and power. The RM normalises utility by the
// application's maximum observed utility v* and ranks points by the
// EDP-derived energy-utility cost ζ = (p / v*) · (1 / v*)   (Eq. 2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/stats.hpp"
#include "src/platform/resource_vector.hpp"

namespace harp::core {

/// Instant non-functional characteristics of one configuration variant.
struct NonFunctional {
  double utility = 0.0;  ///< useful-work rate (GIPS or app metric units)
  double power_w = 0.0;  ///< power attributed to the application
};

/// One operating point.
struct OperatingPoint {
  platform::ExtendedResourceVector erv;
  NonFunctional nfc;
  /// Number of runtime measurements folded into nfc (0 = predicted/offline).
  int measurements = 0;
};

/// Energy-utility cost ζ = (p/v*)·(1/v*), Eq. 2, with v* = utility/utility_max.
/// Guarded against non-positive utility (predicted points can be anomalous
/// before the refinement stage cleans them up). Never NaN: zero power costs
/// ±0, and a cost that no finite input reaches (a NaN or infinite
/// characteristic) is +∞. The solver's sorted cost mirror relies on it.
double energy_utility_cost(const NonFunctional& nfc, double utility_max);

/// Per-application set of operating points, keyed by extended resource
/// vector. Measured points are smoothed with an EMA (α = 0.1, §5.1);
/// predicted or offline points are stored verbatim.
class OperatingPointTable {
 public:
  OperatingPointTable() = default;
  explicit OperatingPointTable(std::string app_name) : app_name_(std::move(app_name)) {}

  const std::string& app_name() const { return app_name_; }

  /// Fold one runtime measurement into the point for `erv`.
  void record_measurement(const platform::ExtendedResourceVector& erv, double utility,
                          double power_w);

  /// Install an offline/predicted point (overwrites any prior value and
  /// resets its measurement count to 0 unless it was measured).
  void set_point(const platform::ExtendedResourceVector& erv, NonFunctional nfc);

  /// Monotonic mutation counter: bumped by record_measurement() and
  /// set_point(). The RM's dirty-tracked group cache compares it against the
  /// version a cached AllocationGroup was built from; an unchanged version
  /// guarantees an unchanged table (the converse need not hold — a rebuild on
  /// an equal-content bump is merely wasted work, never stale data).
  std::uint64_t version() const { return version_; }

  bool contains(const platform::ExtendedResourceVector& erv) const;
  const OperatingPoint* find(const platform::ExtendedResourceVector& erv) const;
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Points with at least `min_measurements` measurements (0 = everything).
  std::vector<OperatingPoint> points(int min_measurements = 0) const;
  /// points(min_measurements).size(), counted in place.
  std::size_t count_points(int min_measurements) const;

  /// Maximum utility across all points — the v* normaliser.
  double utility_max() const;

  /// ζ of a stored point under this table's normaliser.
  double cost_of(const OperatingPoint& point) const;

  /// Serialisation — the application description file format (§4.3): a JSON
  /// document {"application": name, "operating_points": [{resources, utility,
  /// power, measurements}...]}.
  json::Value to_json() const;
  static Result<OperatingPointTable> from_json(const json::Value& value);
  static Result<OperatingPointTable> load(const std::string& path);
  Status save(const std::string& path) const;

 private:
  struct Entry {
    OperatingPoint point;
    Ema utility_ema{0.1};
    Ema power_ema{0.1};
  };

  std::string app_name_;
  std::map<platform::ExtendedResourceVector, Entry> points_;
  std::uint64_t version_ = 0;
};

}  // namespace harp::core
