#include "src/harp/operating_point.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.hpp"

namespace harp::core {

double energy_utility_cost(const NonFunctional& nfc, double utility_max) {
  HARP_CHECK(utility_max > 0.0);
  // Zero power costs nothing at any utility. Computed, it would be 0·∞ =
  // NaN once v* is so small that 1/v* overflows (utility 0 beside a utility
  // maximum of 1e300).
  if (nfc.power_w == 0.0) return nfc.power_w;
  double v_star = std::max(nfc.utility, 1e-9) / utility_max;
  double zeta = (nfc.power_w / v_star) * (1.0 / v_star);
  // Only non-finite inputs get here with a NaN: such a point is never worth
  // choosing.
  return std::isnan(zeta) ? std::numeric_limits<double>::infinity() : zeta;
}

void OperatingPointTable::record_measurement(const platform::ExtendedResourceVector& erv,
                                             double utility, double power_w) {
  Entry& entry = points_[erv];
  entry.point.erv = erv;
  entry.utility_ema.add(utility);
  entry.power_ema.add(power_w);
  entry.point.nfc.utility = entry.utility_ema.value();
  entry.point.nfc.power_w = entry.power_ema.value();
  ++entry.point.measurements;
  ++version_;
}

void OperatingPointTable::set_point(const platform::ExtendedResourceVector& erv,
                                    NonFunctional nfc) {
  Entry& entry = points_[erv];
  entry.point.erv = erv;
  entry.point.nfc = nfc;
  // Seed the EMAs so later runtime refinement smooths from this value.
  entry.utility_ema.reset();
  entry.power_ema.reset();
  entry.utility_ema.add(nfc.utility);
  entry.power_ema.add(nfc.power_w);
  ++version_;
}

bool OperatingPointTable::contains(const platform::ExtendedResourceVector& erv) const {
  return points_.count(erv) > 0;
}

const OperatingPoint* OperatingPointTable::find(
    const platform::ExtendedResourceVector& erv) const {
  auto it = points_.find(erv);
  return it == points_.end() ? nullptr : &it->second.point;
}

std::vector<OperatingPoint> OperatingPointTable::points(int min_measurements) const {
  std::vector<OperatingPoint> out;
  for (const auto& [erv, entry] : points_)
    if (entry.point.measurements >= min_measurements) out.push_back(entry.point);
  return out;
}

std::size_t OperatingPointTable::count_points(int min_measurements) const {
  std::size_t count = 0;
  for (const auto& [erv, entry] : points_)
    if (entry.point.measurements >= min_measurements) ++count;
  return count;
}

double OperatingPointTable::utility_max() const {
  double best = 0.0;
  for (const auto& [erv, entry] : points_) best = std::max(best, entry.point.nfc.utility);
  return best;
}

double OperatingPointTable::cost_of(const OperatingPoint& point) const {
  return energy_utility_cost(point.nfc, std::max(utility_max(), 1e-9));
}

json::Value OperatingPointTable::to_json() const {
  json::Array points;
  for (const auto& [erv, entry] : points_) {
    json::Object o;
    o["resources"] = entry.point.erv.to_json();
    o["utility"] = entry.point.nfc.utility;
    o["power"] = entry.point.nfc.power_w;
    o["measurements"] = entry.point.measurements;
    points.emplace_back(std::move(o));
  }
  json::Object root;
  root["application"] = app_name_;
  root["operating_points"] = json::Value(std::move(points));
  return json::Value(std::move(root));
}

Result<OperatingPointTable> OperatingPointTable::from_json(const json::Value& value) {
  if (!value.is_object() || !value.contains("application") ||
      !value.contains("operating_points"))
    return Result<OperatingPointTable>(
        make_error("parse: description needs 'application' and 'operating_points'"));
  OperatingPointTable table(value.at("application").as_string());
  if (!value.at("operating_points").is_array())
    return Result<OperatingPointTable>(make_error("parse: 'operating_points' must be an array"));
  for (const json::Value& pv : value.at("operating_points").as_array()) {
    if (!pv.is_object() || !pv.contains("resources") || !pv.contains("utility") ||
        !pv.contains("power"))
      return Result<OperatingPointTable>(
          make_error("parse: operating point needs resources/utility/power"));
    auto erv = platform::ExtendedResourceVector::from_json(pv.at("resources"));
    if (!erv.ok()) return Result<OperatingPointTable>(erv.error());
    NonFunctional nfc{pv.at("utility").as_number(), pv.at("power").as_number()};
    if (!std::isfinite(nfc.utility) || !std::isfinite(nfc.power_w))
      return Result<OperatingPointTable>(make_error("parse: non-finite characteristics"));
    if (nfc.utility < 0.0 || nfc.power_w < 0.0)
      return Result<OperatingPointTable>(make_error("parse: negative characteristics"));
    table.set_point(erv.value(), nfc);
    auto& entry = table.points_.at(erv.value());
    entry.point.measurements = static_cast<int>(pv.int_or("measurements", 0));
  }
  return table;
}

Result<OperatingPointTable> OperatingPointTable::load(const std::string& path) {
  Result<json::Value> doc = json::load_file(path);
  if (!doc.ok()) return Result<OperatingPointTable>(doc.error());
  return from_json(doc.value());
}

Status OperatingPointTable::save(const std::string& path) const {
  return json::save_file(path, to_json());
}

}  // namespace harp::core
