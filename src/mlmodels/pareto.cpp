#include "src/mlmodels/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/check.hpp"

namespace harp::ml {

namespace {

/// `a` dominates `b`: <= everywhere, < somewhere (all objectives minimised).
bool dominates(const double* a, const double* b, std::size_t d) {
  bool strictly = false;
  for (std::size_t k = 0; k < d; ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly = true;
  }
  return strictly;
}

}  // namespace

void pareto_front(const double* rows, std::size_t n, std::size_t d, SkylineScratch& scratch,
                  std::vector<std::size_t>& front) {
  front.clear();
  for (std::size_t i = 0; i < n * d; ++i)
    HARP_CHECK_MSG(std::isfinite(rows[i]), "pareto_front: non-finite objective in row " << i / d);
  if (n == 0) return;
  if (d == 0) {  // nothing to compare: no row dominates another
    for (std::size_t i = 0; i < n; ++i) front.push_back(i);
    return;
  }

  // Lexicographic order, ties by index. The first objective sits beside
  // the index, so most comparisons never touch the rows.
  std::vector<SkylineScratch::Entry>& order = scratch.order;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = SkylineScratch::Entry{rows[i * d], static_cast<std::uint32_t>(i)};
  std::sort(order.begin(), order.end(),
            [rows, d](const SkylineScratch::Entry& a, const SkylineScratch::Entry& b) {
              if (a.first != b.first) return a.first < b.first;
              const double* ra = rows + static_cast<std::size_t>(a.row) * d;
              const double* rb = rows + static_cast<std::size_t>(b.row) * d;
              for (std::size_t k = 1; k < d; ++k) {
                if (ra[k] < rb[k]) return true;
                if (rb[k] < ra[k]) return false;
              }
              return a.row < b.row;
            });

  // Dominance is transitive and every dominator of a row sorts before it,
  // so a row dominated by a dropped row is dominated by a kept one too:
  // only kept rows need checking, newest (closest in the first objective,
  // the likeliest dominator) first.
  std::vector<double>& kept = scratch.kept;
  kept.clear();
  for (const SkylineScratch::Entry& entry : order) {
    const double* row = rows + static_cast<std::size_t>(entry.row) * d;
    bool dominated = false;
    for (std::size_t k = kept.size(); k > 0 && !dominated; k -= d)
      dominated = dominates(kept.data() + k - d, row, d);
    if (dominated) continue;
    kept.insert(kept.end(), row, row + d);
    front.push_back(entry.row);
  }
  std::sort(front.begin(), front.end());
}

std::vector<std::size_t> pareto_front(const std::vector<std::vector<double>>& objectives) {
  std::vector<double> rows;
  const std::size_t d = objectives.empty() ? 0 : objectives.front().size();
  rows.reserve(objectives.size() * d);
  for (const std::vector<double>& row : objectives) {
    HARP_CHECK(row.size() == d);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  SkylineScratch scratch;
  std::vector<std::size_t> front;
  pareto_front(rows.data(), objectives.size(), d, scratch, front);
  return front;
}

double igd(const std::vector<std::vector<double>>& reference_front,
           const std::vector<std::vector<double>>& approx_front) {
  HARP_CHECK(!reference_front.empty());
  if (approx_front.empty()) return 1e9;
  std::size_t dims = reference_front.front().size();

  // Normalise both fronts by the reference front's per-objective range.
  std::vector<double> lo(dims, 1e300), hi(dims, -1e300);
  for (const auto& p : reference_front) {
    HARP_CHECK(p.size() == dims);
    for (std::size_t k = 0; k < dims; ++k) {
      lo[k] = std::min(lo[k], p[k]);
      hi[k] = std::max(hi[k], p[k]);
    }
  }
  auto normalise = [&](const std::vector<double>& p) {
    std::vector<double> out(dims);
    for (std::size_t k = 0; k < dims; ++k) {
      double range = std::max(hi[k] - lo[k], 1e-12);
      out[k] = (p[k] - lo[k]) / range;
    }
    return out;
  };

  double sum = 0.0;
  for (const auto& ref : reference_front) {
    std::vector<double> rn = normalise(ref);
    double best = 1e300;
    for (const auto& approx : approx_front) {
      HARP_CHECK(approx.size() == dims);
      std::vector<double> an = normalise(approx);
      double d2 = 0.0;
      for (std::size_t k = 0; k < dims; ++k) d2 += (rn[k] - an[k]) * (rn[k] - an[k]);
      best = std::min(best, d2);
    }
    sum += std::sqrt(best);
  }
  return sum / static_cast<double>(reference_front.size());
}

double common_point_ratio(const std::vector<std::size_t>& reference_keys,
                          const std::vector<std::size_t>& approx_keys) {
  HARP_CHECK(!reference_keys.empty());
  std::set<std::size_t> approx(approx_keys.begin(), approx_keys.end());
  std::size_t common = 0;
  for (std::size_t key : reference_keys)
    if (approx.count(key) > 0) ++common;
  return static_cast<double>(common) / static_cast<double>(reference_keys.size());
}

}  // namespace harp::ml
