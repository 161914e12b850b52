// harp-lint: hot-path — the allocator's inner loops read these vectors per
// candidate per solve; r6 flags std::vector/std::string construction inside
// loops in this file.
#include "src/platform/resource_vector.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "src/common/check.hpp"

namespace harp::platform {

ExtendedResourceVector ExtendedResourceVector::zero(const HardwareDescription& hw) {
  ExtendedResourceVector erv;
  erv.counts_.resize(hw.core_types.size());
  for (std::size_t t = 0; t < hw.core_types.size(); ++t)
    erv.counts_[t].assign(static_cast<std::size_t>(hw.core_types[t].smt_width), 0);
  return erv;
}

ExtendedResourceVector ExtendedResourceVector::full(const HardwareDescription& hw) {
  ExtendedResourceVector erv = zero(hw);
  for (std::size_t t = 0; t < hw.core_types.size(); ++t)
    erv.counts_[t].back() = hw.core_types[t].core_count;
  erv.recompute_total_cores();
  return erv;
}

ExtendedResourceVector ExtendedResourceVector::from_threads(const HardwareDescription& hw,
                                                            const std::vector<int>& threads) {
  HARP_CHECK(threads.size() == hw.core_types.size());
  ExtendedResourceVector erv = zero(hw);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const CoreType& type = hw.core_types[t];
    int want = threads[t];
    HARP_CHECK_MSG(want >= 0 && want <= type.core_count * type.smt_width,
                   "thread demand " << want << " exceeds type capacity");
    int full_cores = want / type.smt_width;
    int remainder = want % type.smt_width;
    if (full_cores > 0) erv.counts_[t][static_cast<std::size_t>(type.smt_width - 1)] = full_cores;
    if (remainder > 0) erv.counts_[t][static_cast<std::size_t>(remainder - 1)] += 1;
  }
  erv.recompute_total_cores();
  return erv;
}

ExtendedResourceVector ExtendedResourceVector::from_counts(std::vector<std::vector<int>> counts) {
  HARP_CHECK(!counts.empty());
  for (const auto& buckets : counts) {
    HARP_CHECK(!buckets.empty());
    for (int c : buckets) HARP_CHECK(c >= 0);
  }
  ExtendedResourceVector erv;
  erv.counts_ = std::move(counts);
  erv.recompute_total_cores();
  return erv;
}

int ExtendedResourceVector::smt_levels(int type) const {
  HARP_CHECK(type >= 0 && type < num_types());
  return static_cast<int>(counts_[static_cast<std::size_t>(type)].size());
}

int ExtendedResourceVector::count(int type, int threads_per_core) const {
  HARP_CHECK(type >= 0 && type < num_types());
  HARP_CHECK(threads_per_core >= 1 && threads_per_core <= smt_levels(type));
  return counts_[static_cast<std::size_t>(type)][static_cast<std::size_t>(threads_per_core - 1)];
}

void ExtendedResourceVector::set_count(int type, int threads_per_core, int cores) {
  HARP_CHECK(type >= 0 && type < num_types());
  HARP_CHECK(threads_per_core >= 1 && threads_per_core <= smt_levels(type));
  HARP_CHECK(cores >= 0);
  int& slot = counts_[static_cast<std::size_t>(type)][static_cast<std::size_t>(threads_per_core - 1)];
  total_cores_ += cores - slot;
  slot = cores;
}

int ExtendedResourceVector::cores_used(int type) const {
  HARP_CHECK(type >= 0 && type < num_types());
  int sum = 0;
  for (int c : counts_[static_cast<std::size_t>(type)]) sum += c;
  return sum;
}

int ExtendedResourceVector::threads(int type) const {
  HARP_CHECK(type >= 0 && type < num_types());
  const auto& buckets = counts_[static_cast<std::size_t>(type)];
  int sum = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) sum += buckets[k] * static_cast<int>(k + 1);
  return sum;
}

int ExtendedResourceVector::total_threads() const {
  int sum = 0;
  for (int t = 0; t < num_types(); ++t) sum += threads(t);
  return sum;
}

void ExtendedResourceVector::recompute_total_cores() {
  total_cores_ = 0;
  for (int t = 0; t < num_types(); ++t) total_cores_ += cores_used(t);
}

std::vector<int> ExtendedResourceVector::core_usage() const {
  std::vector<int> usage(static_cast<std::size_t>(num_types()));
  write_core_usage(usage.data());
  return usage;
}

void ExtendedResourceVector::write_core_usage(int* out) const {
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    int sum = 0;
    for (int c : counts_[t]) sum += c;
    out[t] = sum;
  }
}

std::vector<double> ExtendedResourceVector::feature_vector() const {
  std::vector<double> features;
  for (const auto& buckets : counts_)
    for (int c : buckets) features.push_back(static_cast<double>(c));
  return features;
}

double ExtendedResourceVector::normalized_distance(const ExtendedResourceVector& other,
                                                   const HardwareDescription& hw) const {
  HARP_CHECK(counts_.size() == other.counts_.size());
  HARP_CHECK(counts_.size() == hw.core_types.size());
  double sum = 0.0;
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    HARP_CHECK(counts_[t].size() == other.counts_[t].size());
    double denom = static_cast<double>(hw.core_types[t].core_count);
    for (std::size_t k = 0; k < counts_[t].size(); ++k) {
      double d = static_cast<double>(counts_[t][k] - other.counts_[t][k]) / denom;
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

bool ExtendedResourceVector::fits(const HardwareDescription& hw) const {
  if (static_cast<std::size_t>(num_types()) != hw.core_types.size()) return false;
  for (int t = 0; t < num_types(); ++t) {
    if (smt_levels(t) != hw.core_types[static_cast<std::size_t>(t)].smt_width) return false;
    if (cores_used(t) > hw.core_types[static_cast<std::size_t>(t)].core_count) return false;
  }
  return true;
}

std::string ExtendedResourceVector::to_string(const HardwareDescription& hw) const {
  HARP_CHECK(static_cast<std::size_t>(num_types()) == hw.core_types.size());
  std::ostringstream oss;
  for (int t = 0; t < num_types(); ++t) {
    if (t > 0) oss << ' ';
    oss << hw.core_types[static_cast<std::size_t>(t)].name << '[';
    bool first = true;
    for (int k = 1; k <= smt_levels(t); ++k) {
      int c = count(t, k);
      if (c == 0) continue;
      if (!first) oss << ',';
      oss << c << 'x' << k << 't';
      first = false;
    }
    oss << ']';
  }
  return oss.str();
}

json::Value ExtendedResourceVector::to_json() const {
  json::Array types;
  for (const auto& buckets : counts_) {
    json::Array levels;
    for (int c : buckets) levels.emplace_back(c);
    types.emplace_back(std::move(levels));
  }
  return json::Value(std::move(types));
}

Result<ExtendedResourceVector> ExtendedResourceVector::from_json(const json::Value& value) {
  if (!value.is_array())
    return Result<ExtendedResourceVector>(make_error("parse: resource vector must be an array"));
  ExtendedResourceVector erv;
  std::vector<int> buckets;
  for (const json::Value& type_value : value.as_array()) {
    if (!type_value.is_array())
      return Result<ExtendedResourceVector>(make_error("parse: resource vector rows must be arrays"));
    buckets.clear();
    for (const json::Value& c : type_value.as_array()) {
      if (!c.is_number() || c.as_int() < 0)
        return Result<ExtendedResourceVector>(make_error("parse: resource counts must be >= 0"));
      buckets.push_back(static_cast<int>(c.as_int()));
    }
    if (buckets.empty())
      return Result<ExtendedResourceVector>(make_error("parse: resource vector row is empty"));
    erv.counts_.push_back(std::move(buckets));
  }
  if (erv.counts_.empty())
    return Result<ExtendedResourceVector>(make_error("parse: resource vector is empty"));
  erv.recompute_total_cores();
  return erv;
}

namespace {
/// Recursively enumerate SMT-level distributions for one type: every vector
/// (n_1, …, n_smt) with Σ n_k ≤ core_count.
void enumerate_type(int core_count, int smt_levels, std::vector<int>& current,
                    std::vector<std::vector<int>>& out) {
  if (static_cast<int>(current.size()) == smt_levels) {
    out.push_back(current);
    return;
  }
  int used = 0;
  for (int c : current) used += c;
  for (int n = 0; n <= core_count - used; ++n) {
    current.push_back(n);
    enumerate_type(core_count, smt_levels, current, out);
    current.pop_back();
  }
}
}  // namespace

std::vector<ExtendedResourceVector> enumerate_coarse_points(const HardwareDescription& hw) {
  std::vector<std::vector<std::vector<int>>> per_type_options;
  per_type_options.reserve(hw.core_types.size());
  std::vector<int> current;
  for (const CoreType& t : hw.core_types) {
    current.clear();
    enumerate_type(t.core_count, t.smt_width, current, per_type_options.emplace_back());
  }

  std::vector<ExtendedResourceVector> out;
  std::vector<std::size_t> index(per_type_options.size(), 0);
  while (true) {
    ExtendedResourceVector erv = ExtendedResourceVector::zero(hw);
    for (std::size_t t = 0; t < per_type_options.size(); ++t) {
      const std::vector<int>& buckets = per_type_options[t][index[t]];
      for (std::size_t k = 0; k < buckets.size(); ++k)
        erv.set_count(static_cast<int>(t), static_cast<int>(k + 1), buckets[k]);
    }
    if (!erv.is_zero()) out.push_back(std::move(erv));

    // Odometer increment over the per-type option lists.
    std::size_t t = 0;
    while (t < index.size()) {
      if (++index[t] < per_type_options[t].size()) break;
      index[t] = 0;
      ++t;
    }
    if (t == index.size()) break;
  }
  return out;
}

std::uint64_t coarse_point_count(const HardwareDescription& hw) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Saturating a·b.
  auto mul = [](std::uint64_t a, std::uint64_t b) {
    return b != 0 && a > kMax / b ? kMax : a * b;
  };
  std::uint64_t product = 1;
  for (const CoreType& t : hw.core_types) {
    // C(n + s, s) = Π_{k=1..s} (n + k) / k; each partial product is itself
    // a binomial coefficient, so every division is exact.
    std::uint64_t binomial = 1;
    for (int k = 1; k <= t.smt_width; ++k) {
      std::uint64_t grown = mul(binomial, static_cast<std::uint64_t>(t.core_count + k));
      if (grown == kMax) return kMax;
      binomial = grown / static_cast<std::uint64_t>(k);
    }
    product = mul(product, binomial);
  }
  return product == kMax ? kMax : product - 1;
}

CoreAllocation CoreAllocation::empty(const HardwareDescription& hw) {
  CoreAllocation alloc;
  alloc.cores.resize(hw.core_types.size());
  return alloc;
}

int CoreAllocation::total_threads() const {
  int sum = 0;
  for (const auto& type_cores : cores)
    for (const auto& [core, threads] : type_cores) sum += threads;
  return sum;
}

ExtendedResourceVector CoreAllocation::to_erv(const HardwareDescription& hw) const {
  ExtendedResourceVector erv = ExtendedResourceVector::zero(hw);
  HARP_CHECK(cores.size() == hw.core_types.size());
  for (std::size_t t = 0; t < cores.size(); ++t) {
    for (const auto& [core, threads] : cores[t]) {
      (void)core;
      HARP_CHECK(threads >= 1 && threads <= hw.core_types[t].smt_width);
      erv.set_count(static_cast<int>(t), threads,
                    erv.count(static_cast<int>(t), threads) + 1);
    }
  }
  return erv;
}

std::string CoreAllocation::to_string() const {
  std::ostringstream oss;
  for (std::size_t t = 0; t < cores.size(); ++t) {
    if (t > 0) oss << ' ';
    oss << "t" << t << ":{";
    for (std::size_t i = 0; i < cores[t].size(); ++i) {
      if (i > 0) oss << ',';
      oss << cores[t][i].first << 'x' << cores[t][i].second;
    }
    oss << '}';
  }
  return oss.str();
}

Result<std::vector<CoreAllocation>> assign_cores(
    const HardwareDescription& hw, const std::vector<ExtendedResourceVector>& demands) {
  std::vector<const ExtendedResourceVector*> ptrs;
  ptrs.reserve(demands.size());
  for (const ExtendedResourceVector& erv : demands) ptrs.push_back(&erv);
  std::vector<int> next_free;
  std::vector<CoreAllocation> out;
  Status status = assign_cores_into(hw, ptrs, next_free, out);
  if (!status.ok()) return Result<std::vector<CoreAllocation>>(status.error());
  return out;
}

Status assign_cores_into(const HardwareDescription& hw,
                         const std::vector<const ExtendedResourceVector*>& demands,
                         std::vector<int>& next_free_scratch,
                         std::vector<CoreAllocation>& out) {
  const std::size_t num_types = hw.core_types.size();
  out.resize(demands.size());
  // next_free_scratch[t] = first unassigned physical core id of type t.
  next_free_scratch.assign(num_types, 0);

  for (std::size_t g = 0; g < demands.size(); ++g) {
    const ExtendedResourceVector& erv = *demands[g];
    if (static_cast<std::size_t>(erv.num_types()) != num_types)
      return Status(make_error("assign: resource vector shape mismatch"));
    CoreAllocation& alloc = out[g];
    alloc.cores.resize(num_types);
    for (auto& type_cores : alloc.cores) type_cores.clear();
    for (std::size_t t = 0; t < num_types; ++t) {
      // Hand out denser (more-threads-per-core) buckets first so SMT pairs
      // land on dedicated cores.
      for (int k = erv.smt_levels(static_cast<int>(t)); k >= 1; --k) {
        for (int i = 0; i < erv.count(static_cast<int>(t), k); ++i) {
          if (next_free_scratch[t] >= hw.core_types[t].core_count)
            return Status(
                make_error("assign: demand exceeds capacity for type " + hw.core_types[t].name));
          alloc.cores[t].emplace_back(next_free_scratch[t]++, k);
        }
      }
    }
  }
  return Status();
}

}  // namespace harp::platform
