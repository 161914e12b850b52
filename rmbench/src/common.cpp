#include "rmbench/src/common.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "src/common/rng.hpp"

namespace rmbench {

using harp::ipc::ActivateMsg;
using harp::platform::ExtendedResourceVector;

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The reference kernel's median time at the reference speed: a quiet
/// 4-vCPU Intel Xeon (Sapphire Rapids) virtual machine.
constexpr double kReferenceKernelS = 30e-6;
/// A gauge block runs at most once per kGaugeEvery seconds of CPU time, and
/// the speed is the median of the last kGaugeWindow kernel runs.
constexpr double kGaugeEvery = 0.05;
constexpr int kGaugeBlock = 8;
constexpr std::size_t kGaugeWindow = 48;

struct Clock {
  double cpu = thread_cpu_seconds();  ///< CPU time at the last reading
  double seconds = 0.0;               ///< reference-speed seconds so far
  double skipped = 0.0;               ///< idle gaps skipped (wait_until)
  double factor = 1.0;                ///< reference / recent kernel time
  std::vector<double> recent;         ///< last kGaugeWindow kernel times
  std::size_t next = 0;               ///< ring position in `recent`
  Samples all;                        ///< every kernel time of the run
  double last_block = -1.0;           ///< CPU time the last block ended
};

Clock& clock_state() {
  static Clock clock;
  return clock;
}

volatile double gauge_sink = 0.0;

/// Identical work on every call: tree inserts and an in-order walk, a sort
/// and some libm calls, the mix of the RM's own code.
double reference_kernel() {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::map<std::uint32_t, double> tree;
  for (int i = 0; i < 192; ++i) tree[static_cast<std::uint32_t>(next() % 4096)] = i;
  std::vector<double> values(768);
  for (double& v : values) v = static_cast<double>(next() >> 11) * 0x1p-53;
  std::sort(values.begin(), values.end());
  double acc = 0.0;
  for (const auto& [key, value] : tree) acc += std::sqrt(value + key);
  for (std::size_t i = 0; i < values.size(); i += 3) acc += std::exp(-values[i]);
  return acc;
}

}  // namespace

double mono() {
  Clock& c = clock_state();
  const double cpu = thread_cpu_seconds();
  c.seconds += (cpu - c.cpu) * c.factor;
  c.cpu = cpu;
  return c.seconds + c.skipped;
}

void wait_until(double due) {
  gauge_if_due();
  const double now = mono();
  if (due > now) clock_state().skipped += due - now;
}

void gauge_block(int runs) {
  Clock& c = clock_state();
  mono();  // settle the time before the block at the old speed
  gauge_sink = gauge_sink + reference_kernel();  // warm-up, not recorded
  for (int i = 0; i < runs; ++i) {
    const double t0 = thread_cpu_seconds();
    gauge_sink = gauge_sink + reference_kernel();
    const double t = thread_cpu_seconds() - t0;
    c.all.add(t);
    if (c.recent.size() < kGaugeWindow) {
      c.recent.push_back(t);
    } else {
      c.recent[c.next] = t;
      c.next = (c.next + 1) % kGaugeWindow;
    }
  }
  std::vector<double> sorted = c.recent;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(sorted.size() / 2),
                   sorted.end());
  c.factor = kReferenceKernelS / sorted[sorted.size() / 2];
  // The block itself is not on the clock.
  c.cpu = c.last_block = thread_cpu_seconds();
}

void off_clock(const std::function<void()>& fn) {
  Clock& c = clock_state();
  mono();  // bring the clock up to date
  const double resume_at = c.seconds;
  fn();
  // Continue from where the clock stood before `fn`.
  c.seconds = resume_at;
  c.cpu = thread_cpu_seconds();
}

void gauge_if_due() {
  if (thread_cpu_seconds() - clock_state().last_block >= kGaugeEvery) gauge_block(kGaugeBlock);
}

double gauge_median_s() { return clock_state().all.median(); }

std::size_t gauge_count() { return clock_state().all.count(); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so under a
  // launcher it reports the launcher's peak when that one is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::optional<double> Samples::percentile(double q) const {
  const std::size_t n = values_.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or below.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1), sorted.end());
  return sorted[rank - 1];
}

void Report::add_percentile_ms(const std::string& name, const Samples& samples, double q) {
  std::optional<double> value = samples.percentile(q);
  if (value.has_value()) *value *= 1e3;
  metrics.push_back(Metric{name, value, "ms", samples.count()});
}

double model_power_w(const ExtendedResourceVector& erv,
                     const harp::platform::HardwareDescription& hw) {
  double power = 0.0;
  for (int t = 0; t < erv.num_types(); ++t) {
    const harp::platform::CoreType& type = hw.core_types[static_cast<std::size_t>(t)];
    const int cores = erv.cores_used(t);
    power += type.active_power_w * cores + type.thread_power_w * (erv.threads(t) - cores);
  }
  return power;
}

GrantOracle::GrantOracle(harp::platform::HardwareDescription hw)
    : hw_(std::move(hw)), full_(ExtendedResourceVector::full(hw_)) {
  for (const harp::platform::CoreType& type : hw_.core_types)
    occupancy_.emplace_back(static_cast<std::size_t>(type.core_count), 0);
}

std::string GrantOracle::check_activation(const ExtendedResourceVector& erv,
                                          const std::vector<ActivateMsg::CoreGrant>& cores,
                                          const std::set<ExtendedResourceVector>& submitted,
                                          bool allow_fair_share) const {
  if (erv == full_) {
    // Co-allocation: the whole machine, OS-scheduled, no exclusive cores.
    return cores.empty() ? std::string() : "co-allocation activation carries core grants";
  }
  if (submitted.count(erv) == 0) {
    if (!allow_fair_share) return "activation ERV was never submitted by the app";
    if (!coarse_.has_value()) {
      std::vector<ExtendedResourceVector> all = harp::platform::enumerate_coarse_points(hw_);
      coarse_.emplace(all.begin(), all.end());
    }
    if (coarse_->count(erv) == 0) return "fair-share ERV is not a coarse point of the platform";
  }
  // The concrete grant must realise exactly the ERV.
  const int types = static_cast<int>(hw_.core_types.size());
  std::vector<std::vector<int>> counts(static_cast<std::size_t>(types));
  for (int t = 0; t < types; ++t)
    counts[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(hw_.core_types[static_cast<std::size_t>(t)].smt_width), 0);
  for (const ActivateMsg::CoreGrant& grant : cores) {
    if (grant.type < 0 || grant.type >= types) return "grant names an unknown core type";
    const harp::platform::CoreType& type = hw_.core_types[static_cast<std::size_t>(grant.type)];
    if (grant.core < 0 || grant.core >= type.core_count) return "grant core id out of range";
    if (grant.threads < 1 || grant.threads > type.smt_width) return "grant thread count out of range";
    ++counts[static_cast<std::size_t>(grant.type)][static_cast<std::size_t>(grant.threads - 1)];
  }
  if (!(ExtendedResourceVector::from_counts(counts) == erv))
    return "core grant does not realise the activation ERV";
  return std::string();
}

std::string GrantOracle::check_joint(
    const std::vector<const std::vector<ActivateMsg::CoreGrant>*>& grants) {
  for (std::vector<int>& per_type : occupancy_) std::fill(per_type.begin(), per_type.end(), 0);
  std::vector<int> used(hw_.core_types.size(), 0);
  for (const std::vector<ActivateMsg::CoreGrant>* app : grants) {
    for (const ActivateMsg::CoreGrant& grant : *app) {
      const std::size_t t = static_cast<std::size_t>(grant.type);
      int& slot = occupancy_[t][static_cast<std::size_t>(grant.core)];
      if (slot != 0) {
        std::ostringstream oss;
        oss << "core " << grant.core << " of type " << grant.type << " granted to two apps";
        return oss.str();
      }
      slot = grant.threads;
      if (++used[t] > hw_.core_types[t].core_count) return "per-type core capacity exceeded";
    }
  }
  return std::string();
}

std::vector<double> poisson_times(std::uint64_t seed, double rate, double horizon) {
  // Given their count, Poisson arrivals are uniform order statistics.
  harp::Rng rng(seed);
  const std::size_t count = static_cast<std::size_t>(std::llround(rate * horizon));
  std::vector<double> times(count);
  for (double& t : times) t = rng.uniform(0.0, horizon);
  std::sort(times.begin(), times.end());
  return times;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace rmbench
