// Shared pieces of the rmbench harness: the run clock, latency samples with
// refused tail percentiles, the result record printed as the last stdout
// line, the grant-invariant oracle, and the open-loop pacing helper.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/ipc/messages.hpp"
#include "src/platform/hardware.hpp"
#include "src/platform/resource_vector.hpp"

namespace rmbench {

/// The harness's clock, in seconds at the reference speed. The shared host's
/// speed drifts by 10–40 % over seconds and minutes, and every timing drifts
/// with it. So the clock counts the harness thread's CPU time, scaled by the
/// host-speed gauge's latest reading (gauge_block), plus the idle gaps it
/// skipped. The harness runs every workload on one thread and never idles:
/// when nothing is due, wait_until moves the clock forward to the next due
/// time instead of waiting for it. So the clock leaves out the time the host
/// gave to other guests or processes, and the RM's data stays warm between
/// events instead of being evicted by whatever ran in the gap. On a shared
/// host, idle gaps swung sub-millisecond latencies by 2x between runs.
double mono();

/// Move the clock forward to `due` if it is later (the idle gap is skipped).
/// Calls gauge_if_due first.
void wait_until(double due);

/// Run `fn` off the clock: it sees the clock advance as usual, and when it
/// returns the clock is set back to where it was. The measured window runs
/// its extra set-ups this way, so they cost its events nothing.
void off_clock(const std::function<void()>& fn);

/// Host-speed gauge: times a fixed reference kernel (the harness's own code,
/// not HARP's) `runs` times back to back after one warm-up run, and sets the
/// clock's speed to the reference kernel time over the median of the last 48
/// kernel runs. The block's own time is not on the clock.
void gauge_block(int runs);
/// A gauge block of 8 runs if 50 ms of CPU time passed since the last one.
void gauge_if_due();
/// Median kernel time of this run, in seconds, and its sample count.
double gauge_median_s();
std::size_t gauge_count();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Timing samples (seconds). Percentiles use nearest rank; a tail
/// percentile with fewer than ten samples beyond it is refused.
class Samples {
 public:
  void add(double seconds) { values_.push_back(seconds); }
  std::size_t count() const { return values_.size(); }
  double mean() const;
  /// Plain median (no refusal); 0 when empty.
  double median() const;
  /// Nearest-rank q-quantile, or nullopt when fewer than ten samples lie
  /// beyond it (the percentile is refused, not reported).
  std::optional<double> percentile(double q) const;

 private:
  std::vector<double> values_;
};

/// One reported metric; `value` empty = refused for lack of samples.
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a percentile (0 = n/a)
};

/// What one workload run reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< correctness failures, for stderr

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit, 0});
  }
  /// Percentile in milliseconds, carrying its sample count.
  void add_percentile_ms(const std::string& name, const Samples& samples, double q);
  void fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke runs print refused percentiles as null instead of failing.
  bool smoke = false;
  /// >0: print this many scheduled events and exit (self-test).
  int dump_schedule = 0;
};

/// Modelled power of an allocation shaped like `erv` on `hw`: active power
/// per used core plus thread power per extra SMT thread.
double model_power_w(const harp::platform::ExtendedResourceVector& erv,
                     const harp::platform::HardwareDescription& hw);

/// Grant-invariant oracle. Per activation: the grant realises its ERV, sits
/// inside the platform, and the ERV is one the app submitted (or a
/// fair-share point before the app's table reached the RM, or the
/// co-allocation full ERV with no cores). Across apps: no core is granted
/// twice and every per-type capacity holds.
class GrantOracle {
 public:
  explicit GrantOracle(harp::platform::HardwareDescription hw);

  /// Empty on success, else a description of the violation.
  std::string check_activation(const harp::platform::ExtendedResourceVector& erv,
                               const std::vector<harp::ipc::ActivateMsg::CoreGrant>& cores,
                               const std::set<harp::platform::ExtendedResourceVector>& submitted,
                               bool allow_fair_share) const;

  /// Joint check over the grants every live app currently holds.
  std::string check_joint(
      const std::vector<const std::vector<harp::ipc::ActivateMsg::CoreGrant>*>& grants);

 private:
  harp::platform::HardwareDescription hw_;
  harp::platform::ExtendedResourceVector full_;
  /// Fair-share candidates (enumerated lazily; only small platforms use it).
  mutable std::optional<std::set<harp::platform::ExtendedResourceVector>> coarse_;
  std::vector<std::vector<int>> occupancy_;  ///< [type][core] threads, check_joint scratch
};

/// One scheduled open-loop event (due time relative to the measured window).
struct Event {
  double due = 0.0;
  int kind = 0;
  int app = 0;
  std::uint64_t payload_seed = 0;

  bool operator<(const Event& other) const {
    if (due != other.due) return due < other.due;
    if (kind != other.kind) return kind < other.kind;
    return app < other.app;
  }
};

/// Poisson arrival times in [0, horizon) at `rate` per second, conditioned
/// on their count round(rate * horizon), so every seed yields the same
/// number of samples.
std::vector<double> poisson_times(std::uint64_t seed, double rate, double horizon);

/// Deterministic 64-bit mix for deriving per-stream seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace rmbench
