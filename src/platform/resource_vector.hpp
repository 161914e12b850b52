// Extended resource vectors (§4.1.2) and concrete core allocations.
//
// A coarse-grained operating point describes its resource demand with an
// *extended resource vector*: per core type, how many cores are used with
// how many busy hardware threads each. The paper's example — 4 E-cores plus
// 3 P-cores of which two use both hyperthreads — is [1, 2, 4]ᵀ: one P-core
// at 1 thread, two P-cores at 2 threads, four E-cores.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.hpp"
#include "src/json/json.hpp"
#include "src/platform/hardware.hpp"

namespace harp::platform {

/// Extended resource vector: counts_[t][k] = number of cores of type t with
/// exactly (k+1) busy hardware threads. Value semantics; totally ordered so
/// it can key std::map (operating-point tables).
class ExtendedResourceVector {
 public:
  ExtendedResourceVector() = default;

  /// All-zero vector shaped for `hw` (one bucket per SMT level per type).
  static ExtendedResourceVector zero(const HardwareDescription& hw);
  /// Every core of every type busy at full SMT width.
  static ExtendedResourceVector full(const HardwareDescription& hw);
  /// Vector using `threads[t]` hardware threads of type t, packed to use as
  /// few cores as possible (fill SMT first). threads[t] must not exceed the
  /// type's hardware-thread count.
  static ExtendedResourceVector from_threads(const HardwareDescription& hw,
                                             const std::vector<int>& threads);
  /// Vector from raw bucket counts: counts[t][k] = cores of type t with
  /// (k+1) busy hardware threads. Used by the wire codec; all counts >= 0
  /// and at least one type required.
  static ExtendedResourceVector from_counts(std::vector<std::vector<int>> counts);

  int num_types() const { return static_cast<int>(counts_.size()); }
  int smt_levels(int type) const;

  /// Number of cores of `type` with exactly `threads_per_core` busy threads.
  int count(int type, int threads_per_core) const;
  void set_count(int type, int threads_per_core, int cores);

  /// Physical cores of `type` in use (any SMT level).
  int cores_used(int type) const;
  /// Busy hardware threads of `type`.
  int threads(int type) const;
  int total_threads() const;
  /// Total physical cores in use. O(1): maintained as a cache across all
  /// mutations — this is the inner comparison of the allocator's
  /// minimum-footprint scans, called per candidate per solve.
  int total_cores() const { return total_cores_; }
  bool is_zero() const { return total_threads() == 0; }

  /// Per-type cores-used vector — the weight vector of constraint (1b).
  std::vector<int> core_usage() const;

  /// Allocation-free variant of core_usage(): writes num_types() ints to
  /// `out`. The allocator hot path uses this to build flat usage rows.
  void write_core_usage(int* out) const;

  /// Flattened counts (type-major, SMT level ascending) — the regression
  /// feature vector of §5.2.
  std::vector<double> feature_vector() const;

  /// Euclidean distance between feature vectors, with each SMT bucket
  /// normalised by its type's core count so large E-clusters do not dominate.
  /// Used by the initial-stage farthest-point exploration heuristic (§5.3).
  double normalized_distance(const ExtendedResourceVector& other,
                             const HardwareDescription& hw) const;

  /// True if this vector alone fits within the platform's physical cores.
  bool fits(const HardwareDescription& hw) const;

  bool operator==(const ExtendedResourceVector& other) const { return counts_ == other.counts_; }
  bool operator<(const ExtendedResourceVector& other) const { return counts_ < other.counts_; }

  /// Human-readable form, e.g. "P[1x1t,2x2t] E[4x1t]".
  std::string to_string(const HardwareDescription& hw) const;

  json::Value to_json() const;
  static Result<ExtendedResourceVector> from_json(const json::Value& value);

 private:
  void recompute_total_cores();

  std::vector<std::vector<int>> counts_;
  /// Cached Σ_t cores_used(t); comparisons deliberately ignore it (it is a
  /// pure function of counts_).
  int total_cores_ = 0;
};

/// Enumerate every non-zero coarse-grained configuration of the platform:
/// all per-type distributions of cores over SMT levels. For Raptor Lake this
/// yields 764 candidates, for the Odroid 24 — the exploration search spaces.
std::vector<ExtendedResourceVector> enumerate_coarse_points(const HardwareDescription& hw);

/// How many points enumerate_coarse_points(hw) would return, computed
/// without enumerating: Π_t C(n_t + s_t, s_t) − 1 for n_t cores of SMT
/// width s_t. Saturates at UINT64_MAX on platforms too wide to count.
std::uint64_t coarse_point_count(const HardwareDescription& hw);

/// A concrete, spatially isolated allocation: which physical cores an
/// application received and how many hardware threads it may run on each.
struct CoreAllocation {
  /// cores[type] = list of (core_id, busy_thread_count).
  std::vector<std::vector<std::pair<int, int>>> cores;

  static CoreAllocation empty(const HardwareDescription& hw);
  int total_threads() const;
  bool is_empty() const { return total_threads() == 0; }
  /// The extended resource vector this concrete allocation realises.
  ExtendedResourceVector to_erv(const HardwareDescription& hw) const;
  std::string to_string() const;
};

/// First-fit assignment of concrete cores to per-application ERVs with
/// spatial isolation (§4 step 3: the RM "adjusts it to ensure spatial
/// isolation among running applications"). Returns one CoreAllocation per
/// input ERV; fails (error Result) if the ERVs jointly exceed capacity.
Result<std::vector<CoreAllocation>> assign_cores(
    const HardwareDescription& hw, const std::vector<ExtendedResourceVector>& demands);

/// In-place variant used by the allocator hot path: identical assignment to
/// assign_cores(), but reuses `out`'s nested buffers and the caller's
/// `next_free_scratch`, so a steady-state call (same demand shapes as the
/// previous cycle) performs no heap allocation. `out` is unspecified on
/// error.
Status assign_cores_into(const HardwareDescription& hw,
                         const std::vector<const ExtendedResourceVector*>& demands,
                         std::vector<int>& next_free_scratch,
                         std::vector<CoreAllocation>& out);

}  // namespace harp::platform
