// Multi-objective Pareto tools: front extraction, Inverted Generational
// Distance (IGD), and the common-operating-point ratio — the metrics the
// paper uses to compare predicted Pareto fronts against the measured
// reference front (Fig. 5), plus the 4-objective fronts of Fig. 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace harp::ml {

/// Buffers the flat-row pareto_front() reuses across calls: a caller that
/// keeps one filters without heap allocation once it has grown.
struct SkylineScratch {
  struct Entry {
    double first;  ///< the row's first objective, the usual sort decider
    std::uint32_t row;
  };
  std::vector<Entry> order;  ///< rows in lexicographic order
  std::vector<double> kept;  ///< rows kept so far, row-major
};

/// Indices (ascending) of the Pareto-optimal rows among `n` rows of `d`
/// finite objectives stored row-major in `rows`, under minimisation of
/// every column. A row dominates another if it is <= in all objectives and
/// < in at least one, so equal rows never dominate each other: duplicate
/// non-dominated rows are all kept. (Negate a column to maximise it.)
///
/// A sort-first skyline: rows are visited in lexicographic order (ties by
/// index), where every dominator of a row comes before it, and a row is
/// kept unless an already-kept row dominates it: O(n log n + n·f·d) for a
/// front of f rows. A non-finite value is a checked precondition failure.
void pareto_front(const double* rows, std::size_t n, std::size_t d, SkylineScratch& scratch,
                  std::vector<std::size_t>& front);

/// Convenience form over one vector per row (every row the same length).
std::vector<std::size_t> pareto_front(const std::vector<std::vector<double>>& objectives);

/// Inverted Generational Distance from a reference front to an approximate
/// front: the mean Euclidean distance from each reference point to its
/// nearest approximation point, with every objective normalised to [0, 1]
/// by the reference front's own range (lower is better).
double igd(const std::vector<std::vector<double>>& reference_front,
           const std::vector<std::vector<double>>& approx_front);

/// Ratio of reference-front members that also appear in the approximate
/// front, where membership is compared with `keys` (e.g. configuration ids):
/// |keys(ref) ∩ keys(approx)| / |keys(ref)| (higher is better).
double common_point_ratio(const std::vector<std::size_t>& reference_keys,
                          const std::vector<std::size_t>& approx_keys);

}  // namespace harp::ml
