// DVFS-integrated resource allocation — the paper's first outlook item
// (§7): "adding dynamic frequency-scaling control of the CPU would allow
// for even finer energy management. However this requires advanced
// behavior prediction techniques to handle the increased configuration
// complexity."
//
// This extension prototypes exactly that: the configuration space becomes
// (extended resource vector × frequency level), the per-level non-
// functional characteristics come from offline DSE at each frequency
// (throughput ∝ f, dynamic power ∝ f^2.5), and the same MMKP machinery
// selects one (allocation, frequency) pair per application. The activation
// then carries a per-partition DVFS setting alongside the core grant.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/harp/allocator.hpp"
#include "src/harp/operating_point.hpp"
#include "src/sim/runner.hpp"

namespace harp::core {

struct DvfsOptions {
  /// Frequency levels explored per allocation (fractions of the calibrated
  /// maximum). Must be in (0, 1], descending, and contain 1.0.
  std::vector<double> freq_levels{1.0, 0.85, 0.70};
  /// Same libharp-hook drag model as HarpPolicy (§6.6).
  double drag_base = 0.006;
  double drag_per_extra_app = 0.010;
};

/// HARP with per-application frequency selection, driven by offline DSE
/// tables generated per frequency level. A research prototype of the §7
/// outlook: no online exploration (the squared configuration space is
/// exactly why the paper defers that to future work).
class DvfsHarpPolicy : public sim::Policy {
 public:
  explicit DvfsHarpPolicy(DvfsOptions options = {});
  ~DvfsHarpPolicy() override;

  std::string name() const override { return "harp-dvfs"; }
  void attach(sim::RunnerApi& api) override;
  void on_app_start(sim::AppId id) override;
  void on_app_exit(sim::AppId id) override;

  /// Frequency currently applied per application (diagnostics/tests).
  std::map<std::string, double> active_frequencies() const;

 private:
  struct ManagedApp;

  void reallocate();

  DvfsOptions options_;
  sim::RunnerApi* api_ = nullptr;
  std::unique_ptr<Allocator> allocator_;
  /// Per (application, frequency level): the offline table at that level.
  std::map<std::string, std::vector<OperatingPointTable>> tables_;
  std::map<sim::AppId, std::unique_ptr<ManagedApp>> managed_;
};

}  // namespace harp::core
