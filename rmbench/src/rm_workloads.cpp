// The two workloads that drive core::RmServer from outside, through its
// public API, single-threaded and open-loop:
//
//   desktop — raptor-lake; long-lived libharp apps resubmit refined tables
//             and answer utility requests, short-lived libharp apps come and
//             go (registration-time fair-share group builds).
//   crowd   — a wide synthetic 3-type platform; 1024 raw-channel apps with
//             32 candidates each resubmit tables that move their dominant
//             point, and heartbeat so the default lease stays on.
//
// The harness polls the RM whenever it delivered input or the utility tick is
// due: the daemon with an ideal wakeup. Every latency runs from the event's
// due time, so a stall delays the events queued behind it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rmbench/src/common.hpp"
#include "rmbench/src/workloads.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/harp/rm_server.hpp"
#include "src/ipc/transport.hpp"
#include "src/ipc/wire.hpp"
#include "src/libharp/client.hpp"
#include "src/telemetry/metrics.hpp"

namespace rmbench {

namespace {

using harp::Result;
using harp::Status;
using harp::ipc::ActivateMsg;
using harp::ipc::OperatingPointsMsg;
using harp::platform::ExtendedResourceVector;
using harp::platform::HardwareDescription;
using Erv = ExtendedResourceVector;

/// Forwards an app-side channel and raises the harness's input flag on every
/// send, so the harness polls the RM exactly when input is waiting.
class NotifyingChannel final : public harp::ipc::Channel {
 public:
  NotifyingChannel(std::unique_ptr<harp::ipc::Channel> inner, bool* sent)
      : inner_(std::move(inner)), sent_(sent) {}

  Status send(const harp::ipc::Message& message) override {
    *sent_ = true;
    return inner_->send(message);
  }
  Status send_raw(const std::vector<std::uint8_t>& frame) override {
    *sent_ = true;
    return inner_->send_raw(frame);
  }
  Result<std::optional<harp::ipc::Message>> poll() override { return inner_->poll(); }
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  void set_telemetry(harp::ipc::ChannelTelemetry telemetry) override {
    inner_->set_telemetry(std::move(telemetry));
  }
  int native_handle() const override { return inner_->native_handle(); }
  void set_ready_hook(std::function<void()> hook) override {
    inner_->set_ready_hook(std::move(hook));
  }
  void set_nonblocking_send(bool on) override { inner_->set_nonblocking_send(on); }
  bool has_pending_send() const override { return inner_->has_pending_send(); }
  Status flush_pending() override { return inner_->flush_pending(); }

 private:
  std::unique_ptr<harp::ipc::Channel> inner_;
  bool* sent_;
};

/// RM counters read from the traced run's MetricsRegistry.
struct RmCounters {
  double reallocs = 0, rebuilds = 0, hits = 0, incremental = 0, rescanned = 0, skips = 0;
  double cycles = 0, ready = 0, solves = 0, solve_sum_s = 0;

  static RmCounters read(harp::telemetry::MetricsRegistry& m) {
    RmCounters c;
    c.reallocs = static_cast<double>(m.counter_value("rm_reallocs_total"));
    c.rebuilds = static_cast<double>(m.counter_value("rm_group_rebuilds_total"));
    c.hits = static_cast<double>(m.counter_value("rm_group_cache_hits_total"));
    c.incremental = static_cast<double>(m.counter_value("rm_solve_incremental_total"));
    c.rescanned = static_cast<double>(m.counter_value("rm_solve_groups_rescanned_total"));
    c.skips = static_cast<double>(m.counter_value("rm_realloc_skips_total"));
    c.cycles = static_cast<double>(m.counter_value("rm_eventloop_cycles_total"));
    c.ready = static_cast<double>(m.counter_value("rm_eventloop_ready_fds"));
    // Same bounds RmServer registers the histogram with (first call wins).
    harp::telemetry::Histogram& solve =
        m.histogram("rm_solve_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1});
    c.solves = static_cast<double>(solve.count());
    c.solve_sum_s = solve.sum();
    return c;
  }
  RmCounters minus(const RmCounters& o) const {
    RmCounters d;
    d.reallocs = reallocs - o.reallocs;
    d.rebuilds = rebuilds - o.rebuilds;
    d.hits = hits - o.hits;
    d.incremental = incremental - o.incremental;
    d.rescanned = rescanned - o.rescanned;
    d.skips = skips - o.skips;
    d.cycles = cycles - o.cycles;
    d.ready = ready - o.ready;
    d.solves = solves - o.solves;
    d.solve_sum_s = solve_sum_s - o.solve_sum_s;
    return d;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What one measured window of an RM workload observed.
struct RmPhase {
  Samples activation, registration, polls, lateness;
  Samples libharp_poll, libharp_submit;
  Samples enc_points, dec_points, enc_activate, dec_activate;
  double window_s = 0.0, busy_s = 0.0, energy_j = 0.0;
  std::uint64_t ops = 0, ops_failed = 0, ops_completed = 0, qos_hits = 0;
  std::uint64_t violations = 0, updates = 0, activations = 0, coallocations = 0;
  RmCounters counters;
  std::vector<std::string> errors;
};

/// Workload knobs that differ between desktop and crowd.
struct Limits {
  double latency_limit_s = 0.0;  ///< an operation slower than this failed
  double qos_deadline_s = 0.0;   ///< the RM's own service deadline (qos_hit_rate)
};

/// An operation awaiting its activation.
struct PendingOp {
  double due = 0.0;  ///< mono seconds
  bool registration = false;
};

/// State the open-loop harness keeps per app, shared by both workloads.
struct AppState {
  std::set<Erv> submitted;
  std::map<Erv, double> declared_power;  ///< latest declared power per ERV
  std::vector<PendingOp> pending;
  std::vector<ActivateMsg::CoreGrant> grant;
  Erv grant_erv;
  bool has_grant = false;
  double grant_power_w = 0.0;
  double grant_since = 0.0;
  /// Registration acknowledged at this mono time (<0: not yet); any poll that
  /// starts later has seen the app's table, so fair-share grants end there.
  double acked_at = -1.0;
};

/// Timed call into a layer: adds the duration to `samples` when tracing.
template <typename Fn>
auto timed(bool on, Samples& samples, Fn&& fn) {
  if (!on) return fn();
  double t0 = mono();
  auto result = fn();
  samples.add(mono() - t0);
  return result;
}

/// The open-loop harness shared by desktop and crowd: owns the RM, paces the
/// schedule, runs the ideal-wakeup poll loop, validates activations, and
/// settles operations against the latency limit.
class RmHarness {
 public:
  RmHarness(HardwareDescription hw, bool traced, Limits limits)
      : oracle_(hw), hw_(std::move(hw)), traced_(traced), limits_(limits) {
    harp::core::RmServerOptions options;  // exactly as harpd builds it
    if (traced_) options.metrics = &metrics_;
    rm_ = std::make_unique<harp::core::RmServer>(hw_, options);
    utility_interval_s_ = options.utility_poll_interval_s;
  }
  virtual ~RmHarness() = default;
  RmHarness(const RmHarness&) = delete;
  RmHarness& operator=(const RmHarness&) = delete;

  /// Run `fn` off the clock every `every` seconds of the measured window.
  void set_interlude(double every, std::function<void()> fn) {
    interlude_every_ = every;
    interlude_ = std::move(fn);
  }

  /// Run the measured window over `events` (due times relative to its start).
  RmPhase measure(const std::vector<Event>& events, double window_s) {
    phase_ = RmPhase{};
    phase_.window_s = window_s;
    window_start_ = mono();
    window_end_ = window_start_ + window_s;
    in_window_ = true;
    RmCounters before = traced_ ? RmCounters::read(metrics_) : RmCounters{};
    for (AppState* app : live_apps()) app->grant_since = window_start_;
    std::size_t next = 0;
    double next_interlude = window_start_ + interlude_every_;
    while (true) {
      double now = mono();
      if (in_window_ && now >= window_end_) close_window();
      if (interlude_ && in_window_ && now >= next_interlude) {
        off_clock(interlude_);
        next_interlude += interlude_every_;
      }
      while (next < events.size() && window_start_ + events[next].due <= now) {
        if (in_window_) phase_.lateness.add(now - (window_start_ + events[next].due));
        deliver(events[next], window_start_ + events[next].due);
        input_pending_ = true;
        ++next;
      }
      if (input_pending_ || now >= last_tick_ + utility_interval_s_) {
        poll_once();
        continue;
      }
      if (next >= events.size() && !in_window_ &&
          (!has_pending() || now >= window_end_ + limits_.latency_limit_s))
        break;
      double wake = last_tick_ + utility_interval_s_;
      if (next < events.size()) wake = std::min(wake, window_start_ + events[next].due);
      if (in_window_) wake = std::min(wake, window_end_);
      else wake = std::min(wake, window_end_ + limits_.latency_limit_s);
      wait_until(wake);
    }
    // Operations never answered within the limit.
    for (AppState* app : all_apps()) {
      phase_.ops_failed += app->pending.size();
      app->pending.clear();
    }
    if (traced_) phase_.counters = RmCounters::read(metrics_).minus(before);
    return std::move(phase_);
  }

 protected:
  /// Deliver one scheduled event; `due` is its absolute mono due time.
  virtual void deliver(const Event& event, double due) = 0;
  /// Pump every app after a poll; calls on_activation for each activation.
  virtual void drain() = 0;
  virtual std::vector<AppState*> live_apps() = 0;
  /// Live apps plus departed ones whose operations may still be pending.
  virtual std::vector<AppState*> all_apps() { return live_apps(); }

  /// One RM poll (the measured RM time) followed by a drain of every app.
  void poll_once() {
    input_pending_ = false;
    const double start = mono();
    rm_->poll(start);
    const double end = mono();
    // Mirror of the RM's utility-request rule, evaluated on the same clock.
    if (start - last_tick_ >= utility_interval_s_) last_tick_ = start;
    last_poll_start_ = start;
    if (in_window_ && start < window_end_) {
      phase_.busy_s += end - start;
      if (traced_) phase_.polls.add(end - start);
    }
    any_activation_ = false;
    drain();
    if (any_activation_) check_joint();
  }

  /// Validate one activation for `app` and settle its pending operations.
  void on_activation(AppState& app, const Erv& erv,
                     const std::vector<ActivateMsg::CoreGrant>& cores) {
    const double now = mono();
    any_activation_ = true;
    if (in_window_) ++phase_.activations;
    const bool fair_share_allowed = !(app.acked_at >= 0.0 && last_poll_start_ > app.acked_at);
    std::string error = oracle_.check_activation(erv, cores, app.submitted, fair_share_allowed);
    if (!error.empty()) {
      violation(error);
      return;
    }
    account_energy(app, now);
    app.grant = cores;
    app.grant_erv = erv;
    app.has_grant = true;
    auto declared = app.declared_power.find(erv);
    if (cores.empty()) {
      // Co-allocation: every app time-shares the whole machine, which draws
      // full-load power once, not once per app.
      ++phase_.coallocations;
      app.grant_power_w = model_power_w(erv, hw_) / static_cast<double>(live_apps().size());
    } else {
      app.grant_power_w =
          declared != app.declared_power.end() ? declared->second : model_power_w(erv, hw_);
    }
    for (const PendingOp& op : app.pending) {
      const double latency = now - op.due;
      (op.registration ? phase_.registration : phase_.activation).add(latency);
      if (latency > limits_.latency_limit_s) {
        ++phase_.ops_failed;
        continue;
      }
      ++phase_.ops_completed;
      if (latency <= limits_.qos_deadline_s) ++phase_.qos_hits;
    }
    app.pending.clear();
  }

  /// Integrate the modelled power of `app`'s current grant up to `now`,
  /// clipped to the measured window.
  void account_energy(AppState& app, double now) {
    if (app.has_grant) {
      const double from = std::max(app.grant_since, window_start_);
      const double to = std::min(now, window_end_);
      if (to > from) phase_.energy_j += app.grant_power_w * (to - from);
    }
    app.grant_since = now;
  }

  void add_op(AppState& app, double due, bool registration) {
    if (due >= window_end_) return;
    ++phase_.ops;
    app.pending.push_back(PendingOp{due, registration});
  }

  void violation(const std::string& error) {
    ++phase_.violations;
    if (phase_.errors.size() < 8) phase_.errors.push_back(error);
  }

  void check_joint() {
    std::vector<const std::vector<ActivateMsg::CoreGrant>*> grants;
    for (AppState* app : live_apps())
      if (app->has_grant) grants.push_back(&app->grant);
    std::string error = oracle_.check_joint(grants);
    if (!error.empty()) violation(error);
  }

  bool has_pending() {
    for (AppState* app : all_apps())
      if (!app->pending.empty()) return true;
    return false;
  }

  void close_window() {
    in_window_ = false;
    for (AppState* app : live_apps()) account_energy(*app, window_end_);
  }

  /// Traced runs time ipc::encode / ipc::decode on the workload's own
  /// messages, outside the RM path.
  void time_codec(const harp::ipc::Message& message, Samples& encode, Samples& decode) {
    double t0 = mono();
    std::vector<std::uint8_t> frame = harp::ipc::encode(message);
    double t1 = mono();
    std::vector<std::uint8_t> payload(frame.begin() + harp::ipc::kFrameHeaderSize, frame.end());
    double t2 = mono();
    Result<harp::ipc::Message> decoded = harp::ipc::decode(harp::ipc::type_of(message), payload);
    double t3 = mono();
    encode.add(t1 - t0);
    decode.add(t3 - t2);
    if (!decoded.ok()) violation("ipc codec failed to round-trip a workload message");
  }

  GrantOracle oracle_;
  HardwareDescription hw_;
  const bool traced_;
  const Limits limits_;
  harp::telemetry::MetricsRegistry metrics_;
  std::unique_ptr<harp::core::RmServer> rm_;
  double utility_interval_s_ = 1.0;
  double last_tick_ = 0.0;  ///< RmServer's last_utility_poll_ starts at 0
  double last_poll_start_ = 0.0;
  bool input_pending_ = false;
  bool any_activation_ = false;
  bool in_window_ = false;
  double window_start_ = 0.0, window_end_ = 0.0;
  double interlude_every_ = 0.0;  ///< see set_interlude
  std::function<void()> interlude_;
  RmPhase phase_;
};

// --------------------------------------------------------------------------
// desktop
// --------------------------------------------------------------------------

/// Seeds the fixed app catalog (profiles, tables); --seed draws the traffic,
/// the arrival kinds and the measurement noise.
constexpr std::uint64_t kCatalogSeed = 0x4841525042454E43ull;

// About 7 concurrent apps on 24 cores. From about 10, fair-share groups of
// registering apps (which want the whole machine) make the seed's MMKP
// repair fall back to co-allocation now and then, and how often swings the
// activation tail up to 4x between seeds (see README). Registrations take
// about 3 % of RM time, so the activation p99 sits inside the
// queued-behind-a-registration mode instead of on its edge.
constexpr int kDesktopLongLived = 4;
constexpr double kDesktopResubmitRate = 15.0;  ///< per long-lived app, 1/s
constexpr double kDesktopArrivalRate = 30.0;   ///< short-lived apps, 1/s
constexpr double kDesktopHoldMin = 0.05, kDesktopHoldMax = 0.15;  ///< seconds
/// Scheduled seconds per second of --seconds. The RM is a few percent busy
/// and the clock skips its idle gaps, so a run covers many minutes of traffic.
constexpr double kDesktopWindowPerSecond = 20.0;
constexpr int kDesktopKindResubmit = 0, kDesktopKindArrive = 1, kDesktopKindDepart = 2;
constexpr int kDesktopShortTypes = 24;  ///< short-lived app kinds in the catalog

/// One app's application model: utility from per-type IPC with diminishing
/// returns, power from the platform's coefficients with an app factor.
struct DesktopProfile {
  std::vector<double> ipc;
  double alpha = 0.8;
  double power_factor = 1.0;
  harp::ipc::WireAdaptivity adaptivity = harp::ipc::WireAdaptivity::kScalable;
  bool provides_utility = false;
};

double desktop_utility(const Erv& erv, const HardwareDescription& hw, const DesktopProfile& p) {
  double rate = 0.0;
  for (int t = 0; t < erv.num_types(); ++t) {
    const harp::platform::CoreType& type = hw.core_types[static_cast<std::size_t>(t)];
    double lanes = 0.0;
    for (int k = 1; k <= erv.smt_levels(t); ++k)
      lanes += erv.count(t, k) * (1.0 + (k - 1) * type.smt_gain);
    rate += lanes * type.base_gips * p.ipc[static_cast<std::size_t>(t)];
  }
  return std::pow(rate, p.alpha);
}

struct DesktopApp {
  int index = 0;
  DesktopProfile profile;
  std::vector<Erv> ervs;            ///< the app's table (fixed configuration set)
  std::vector<double> base_utility, base_power;
  harp::Rng rng{1};
  std::uint64_t utility_calls = 0;
  AppState state;
  std::unique_ptr<harp::client::HarpClient> client;
};

/// The desktop schedule: per-app Poisson resubmissions plus a Poisson stream
/// of short-lived apps, each departing after its hold time.
std::vector<Event> desktop_schedule(std::uint64_t seed, double window_s) {
  std::vector<Event> events;
  for (int i = 0; i < kDesktopLongLived; ++i)
    for (double t : poisson_times(mix_seed(seed, 100 + i), kDesktopResubmitRate, window_s))
      events.push_back(Event{t, kDesktopKindResubmit, i, 0});
  harp::Rng holds(mix_seed(seed, 7));
  int short_index = kDesktopLongLived;
  for (double t : poisson_times(mix_seed(seed, 3), kDesktopArrivalRate, window_s)) {
    double hold = holds.uniform(kDesktopHoldMin, kDesktopHoldMax);
    std::uint64_t payload = mix_seed(seed, 1000 + short_index);
    events.push_back(Event{t, kDesktopKindArrive, short_index, payload});
    if (t + hold < window_s) events.push_back(Event{t + hold, kDesktopKindDepart, short_index, 0});
    ++short_index;
  }
  std::sort(events.begin(), events.end());
  return events;
}

class DesktopHarness final : public RmHarness {
 public:
  DesktopHarness(bool traced, std::uint64_t seed)
      : RmHarness(harp::platform::raptor_lake(), traced, Limits{0.25, 0.02}),
        coarse_(harp::platform::enumerate_coarse_points(hw_)),
        seed_(seed) {}

  /// Register the long-lived apps and wait until each holds an activation
  /// from its own table. Returns false on timeout.
  bool setup(std::vector<Samples>& /*registrations*/) {
    for (int i = 0; i < kDesktopLongLived; ++i) {
      spawn(i, true, mix_seed(kCatalogSeed, 500 + i), mix_seed(seed_, 500 + i), -1.0);
    }
    const double deadline = mono() + 5.0;
    while (mono() < deadline) {
      poll_once();
      bool ready = true;
      for (const auto& app : apps_)
        ready = ready && app->state.has_grant &&
                app->state.submitted.count(app->state.grant_erv) > 0;
      if (ready) return true;
    }
    return false;
  }

  RmPhase run(double window_s) { return measure(desktop_schedule(seed_, window_s), window_s); }

 protected:
  void deliver(const Event& event, double due) override {
    if (event.kind == kDesktopKindResubmit) {
      DesktopApp* app = find(event.app);
      if (app == nullptr) return;
      add_op(app->state, due, false);
      ++phase_.updates;
      resubmit(*app);
    } else if (event.kind == kDesktopKindArrive) {
      const std::uint64_t kind = event.payload_seed % kDesktopShortTypes;
      spawn(event.app, false, mix_seed(kCatalogSeed, 1000 + kind), event.payload_seed, due);
    } else if (event.kind == kDesktopKindDepart) {
      depart(event.app);
    }
  }

  void drain() override {
    for (const auto& owned : apps_) {
      DesktopApp& app = *owned;
      Status polled = timed(traced_ && in_window_, phase_.libharp_poll,
                            [&] { return app.client->poll(mono()); });
      if (!polled.ok()) violation("libharp poll failed: " + polled.error().message);
      if (app.state.acked_at < 0.0 && app.client->registered()) app.state.acked_at = mono();
    }
  }

  std::vector<AppState*> live_apps() override {
    std::vector<AppState*> out;
    out.reserve(apps_.size());
    for (const auto& app : apps_) out.push_back(&app->state);
    return out;
  }
  std::vector<AppState*> all_apps() override {
    std::vector<AppState*> out = live_apps();
    for (AppState& gone : departed_) out.push_back(&gone);
    return out;
  }

 private:
  DesktopApp* find(int index) {
    for (const auto& app : apps_)
      if (app->index == index) return app.get();
    return nullptr;
  }

  /// Start an app: its profile and table come from the fixed catalog
  /// (`profile_seed`), its measurement noise from the run's seed.
  void spawn(int index, bool long_lived, std::uint64_t profile_seed, std::uint64_t noise_seed,
             double register_due) {
    auto app = std::make_unique<DesktopApp>();
    app->index = index;
    app->rng = harp::Rng(noise_seed);
    harp::Rng rng(profile_seed);
    DesktopProfile& p = app->profile;
    p.ipc = {rng.uniform(1.0, 1.6), rng.uniform(0.55, 1.0)};
    p.alpha = rng.uniform(0.55, 0.95);
    p.power_factor = rng.uniform(0.8, 1.2);
    const int kind = index % 3;
    p.adaptivity = kind == 0   ? harp::ipc::WireAdaptivity::kStatic
                   : kind == 1 ? harp::ipc::WireAdaptivity::kScalable
                               : harp::ipc::WireAdaptivity::kCustom;
    p.provides_utility = long_lived || rng.uniform() < 0.5;

    // The table: a random subset of the coarse configurations plus the
    // single-E-thread point, so every app can shrink to one core.
    const int size = long_lived ? rng.uniform_int(16, 24) : rng.uniform_int(8, 16);
    std::set<Erv> chosen{Erv::from_threads(hw_, {0, 1})};
    while (static_cast<int>(chosen.size()) < size)
      chosen.insert(coarse_[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(coarse_.size()) - 1))]);
    for (const Erv& erv : chosen) {
      app->ervs.push_back(erv);
      app->base_utility.push_back(desktop_utility(erv, hw_, p));
      app->base_power.push_back(model_power_w(erv, hw_) * p.power_factor);
      app->state.submitted.insert(erv);
    }

    harp::client::Config config;
    config.app_name = (long_lived ? "desk-long-" : "desk-short-") + std::to_string(index);
    config.pid = 10000 + index;
    config.adaptivity = p.adaptivity;
    config.provides_utility = p.provides_utility;
    config.heartbeat_interval_s = 5.0;  // well below the RM's 30 s lease
    config.jitter_seed = noise_seed;
    harp::client::Callbacks callbacks;
    DesktopApp* raw = app.get();
    callbacks.on_activate = [this, raw](const harp::client::Activation& activation) {
      on_activation(raw->state, activation.erv, activation.cores);
      if (traced_ && in_window_) {
        ActivateMsg msg;
        msg.erv = activation.erv;
        msg.cores = activation.cores;
        msg.parallelism = activation.parallelism;
        msg.rebalance = activation.rebalance;
        time_codec(harp::ipc::Message(msg), phase_.enc_activate, phase_.dec_activate);
      }
    };
    if (p.provides_utility)
      callbacks.utility_provider = [this, raw] { return measured_utility(*raw); };

    auto [rm_end, app_end] = harp::ipc::make_in_process_pair();
    auto channel = std::make_unique<NotifyingChannel>(std::move(app_end), &input_pending_);
    Result<std::unique_ptr<harp::client::HarpClient>> client = harp::client::HarpClient::deferred(
        std::move(channel), config, std::move(callbacks));
    HARP_CHECK_MSG(client.ok(), "libharp client: " << client.error().message);
    app->client = std::move(client).take();
    rm_->adopt_channel(std::move(rm_end));
    input_pending_ = true;
    if (register_due >= 0.0) add_op(app->state, register_due, true);
    apps_.push_back(std::move(app));
    submit(*apps_.back(), refined_points(*apps_.back()));
  }

  /// A refined table: every point's utility and power re-measured around the
  /// app's model, so each resubmission moves the app's Pareto front.
  std::vector<OperatingPointsMsg::Point> refined_points(DesktopApp& app) {
    std::vector<OperatingPointsMsg::Point> points;
    points.reserve(app.ervs.size());
    for (std::size_t i = 0; i < app.ervs.size(); ++i) {
      OperatingPointsMsg::Point point;
      point.erv = app.ervs[i];
      point.utility = app.base_utility[i] * app.rng.noise_factor(0.03);
      point.power_w = app.base_power[i] * app.rng.noise_factor(0.03);
      app.state.declared_power[point.erv] = point.power_w;
      points.push_back(std::move(point));
    }
    return points;
  }

  void submit(DesktopApp& app, const std::vector<OperatingPointsMsg::Point>& points) {
    if (traced_ && in_window_) {
      OperatingPointsMsg msg;
      msg.points = points;
      time_codec(harp::ipc::Message(msg), phase_.enc_points, phase_.dec_points);
    }
    Status submitted = timed(traced_ && in_window_, phase_.libharp_submit,
                             [&] { return app.client->submit_operating_points(points); });
    if (!submitted.ok()) violation("libharp submit failed: " + submitted.error().message);
  }

  void resubmit(DesktopApp& app) { submit(app, refined_points(app)); }

  /// What the app measures about its current configuration.
  double measured_utility(DesktopApp& app) {
    double base = 1.0;
    if (app.state.has_grant) base = desktop_utility(app.state.grant_erv, hw_, app.profile);
    ++app.utility_calls;
    return base * (1.0 + 0.02 * std::sin(static_cast<double>(app.utility_calls)));
  }

  void depart(int index) {
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (apps_[i]->index != index) continue;
      DesktopApp& app = *apps_[i];
      account_energy(app.state, mono());
      (void)app.client->deregister();
      app.state.has_grant = false;
      if (!app.state.pending.empty()) departed_.push_back(std::move(app.state));
      apps_.erase(apps_.begin() + static_cast<long>(i));
      input_pending_ = true;
      return;
    }
  }

  std::vector<Erv> coarse_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<DesktopApp>> apps_;
  std::vector<AppState> departed_;
};

// --------------------------------------------------------------------------
// crowd
// --------------------------------------------------------------------------

constexpr int kCrowdApps = 1024;
constexpr int kCrowdCandidates = 32;
constexpr int kCrowdTypes = 3;
/// Cores per type. allocator_scale uses 4096, where the dominant points'
/// demand (4096 ± 80 per type) straddles capacity, so solve cost flips with
/// the seed; 3840 keeps every instance contended.
constexpr int kCrowdCapacity = 3840;
/// Resubmission events per second; each moves the dominant point of two
/// apps at once. A 30 s window then holds the 1000+ samples its p99 needs
/// while the RM stays well below saturation: at 36 single-app events/s it
/// was 60 % busy, and queueing amplified the host's speed swings.
constexpr double kCrowdEventRate = 24.0;
constexpr int kCrowdAppsPerEvent = 2;  ///< resubmissions per second, all apps
constexpr double kCrowdHeartbeat = 10.0;   ///< silence before a heartbeat, s
constexpr double kCrowdWindowPerSecond = 1.5;  ///< as kDesktopWindowPerSecond
constexpr int kCrowdKindResubmit = 0, kCrowdKindHeartbeat = 3;

/// Synthetic wide platform, built like allocator_scale's.
HardwareDescription crowd_hw() {
  HardwareDescription hw;
  hw.name = "synthetic-3type";
  for (int t = 0; t < kCrowdTypes; ++t) {
    harp::platform::CoreType type;
    type.name = "t" + std::to_string(t);
    type.core_count = kCrowdCapacity;
    type.smt_width = 1;
    type.freq_ghz = 2.0 + 0.5 * t;
    type.base_gips = 4.0 + 2.0 * t;
    type.active_power_w = 1.0 + 0.5 * t;
    type.thread_power_w = 0.4;
    type.idle_power_w = 0.1;
    hw.core_types.push_back(type);
  }
  return hw;
}

/// Resubmissions (Poisson events, distinct uniformly chosen apps per event)
/// plus the heartbeats each app sends after kCrowdHeartbeat seconds of
/// silence. Apps start at a random phase of their heartbeat period.
std::vector<Event> crowd_schedule(std::uint64_t seed, double window_s) {
  std::vector<Event> events;
  harp::Rng rng(mix_seed(seed, 11));
  std::vector<std::vector<double>> per_app(kCrowdApps);
  for (double t : poisson_times(mix_seed(seed, 12), kCrowdEventRate, window_s)) {
    int first = -1;
    for (int k = 0; k < kCrowdAppsPerEvent; ++k) {
      int app = rng.uniform_int(0, kCrowdApps - 1);
      if (app == first) app = (app + 1) % kCrowdApps;
      first = app;
      per_app[static_cast<std::size_t>(app)].push_back(t);
      events.push_back(Event{t, kCrowdKindResubmit, app, mix_seed(seed, events.size())});
    }
  }
  for (int app = 0; app < kCrowdApps; ++app) {
    double last_tx = -rng.uniform(0.0, kCrowdHeartbeat);
    std::vector<double>& tx = per_app[static_cast<std::size_t>(app)];
    tx.push_back(window_s);  // sentinel
    for (double t : tx) {
      while (last_tx + kCrowdHeartbeat < t) {
        last_tx += kCrowdHeartbeat;
        if (last_tx >= 0.0) events.push_back(Event{last_tx, kCrowdKindHeartbeat, app, 0});
      }
      last_tx = t;
    }
  }
  std::sort(events.begin(), events.end());
  return events;
}

struct CrowdApp {
  std::vector<OperatingPointsMsg::Point> points;
  int dominant = 0;  ///< index of the lowest-power (preferred) point
  AppState state;
  std::unique_ptr<harp::ipc::Channel> end;
};

class CrowdHarness final : public RmHarness {
 public:
  CrowdHarness(bool traced, std::uint64_t seed)
      : RmHarness(crowd_hw(), traced, Limits{2.0, 0.25}), seed_(seed) {}

  /// Generate the tables, then register every app over a raw channel with
  /// its table sent right after the RegisterRequest, poll once and check
  /// that every app holds an activation. Registration latencies run from
  /// the moment the crowd arrives.
  bool setup(std::vector<Samples>& registrations) {
    harp::Rng rng(mix_seed(kCatalogSeed, 21));
    apps_.resize(kCrowdApps);
    for (int i = 0; i < kCrowdApps; ++i) {
      CrowdApp& app = apps_[static_cast<std::size_t>(i)];
      double best = 1e300;
      for (int c = 0; c < kCrowdCandidates; ++c) {
        std::vector<int> threads(kCrowdTypes, 0);
        int total = 0;
        for (int t = 0; t < kCrowdTypes; ++t) total += (threads[static_cast<std::size_t>(t)] = rng.uniform_int(0, 8));
        if (total == 0) threads[0] = 1;
        OperatingPointsMsg::Point point;
        point.erv = Erv::from_threads(hw_, threads);
        point.utility = 1.0;
        point.power_w = rng.uniform(0.5, 30.0);
        if (point.power_w < best) {
          best = point.power_w;
          app.dominant = c;
        }
        app.state.submitted.insert(point.erv);
        app.state.declared_power[point.erv] = point.power_w;
        app.points.push_back(point);
      }
    }
    const double arrived = mono();
    for (int i = 0; i < kCrowdApps; ++i) {
      CrowdApp& app = apps_[static_cast<std::size_t>(i)];
      auto [rm_end, app_end] = harp::ipc::make_in_process_pair();
      harp::ipc::RegisterRequest request;
      request.pid = 20000 + i;
      request.app_name = "crowd-" + std::to_string(i);
      request.adaptivity = harp::ipc::WireAdaptivity::kScalable;
      OperatingPointsMsg table;
      table.points = app.points;
      if (!app_end->send(harp::ipc::Message(request)).ok() ||
          !app_end->send(harp::ipc::Message(table)).ok())
        return false;
      app.end = std::move(app_end);
      rm_->adopt_channel(std::move(rm_end));
      // The table travels with the registration, so no fair-share phase.
      app.state.acked_at = 0.0;
      app.state.pending.push_back(PendingOp{arrived, true});
    }
    in_window_ = true;  // settle the crowd's registrations like operations
    window_start_ = arrived;
    window_end_ = arrived + 1e9;
    phase_ = RmPhase{};
    poll_once();
    in_window_ = false;
    registrations.push_back(phase_.registration);
    for (const CrowdApp& app : apps_)
      if (!app.state.has_grant || !app.state.pending.empty()) return false;
    return phase_.violations == 0;
  }

  RmPhase run(double window_s) { return measure(crowd_schedule(seed_, window_s), window_s); }

 protected:
  void deliver(const Event& event, double due) override {
    CrowdApp& app = apps_[static_cast<std::size_t>(event.app)];
    if (event.kind == kCrowdKindHeartbeat) {
      (void)app.end->send(harp::ipc::Message(harp::ipc::Heartbeat{}));
      return;
    }
    // Move the dominant point: a new candidate becomes the cheapest, the
    // old one becomes expensive.
    harp::Rng rng(event.payload_seed);
    int next = rng.uniform_int(0, kCrowdCandidates - 2);
    if (next >= app.dominant) ++next;
    OperatingPointsMsg msg;
    OperatingPointsMsg::Point& fresh = app.points[static_cast<std::size_t>(next)];
    OperatingPointsMsg::Point& stale = app.points[static_cast<std::size_t>(app.dominant)];
    fresh.power_w = rng.uniform(0.3, 0.5);
    stale.power_w = rng.uniform(10.0, 30.0);
    app.state.declared_power[fresh.erv] = fresh.power_w;
    app.state.declared_power[stale.erv] = stale.power_w;
    msg.points = {fresh, stale};
    app.dominant = next;
    add_op(app.state, due, false);
    ++phase_.updates;
    harp::ipc::Message message(std::move(msg));
    if (traced_ && in_window_) time_codec(message, phase_.enc_points, phase_.dec_points);
    (void)app.end->send(message);
  }

  void drain() override {
    // Activations go out only when the RM reallocated.
    const std::uint64_t reallocs = rm_->realloc_count();
    if (reallocs == seen_reallocs_) return;
    seen_reallocs_ = reallocs;
    // Apps waiting on an answer first, so their receipt time is not the
    // time it takes to drain a thousand other apps.
    for (CrowdApp& app : apps_)
      if (!app.state.pending.empty()) drain_app(app);
    for (CrowdApp& app : apps_) drain_app(app);
  }

  std::vector<AppState*> live_apps() override {
    std::vector<AppState*> out;
    out.reserve(apps_.size());
    for (CrowdApp& app : apps_) out.push_back(&app.state);
    return out;
  }

 private:
  void drain_app(CrowdApp& app) {
    while (true) {
      Result<std::optional<harp::ipc::Message>> polled = app.end->poll();
      if (!polled.ok()) {
        violation("crowd app channel failed: " + polled.error().message);
        return;
      }
      if (!polled.value().has_value()) return;
      const auto* activate = std::get_if<ActivateMsg>(&*polled.value());
      if (activate == nullptr) continue;  // RegisterAck
      on_activation(app.state, activate->erv, activate->cores);
      if (traced_ && in_window_ && (++codec_counter_ % 32) == 0)
        time_codec(*polled.value(), phase_.enc_activate, phase_.dec_activate);
    }
  }

  std::uint64_t seed_;
  std::vector<CrowdApp> apps_;
  std::uint64_t seen_reallocs_ = 0;
  std::uint64_t codec_counter_ = 0;
};

// --------------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------------

/// Register percentiles. desktop pools its short-lived apps' samples. On
/// crowd every set-up registers 1024 apps at once, so all samples of one
/// set-up share its stalls: the percentile is taken per set-up, and the
/// median over set-ups is reported.
Metric register_percentile(const char* name, double q, const RmPhase& phase,
                           const std::vector<Samples>& per_setup) {
  if (per_setup.empty()) {
    std::optional<double> value = phase.registration.percentile(q);
    return Metric{name, value ? std::optional<double>(*value * 1e3) : std::nullopt, "ms",
                  phase.registration.count()};
  }
  Samples medians;
  std::size_t count = 0;
  for (const Samples& setup : per_setup) {
    std::optional<double> value = setup.percentile(q);
    if (!value.has_value()) return Metric{name, std::nullopt, "ms", setup.count()};
    medians.add(*value * 1e3);
    count += setup.count();
  }
  return Metric{name, medians.median(), "ms", count};
}

void report_end_to_end(Report& report, const RmPhase& phase,
                       const std::vector<Samples>& registrations, const Samples& setups) {
  report.attempted = phase.ops;
  report.failed = phase.ops_failed + phase.violations;
  report.add("setup_s", setups.median(), "s");
  report.add_percentile_ms("activation_p50_ms", phase.activation, 0.50);
  report.add_percentile_ms("activation_p99_ms", phase.activation, 0.99);
  report.metrics.push_back(register_percentile("register_p50_ms", 0.50, phase, registrations));
  report.metrics.push_back(register_percentile("register_p90_ms", 0.90, phase, registrations));
  report.add("ok_frac", 1.0 - ratio(static_cast<double>(report.failed),
                                    static_cast<double>(report.attempted)), "frac");
  report.add("rm_busy_frac", ratio(phase.busy_s, phase.window_s), "frac");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("sim_speed", ratio(phase.window_s, phase.busy_s), "s/s");
  report.add("energy_per_job_j", ratio(phase.energy_j, static_cast<double>(phase.ops_completed)),
             "J");
  report.add("qos_hit_rate",
             ratio(static_cast<double>(phase.qos_hits), static_cast<double>(phase.ops)), "frac");
}

void report_layers(Report& report, const RmPhase& traced, const RmPhase& reference) {
  report.attempted = traced.ops + reference.ops;
  report.failed = traced.ops_failed + traced.violations + reference.ops_failed +
                  reference.violations;
  const RmCounters& c = traced.counters;
  const double updates = static_cast<double>(traced.updates);
  report.add_percentile_ms("bench.gen_late_p99_ms", traced.lateness, 0.99);
  std::optional<double> p50_traced = traced.activation.percentile(0.5);
  std::optional<double> p50_untraced = reference.activation.percentile(0.5);
  report.add("bench.trace_overhead_frac",
             p50_traced && p50_untraced ? (*p50_traced - *p50_untraced) / *p50_untraced : 0.0,
             "frac");
  report.add("libharp.poll_us", traced.libharp_poll.mean() * 1e6, "us");
  report.add("libharp.submit_us", traced.libharp_submit.mean() * 1e6, "us");
  report.add("ipc.encode_points_us", traced.enc_points.mean() * 1e6, "us");
  report.add("ipc.decode_points_us", traced.dec_points.mean() * 1e6, "us");
  report.add("ipc.encode_activate_us", traced.enc_activate.mean() * 1e6, "us");
  report.add("ipc.decode_activate_us", traced.dec_activate.mean() * 1e6, "us");
  report.add("ipc.activations_per_update", ratio(static_cast<double>(traced.activations), updates),
             "ratio");
  report.add("ipc.ready_per_cycle", ratio(c.ready, c.cycles), "ratio");
  std::optional<double> poll_p50 = traced.polls.percentile(0.50);
  std::optional<double> poll_p99 = traced.polls.percentile(0.99);
  report.metrics.push_back(Metric{"rm_server.poll_us_p50",
                                  poll_p50 ? std::optional<double>(*poll_p50 * 1e6) : std::nullopt,
                                  "us", traced.polls.count()});
  report.metrics.push_back(Metric{"rm_server.poll_us_p99",
                                  poll_p99 ? std::optional<double>(*poll_p99 * 1e6) : std::nullopt,
                                  "us", traced.polls.count()});
  report.add("rm_server.reallocs_per_update", ratio(c.reallocs, updates), "ratio");
  report.add("rm_server.group_rebuilds_per_realloc", ratio(c.rebuilds, c.reallocs), "ratio");
  report.add("rm_server.group_cache_hit_frac", ratio(c.hits, c.hits + c.rebuilds), "frac");
  report.add("rm_server.skip_frac", ratio(c.skips, c.reallocs), "frac");
  report.add("allocator.solve_ms_mean", ratio(c.solve_sum_s, c.solves) * 1e3, "ms");
  report.add("allocator.incremental_frac", ratio(c.incremental, c.solves), "frac");
  report.add("allocator.rescanned_per_solve", ratio(c.rescanned, c.solves), "count");
}

void finish(Report& report, const std::vector<const RmPhase*>& phases) {
  for (const RmPhase* phase : phases) {
    for (const std::string& error : phase->errors) report.fail(error);
    if (phase->violations > 0)
      report.fail(std::to_string(phase->violations) + " grant-invariant violation(s)");
    if (phase->coallocations > 0)
      std::fprintf(stderr, "note: %llu co-allocation activation(s)\n",
                   static_cast<unsigned long long>(phase->coallocations));
  }
}

/// Untimed set-ups first: the first set-ups of a process pay for growing
/// the allocator's arenas, which a long-running RM pays once.
constexpr int kWarmupSetups = 2;

/// Untraced: set up `setup_repeats` times and report the end-to-end metrics.
/// The first timed set-up feeds the window; the others run off the clock,
/// spread evenly over the window, so that set-up timings see the same host
/// as the window does rather than the first second of the process. Traced:
/// an untraced reference window of a quarter of the time, then a traced
/// window of the rest.
template <typename Harness>
Report run_rm(const Args& args, int setup_repeats, double window_per_second) {
  const double window_s = args.seconds * window_per_second;
  Report report;
  Samples setups;
  std::vector<Samples> registrations;
  auto set_up = [&](bool traced) {
    const double t0 = mono();
    auto harness = std::make_unique<Harness>(traced, args.seed);
    if (!harness->setup(registrations)) {
      report.fail("set-up did not bring every app to a valid activation");
      harness.reset();
    } else {
      setups.add(mono() - t0);
    }
    return harness;
  };
  if (!args.trace) {
    std::unique_ptr<Harness> harness;
    for (int i = 0; i <= kWarmupSetups; ++i) {
      if (i == kWarmupSetups) {  // the process's allocator has warmed up
        setups = Samples{};
        registrations.clear();
      }
      harness.reset();
      gauge_if_due();
      harness = set_up(false);
      if (harness == nullptr) return report;
    }
    harness->set_interlude(window_s / setup_repeats, [&] {
      gauge_if_due();
      set_up(false);
    });
    RmPhase phase = harness->run(window_s);
    report_end_to_end(report, phase, registrations, setups);
    finish(report, {&phase});
    return report;
  }
  std::unique_ptr<Harness> harness = set_up(false);
  if (harness == nullptr) return report;
  RmPhase untraced = harness->run(window_s * kReferenceShare);
  harness.reset();
  harness = set_up(true);
  if (harness == nullptr) return report;
  RmPhase traced = harness->run(window_s * (1.0 - kReferenceShare));
  report_layers(report, traced, untraced);
  finish(report, {&untraced, &traced});
  return report;
}

}  // namespace

std::vector<Event> rm_schedule(const std::string& workload, std::uint64_t seed,
                               double window_s) {
  return workload == "desktop" ? desktop_schedule(seed, window_s)
                               : crowd_schedule(seed, window_s);
}

Report run_desktop(const Args& args) { return run_rm<DesktopHarness>(args, 60, kDesktopWindowPerSecond); }

Report run_crowd(const Args& args) { return run_rm<CrowdHarness>(args, 17, kCrowdWindowPerSecond); }

}  // namespace rmbench
