// RM transport scale-out (DESIGN.md "Event loop"): how the per-cycle cost
// and the activation round-trip of one RmServer scale with the
// connected-client population and the MMKP's size.
//
// Three measurements:
//
//  - cycle: a mostly-idle population (the realistic regime — managed
//    applications mostly compute and occasionally heartbeat). Per cycle a
//    small active set sends one heartbeat each; the bench times rm.poll()
//    and reports p50/p99. In-process (100k clients full, 10k --quick)
//    isolates the cycle bookkeeping, real AF_UNIX sockets (10k full, 1k
//    --quick) add the kernel.
//
//  - roundtrip: 64 registered apps resubmit operating points under a large
//    idle population; the bench times burst → every app holds its fresh
//    activation. 64 apps cannot each get one of raptor-lake's 24 cores, so
//    every solve falls back to co-allocation: this row times the I/O walk,
//    not the MMKP.
//
//  - crowd: rmbench crowd's instance (1024 apps × 32 candidates × 3 types
//    on 3×3840 cores); each burst moves two apps' dominant points, and the
//    bench times burst → both hold their fresh activation. The row also
//    sums the declared power of the points the apps hold at the end.
//
// Round-trips report p50/p99 over all bursts. Writes BENCH_rm_scale.json
// (schema: bench_json.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/common/rng.hpp"
#include "src/harp/rm_server.hpp"
#include "src/ipc/transport.hpp"
#include "src/platform/hardware.hpp"

using namespace harp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t index = static_cast<std::size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

/// Raise RLIMIT_NOFILE toward `want` fds and return what the socket mode may
/// actually use (connect pairs cost two fds each, plus slack for the rest of
/// the process).
int usable_socket_clients(int want_clients) {
  rlim_t want = static_cast<rlim_t>(want_clients) * 2 + 256;
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return want_clients;
  if (limit.rlim_cur < want) {
    struct rlimit raised = limit;
    raised.rlim_cur = std::min<rlim_t>(want, limit.rlim_max);
    (void)::setrlimit(RLIMIT_NOFILE, &raised);
    (void)::getrlimit(RLIMIT_NOFILE, &limit);
  }
  if (limit.rlim_cur >= want) return want_clients;
  int usable = static_cast<int>((limit.rlim_cur - 256) / 2);
  std::fprintf(stderr, "rm_scale: RLIMIT_NOFILE=%llu caps socket clients at %d (wanted %d)\n",
               static_cast<unsigned long long>(limit.rlim_cur), usable, want_clients);
  return std::max(usable, 0);
}

struct CycleStats {
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Sends one heartbeat from every active (registered) app end, then runs one
/// server cycle via `poll_once` and times it. The bulk population stays
/// silent: heartbeats from unregistered clients are a protocol violation
/// (the RM drops the client), and registering the bulk would stage a
/// fair-share MMKP over the whole population — allocator scale is
/// allocator_scale's bench, not this one.
template <typename PollFn>
CycleStats run_cycles(std::vector<std::unique_ptr<ipc::Channel>>& active_ends, int cycles,
                      PollFn poll_once) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cycles));
  double now = 1.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& end : active_ends) (void)end->send(ipc::Message(ipc::Heartbeat{}));
    now += 0.01;
    auto t0 = std::chrono::steady_clock::now();
    poll_once(now);
    samples.push_back(seconds_since(t0));
  }
  return CycleStats{percentile(samples, 0.50), percentile(samples, 0.99)};
}

json::Object cycle_row(const char* transport, const char* server, int clients, int active,
                       int cycles, const CycleStats& stats) {
  json::Object row;
  row["mode"] = json::Value("cycle");
  row["transport"] = json::Value(transport);
  row["server"] = json::Value(server);
  row["clients"] = json::Value(clients);
  row["active_per_cycle"] = json::Value(active);
  row["cycles"] = json::Value(cycles);
  row["p50_cycle_seconds"] = json::Value(stats.p50);
  row["p99_cycle_seconds"] = json::Value(stats.p99);
  return row;
}

void print_cycle(const char* transport, const char* server, int clients,
                 const CycleStats& stats) {
  std::printf("%-8s %-12s %8d %14.1f %14.1f\n", transport, server, clients, stats.p50 * 1e6,
              stats.p99 * 1e6);
  std::fflush(stdout);
}

ipc::RegisterRequest active_registration(int index) {
  ipc::RegisterRequest reg;
  reg.pid = 100000 + index;
  reg.app_name = "hb_" + std::to_string(index);
  return reg;
}

/// In-process cycle benchmark against one RmServer: `clients` silent
/// unregistered channels plus `active` registered heartbeaters.
CycleStats inproc_cycle_bench(const platform::HardwareDescription& hw, int clients, int active,
                              int cycles) {
  core::RmServerOptions options;
  options.lease_seconds = 0;
  core::RmServer rm(hw, options);
  std::vector<std::unique_ptr<ipc::Channel>> bulk_ends, active_ends;
  bulk_ends.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    rm.adopt_channel(std::move(rm_end));
    bulk_ends.push_back(std::move(app_end));
  }
  for (int i = 0; i < active; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    (void)app_end->send(ipc::Message(active_registration(i)));
    rm.adopt_channel(std::move(rm_end));
    active_ends.push_back(std::move(app_end));
  }
  rm.poll(0.5);  // settle: registrations, lease clocks, one fair-share solve
  return run_cycles(active_ends, cycles, [&rm](double now) { rm.poll(now); });
}

/// Socket-transport cycle benchmark: `clients` real AF_UNIX connections into
/// one RmServer.
CycleStats socket_cycle_bench(int clients, int active, int cycles,
                              const std::string& socket_path) {
  core::RmServerOptions options;
  options.lease_seconds = 0;
  core::RmServer rm(platform::raptor_lake(), options);
  Status listening = rm.listen(socket_path);
  if (!listening.ok()) {
    std::fprintf(stderr, "rm_scale: listen failed: %s\n", listening.error().message.c_str());
    return CycleStats{};
  }

  std::vector<std::unique_ptr<ipc::Channel>> bulk_ends, active_ends;
  bulk_ends.reserve(static_cast<std::size_t>(clients));
  // Connect in small batches, polling so the accept queue never overflows.
  while (static_cast<int>(bulk_ends.size() + active_ends.size()) < clients + active) {
    int remaining = clients + active - static_cast<int>(bulk_ends.size() + active_ends.size());
    int batch = std::min(64, remaining);
    for (int i = 0; i < batch; ++i) {
      Result<std::unique_ptr<ipc::Channel>> connected = ipc::unix_connect(socket_path);
      if (!connected.ok()) {
        std::fprintf(stderr, "rm_scale: connect %zu failed: %s\n",
                     bulk_ends.size() + active_ends.size(),
                     connected.error().message.c_str());
        return CycleStats{};
      }
      if (static_cast<int>(bulk_ends.size()) < clients) {
        bulk_ends.push_back(std::move(connected).take());
      } else {
        int index = static_cast<int>(active_ends.size());
        (void)connected.value()->send(ipc::Message(active_registration(index)));
        active_ends.push_back(std::move(connected).take());
      }
    }
    rm.poll(0.1);
  }
  std::size_t want = bulk_ends.size() + active_ends.size();
  for (int settle = 0; settle < 8 && rm.client_count() < want; ++settle) rm.poll(0.2);
  if (rm.client_count() < want)
    std::fprintf(stderr, "rm_scale: warning: only %zu/%zu socket clients adopted\n",
                 rm.client_count(), want);

  return run_cycles(active_ends, cycles, [&rm](double now) { rm.poll(now); });
}

/// Reads every frame pending on an app end; returns true when one was an
/// activation, which is copied to `last`.
bool take_activation(ipc::Channel& end, ipc::ActivateMsg& last) {
  bool activated = false;
  for (;;) {
    Result<std::optional<ipc::Message>> polled = end.poll();
    if (!polled.ok() || !polled.value().has_value()) return activated;
    if (const auto* activation = std::get_if<ipc::ActivateMsg>(&*polled.value())) {
      activated = true;
      last = *activation;
    }
  }
}

/// Polls `rm` until every end in `watch` has received an activation, or 30 s
/// passed. Returns the seconds since `t0`.
double await_activations(core::RmServer& rm, std::vector<std::unique_ptr<ipc::Channel>>& ends,
                         const std::vector<std::size_t>& watch,
                         std::vector<ipc::ActivateMsg>& last,
                         std::chrono::steady_clock::time_point t0, double& now) {
  std::vector<bool> activated(watch.size(), false);
  std::size_t remaining = watch.size();
  while (remaining > 0 && seconds_since(t0) < 30.0) {
    now += 0.01;
    rm.poll(now);
    for (std::size_t k = 0; k < watch.size(); ++k) {
      if (!activated[k] && take_activation(*ends[watch[k]], last[watch[k]])) {
        activated[k] = true;
        --remaining;
      }
    }
  }
  return seconds_since(t0);
}

/// Burst → all-activated round-trip against `registered` point-submitting
/// apps on top of idle silent clients; one sample per burst.
std::vector<double> roundtrip_bench(core::RmServer& rm,
                                    std::vector<std::unique_ptr<ipc::Channel>>& registered_ends,
                                    int bursts) {
  platform::HardwareDescription hw = platform::raptor_lake();
  std::vector<std::size_t> all(registered_ends.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ipc::ActivateMsg> last(registered_ends.size());
  std::vector<double> samples;
  double now = 10.0;
  for (int burst = 0; burst < bursts; ++burst) {
    double wiggle = (burst % 2 == 0) ? 0.0 : 1.0;  // never a no-op resubmission
    ipc::OperatingPointsMsg msg;
    msg.points = {
        {platform::ExtendedResourceVector::from_threads(hw, {2, 0}), 100.0 + wiggle, 6.0},
        {platform::ExtendedResourceVector::from_threads(hw, {0, 2}), 50.0 + wiggle, 1.2}};
    // Activations still queued from the previous burst would end this one
    // early; drop them off the clock.
    for (std::size_t i = 0; i < all.size(); ++i)
      (void)take_activation(*registered_ends[i], last[i]);
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& end : registered_ends) (void)end->send(ipc::Message(msg));
    samples.push_back(await_activations(rm, registered_ends, all, last, t0, now));
  }
  return samples;
}

/// The row for `server`'s round-trips, printed as it is built (the caller
/// ends the line).
json::Object roundtrip_row(const char* mode, const char* server,
                           const std::vector<double>& samples) {
  const double p50 = percentile(samples, 0.50);
  const double p99 = percentile(samples, 0.99);
  std::printf("%-24s %10.3f %10.3f", server, p50 * 1e3, p99 * 1e3);
  json::Object row;
  row["mode"] = json::Value(mode);
  row["server"] = json::Value(server);
  row["bursts"] = json::Value(static_cast<int>(samples.size()));
  row["p50_roundtrip_seconds"] = json::Value(p50);
  row["p99_roundtrip_seconds"] = json::Value(p99);
  return row;
}

void register_apps(core::RmServer& rm, std::vector<std::unique_ptr<ipc::Channel>>& ends,
                   int count) {
  for (int i = 0; i < count; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    ipc::RegisterRequest reg;
    reg.pid = 1000 + i;
    reg.app_name = "scale_" + std::to_string(i);
    (void)app_end->send(ipc::Message(reg));
    rm.adopt_channel(std::move(rm_end));
    ends.push_back(std::move(app_end));
  }
}

void adopt_idle(core::RmServer& rm, std::vector<std::unique_ptr<ipc::Channel>>& keepalive,
                int count) {
  for (int i = 0; i < count; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    rm.adopt_channel(std::move(rm_end));
    keepalive.push_back(std::move(app_end));  // closing would force drop work
  }
}

// --------------------------------------------------------------------------
// crowd: rmbench crowd's instance (rmbench/src/rm_workloads.cpp)
// --------------------------------------------------------------------------

constexpr int kCrowdApps = 1024;
constexpr int kCrowdCandidates = 32;
constexpr int kCrowdTypes = 3;
constexpr int kCrowdCores = 3840;

/// Synthetic 3-type platform, built like allocator_scale's.
platform::HardwareDescription crowd_hw() {
  platform::HardwareDescription hw;
  hw.name = "synthetic-3type";
  for (int t = 0; t < kCrowdTypes; ++t) {
    platform::CoreType type;
    type.name = "t" + std::to_string(t);
    type.core_count = kCrowdCores;
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

/// One crowd app's table; `dominant` is its cheapest (preferred) point.
struct CrowdTable {
  std::vector<ipc::OperatingPointsMsg::Point> points;
  int dominant = 0;
};

std::vector<CrowdTable> crowd_tables(const platform::HardwareDescription& hw) {
  Rng rng(0xC0FFEEull);
  std::vector<CrowdTable> tables(kCrowdApps);
  for (CrowdTable& table : tables) {
    double best = 1e300;
    for (int c = 0; c < kCrowdCandidates; ++c) {
      std::vector<int> threads(kCrowdTypes, 0);
      int total = 0;
      for (int& count : threads) total += (count = rng.uniform_int(0, 8));
      if (total == 0) threads[0] = 1;
      ipc::OperatingPointsMsg::Point point;
      point.erv = platform::ExtendedResourceVector::from_threads(hw, threads);
      point.utility = 1.0;
      point.power_w = rng.uniform(0.5, 30.0);
      if (point.power_w < best) {
        best = point.power_w;
        table.dominant = c;
      }
      table.points.push_back(point);
    }
  }
  return tables;
}

/// The crowd against one server: every app registers with its table, then
/// each burst moves two apps' dominant points the way rmbench crowd does (a
/// new candidate becomes the cheapest, the old one expensive). Bursts come
/// from a fixed seed, so every run sees the same sequence.
class CrowdRun {
 public:
  explicit CrowdRun(std::vector<CrowdTable> tables)
      : tables_(std::move(tables)), last_(tables_.size()) {}

  /// Register every app, then run the server until each holds a grant.
  void join(core::RmServer& rm) {
    std::vector<std::size_t> all(tables_.size());
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      auto [rm_end, app_end] = ipc::make_in_process_pair();
      ipc::RegisterRequest reg;
      reg.pid = 20000 + static_cast<int>(i);
      reg.app_name = "crowd_" + std::to_string(i);
      ipc::OperatingPointsMsg table;
      table.points = tables_[i].points;
      (void)app_end->send(ipc::Message(reg));
      (void)app_end->send(ipc::Message(table));
      rm.adopt_channel(std::move(rm_end));
      ends_.push_back(std::move(app_end));
      all[i] = i;
    }
    (void)await_activations(rm, ends_, all, last_, std::chrono::steady_clock::now(), now_);
  }

  /// `count` bursts against `rm`, one round-trip sample each.
  std::vector<double> bursts(core::RmServer& rm, int count) {
    Rng rng(0xB0B5ull);
    std::vector<double> samples;
    std::vector<std::size_t> moved(2);
    std::vector<ipc::Message> messages;
    for (int burst = 0; burst < count; ++burst) {
      moved[0] = static_cast<std::size_t>(rng.uniform_int(0, kCrowdApps - 1));
      moved[1] = static_cast<std::size_t>(rng.uniform_int(0, kCrowdApps - 1));
      if (moved[1] == moved[0]) moved[1] = (moved[1] + 1) % kCrowdApps;
      messages.clear();
      for (std::size_t app : moved) {
        CrowdTable& table = tables_[app];
        int next = rng.uniform_int(0, kCrowdCandidates - 2);
        if (next >= table.dominant) ++next;
        ipc::OperatingPointsMsg::Point& fresh = table.points[static_cast<std::size_t>(next)];
        ipc::OperatingPointsMsg::Point& stale =
            table.points[static_cast<std::size_t>(table.dominant)];
        fresh.power_w = rng.uniform(0.3, 0.5);
        stale.power_w = rng.uniform(10.0, 30.0);
        table.dominant = next;
        ipc::OperatingPointsMsg msg;
        msg.points = {fresh, stale};
        messages.emplace_back(std::move(msg));
      }
      auto t0 = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < moved.size(); ++k) (void)ends_[moved[k]]->send(messages[k]);
      samples.push_back(await_activations(rm, ends_, moved, last_, t0, now_));
      // Off the clock: the other apps' activations from the same cycles.
      for (std::size_t i = 0; i < ends_.size(); ++i) (void)take_activation(*ends_[i], last_[i]);
    }
    return samples;
  }

  /// The row for `server`, once the server has stopped sending: p50/p99
  /// plus the declared power of the points the apps hold, summed, and how
  /// many apps hold no point of their table (co-allocation).
  json::Object row(const char* server, const std::vector<double>& samples) {
    double power = 0.0;
    int coallocated = 0;
    for (std::size_t i = 0; i < ends_.size(); ++i) {
      (void)take_activation(*ends_[i], last_[i]);
      const std::vector<ipc::OperatingPointsMsg::Point>& points = tables_[i].points;
      auto held = std::find_if(points.begin(), points.end(),
                               [&](const auto& p) { return p.erv == last_[i].erv; });
      if (held == points.end())
        ++coallocated;
      else
        power += held->power_w;
    }
    json::Object out = roundtrip_row("crowd", server, samples);
    std::printf(" %12.1f %12d\n", power, coallocated);
    std::fflush(stdout);
    out["apps"] = json::Value(kCrowdApps);
    out["candidates"] = json::Value(kCrowdCandidates);
    out["core_types"] = json::Value(kCrowdTypes);
    out["cores_per_type"] = json::Value(kCrowdCores);
    out["granted_power_w"] = json::Value(power);
    out["coallocated_apps"] = json::Value(coallocated);
    return out;
  }

 private:
  std::vector<CrowdTable> tables_;
  std::vector<std::unique_ptr<ipc::Channel>> ends_;
  std::vector<ipc::ActivateMsg> last_;  ///< each app's latest activation
  double now_ = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_rm_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out path]\n", argv[0]);
      return 2;
    }
  }

  const int inproc_clients = quick ? 10000 : 100000;
  const int active = quick ? 64 : 256;
  // The active heartbeaters connect over the same socket, so budget fds for
  // bulk + active and carve the active set out of what the limit allows.
  const int socket_clients =
      std::max(0, usable_socket_clients((quick ? 1000 : 10000) + active) - active);
  const int cycles = quick ? 30 : 100;
  const int bursts = quick ? 4 : 10;
  const int crowd_bursts = quick ? 40 : 300;
  platform::HardwareDescription hw = platform::raptor_lake();

  json::Array rows;
  std::printf("== RM cycle latency, mostly-idle population (%d heartbeats/cycle) ==\n", active);
  std::printf("%-8s %-12s %8s %14s %14s\n", "wire", "server", "clients", "p50[us]", "p99[us]");

  // In-process: the server's cycle bookkeeping alone.
  {
    CycleStats loop = inproc_cycle_bench(hw, inproc_clients, active, cycles);
    print_cycle("inproc", "event_loop", inproc_clients, loop);
    rows.push_back(json::Value(
        cycle_row("inproc", "event_loop", inproc_clients, active, cycles, loop)));
  }

  // Real sockets: the kernel's share of the cycle.
  if (socket_clients > 0) {
    CycleStats loop =
        socket_cycle_bench(socket_clients, active, cycles, "/tmp/harp_rm_scale_loop.sock");
    print_cycle("socket", "event_loop", socket_clients, loop);
    rows.push_back(json::Value(
        cycle_row("socket", "event_loop", socket_clients, active, cycles, loop)));
  }

  // Round-trip: burst of point submissions → all activations delivered.
  const int registered = 64;
  const int idle = quick ? 10000 : 100000;
  std::printf("\n== Activation round-trip, %d apps under %d idle clients ==\n", registered,
              idle);
  std::printf("%-24s %10s %10s\n", "server", "p50[ms]", "p99[ms]");
  auto idle_row = [&](const char* server, const std::vector<double>& samples) {
    json::Object row = roundtrip_row("roundtrip", server, samples);
    std::printf("\n");
    std::fflush(stdout);
    row["idle_clients"] = json::Value(idle);
    row["registered_apps"] = json::Value(registered);
    rows.push_back(json::Value(std::move(row)));
  };
  {
    core::RmServerOptions options;
    options.lease_seconds = 0;
    core::RmServer rm(hw, options);
    std::vector<std::unique_ptr<ipc::Channel>> registered_ends, keepalive;
    register_apps(rm, registered_ends, registered);
    adopt_idle(rm, keepalive, idle);
    rm.poll(0.5);
    idle_row("single", roundtrip_bench(rm, registered_ends, bursts));
  }

  // Crowd round-trip: the MMKP at rmbench crowd's size, two moves per burst.
  const platform::HardwareDescription crowd = crowd_hw();
  std::printf("\n== Crowd round-trip, %d apps x %d candidates x %d types, %d cores/type ==\n",
              kCrowdApps, kCrowdCandidates, kCrowdTypes, kCrowdCores);
  std::printf("%-24s %10s %10s %12s %12s\n", "server", "p50[ms]", "p99[ms]", "power[W]",
              "coallocated");
  {
    core::RmServerOptions options;
    options.lease_seconds = 0;
    core::RmServer rm(crowd, options);
    CrowdRun run(crowd_tables(crowd));
    run.join(rm);
    std::vector<double> samples = run.bursts(rm, crowd_bursts);
    rows.push_back(json::Value(run.row("single", samples)));
  }

  if (!bench::write_bench_file(out_path, "rm_scale", std::move(rows))) return 1;
  return 0;
}
