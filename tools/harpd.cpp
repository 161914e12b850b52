// harpd — the HARP resource-manager daemon (§4.3, Fig. 4).
//
// A user-space system service, in the spirit of systemd/launchd: it loads
// the hardware description from a /etc/harp-style configuration directory
// (or uses a built-in platform), listens on a Unix socket for libharp
// registrations, and manages the registered applications' resources.
//
// Usage:
//   harpd --config <dir> [--socket <path>] [--verbose]
//   harpd --hardware raptor-lake|odroid-xu3e [--socket <path>]
//
// With --config, only <dir>'s hardware description is read. Profiles in
// <dir>/apps/*.json are not loaded: a client's table is what it submits,
// and a client without one gets the fair-share group (pre-seeding tables
// from the profiles is ROADMAP.md item 11).
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/logging.hpp"
#include "src/harp/config_dir.hpp"
#include "src/harp/rm_server.hpp"
#include "src/platform/hardware.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
harp::core::RmServer* g_rm = nullptr;  // set before the handlers are installed

void handle_signal(int) {
  const int saved_errno = errno;
  g_stop = 1;
  // Async-signal-safe (an atomic flag and a pipe write): ends a blocked wait.
  if (g_rm != nullptr) g_rm->wakeup();
  errno = saved_errno;
}

void usage() {
  std::fprintf(stderr,
               "usage: harpd (--config <dir> | --hardware raptor-lake|odroid-xu3e)\n"
               "             [--socket <path>] [--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_dir;
  std::string hardware_name;
  std::string socket_path = "/tmp/harp.sock";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      config_dir = v;
    } else if (arg == "--hardware") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      hardware_name = v;
    } else if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      socket_path = v;
    } else if (arg == "--verbose") {
      harp::set_log_level(harp::LogLevel::kInfo);
    } else {
      usage();
      return 2;
    }
  }

  harp::platform::HardwareDescription hw;
  if (!config_dir.empty()) {
    harp::core::ConfigDirectory config(config_dir);
    auto loaded = config.load_hardware();
    if (!loaded.ok()) {
      std::fprintf(stderr, "harpd: cannot load %s: %s\n", config.hardware_path().c_str(),
                   loaded.error().message.c_str());
      return 1;
    }
    hw = std::move(loaded).take();
  } else if (hardware_name == "raptor-lake") {
    hw = harp::platform::raptor_lake();
  } else if (hardware_name == "odroid-xu3e") {
    hw = harp::platform::odroid_xu3e();
  } else {
    usage();
    return 2;
  }

  harp::core::RmServerOptions options;
  harp::core::RmServer rm(hw, options);
  if (harp::Status s = rm.listen(socket_path); !s.ok()) {
    std::fprintf(stderr, "harpd: %s\n", s.error().message.c_str());
    return 1;
  }

  g_rm = &rm;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("harpd: managing '%s' on %s (ctrl-c to stop)\n", hw.name.c_str(),
              socket_path.c_str());

  // Block until readiness or the next utility tick, so an idle daemon wakes
  // once per tick. The tick's own cycle runs without waiting; other cycles
  // run on the clock read before their wait, at most one tick stale.
  const double tick_s = options.utility_poll_interval_s;
  double next_tick = tick_s;
  auto t0 = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    double now =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    bool tick = now >= next_tick;
    rm.poll(now, tick ? 0 : static_cast<int>(std::ceil((next_tick - now) * 1e3)));
    if (tick) next_tick = now + tick_s;
  }
  std::printf("harpd: shutting down (%zu clients)\n", rm.client_count());
  return 0;
}
