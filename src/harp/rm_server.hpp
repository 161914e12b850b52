// The HARP RM as a user-space daemon (§4.3, Fig. 4): a central service —
// akin to systemd/launchd — that applications register with over a Unix
// socket (or an in-process channel in tests).
//
// The daemon side of the Fig. 3 control flow: it accepts registrations,
// ingests operating points from application description files, solves the
// MMKP (Eq. 1) whenever the application set or the point tables change,
// pushes operating-point activations with concrete spatially isolated core
// grants, and polls utility feedback from applications that provide it.
//
// I/O is readiness-driven (DESIGN.md "Event loop & sharding"): an
// ipc::EventLoop owns every client fd, so a poll() cycle drains only the
// clients with work instead of issuing one recv(2) per connected client.
// In-process channels participate through ready hooks that set a per-client
// atomic flag and nudge the loop's wakeup pipe. If event-loop construction
// fails (fd exhaustion), listen() reports it and the server takes no socket
// clients.
//
// Every reallocation runs through an AllocationSession
// (allocation_session.hpp): the same decision cycle HarpPolicy runs, keyed
// by app_id.
//
// For multi-RM scale-out the server also exposes a core budget
// (set_core_budget / last_multipliers): a ShardedRmServer (rm_shard.hpp)
// runs N RmServers over disjoint client sets, gives each a disjoint slice of
// the cores, and moves cores between them on λ drift.
//
// Unlike HarpPolicy (the simulator-embedded RM used in the evaluation
// benches), RmServer manages real client processes; it has no telemetry of
// its own, so applications without description files receive a fair-share
// allocation until they submit points or report utility.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.hpp"
#include "src/harp/allocation_session.hpp"
#include "src/harp/allocator.hpp"
#include "src/harp/candidates.hpp"
#include "src/harp/operating_point.hpp"
#include "src/ipc/event_loop.hpp"
#include "src/ipc/transport.hpp"

namespace harp::core {

struct RmServerOptions {
  SolverKind solver = SolverKind::kLagrangian;
  /// Seconds between utility-feedback requests (§4.1.1 step 4).
  double utility_poll_interval_s = 1.0;
  /// Client lease: a client silent for longer than this is evicted and its
  /// cores reclaimed within the same poll() cycle. Any received frame (even
  /// a malformed one) renews the lease; libharp sends heartbeats when idle.
  /// 0 disables lease tracking.
  double lease_seconds = 30.0;
  /// Consecutive malformed ("proto:") frames tolerated per client before the
  /// connection is cut; a valid frame resets the count.
  int max_malformed_frames = 8;
  /// Optional telemetry sinks (may each be null): allocation-cycle spans,
  /// grant/registration/lease instants, and "rm_*_total" counters.
  telemetry::Tracer* tracer = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// At most this many configurations make up the fair-share group.
inline constexpr std::uint64_t kMaxFairShareCandidates = 4096;

/// The configurations behind the fair-share group of a client without
/// operating points: every coarse configuration of `hw` where there are at
/// most kMaxFairShareCandidates, so none is enumerated on a wide platform
/// (3×1024 SMT-1 cores have ~1.1·10⁹). Otherwise a bounded set at full SMT
/// width: per type {0, 1, 2, 4, …, n_t} cores, the longest of these ladders
/// thinned while their product exceeds the constant, minus the all-zero
/// vector.
std::vector<platform::ExtendedResourceVector> fair_share_configurations(
    const platform::HardwareDescription& hw);

/// Diagnostic view of one connected client (scenario tests, harp-inspect).
struct ClientSnapshot {
  std::string name;
  std::int32_t pid = 0;
  std::int32_t app_id = -1;
  bool registered = false;
  double last_heard = 0.0;
  /// Exclusive core grants currently held (empty under co-allocation).
  std::vector<ipc::ActivateMsg::CoreGrant> granted;
};

class RmServer {
 public:
  RmServer(platform::HardwareDescription hw, RmServerOptions options = {});
  ~RmServer();
  RmServer(const RmServer&) = delete;
  RmServer& operator=(const RmServer&) = delete;

  /// Bind the registration socket (Fig. 3 step 1). Fails when the socket
  /// cannot be bound or the readiness loop could not be created.
  Status listen(const std::string& socket_path);

  /// Adopt an already connected channel (in-process transport).
  void adopt_channel(std::unique_ptr<ipc::Channel> channel);

  /// One event-loop iteration: accept clients, process pending messages,
  /// reallocate if anything changed, and issue due utility requests.
  /// `now_seconds` is the caller's clock (monotonic); drives utility polls.
  void poll(double now_seconds);

  /// Blocking variant for dedicated threads (harpd, shard threads): waits up
  /// to `timeout_ms` (-1 = indefinitely) for readiness before running the
  /// cycle. Returns immediately when wakeup() or readiness arrives.
  void poll(double now_seconds, int timeout_ms);

  /// Nudge a poll(now, timeout) blocked on the event loop (cross-thread
  /// adoption, shutdown). Thread-safe.
  void wakeup();

  // Sharding surface (used by ShardedRmServer; see rm_shard.hpp). ------

  /// Restrict this server to a disjoint slice of the platform: one vector of
  /// owned physical core ids per core type. The internal allocator is
  /// rebuilt with the slice's capacities and solves in local core ids, which
  /// grants translate back through the slice. An empty outer vector restores
  /// full-platform operation.
  void set_core_budget(std::vector<std::vector<int>> owned_cores);

  /// λ multipliers from the last Lagrangian solve (empty before the first
  /// solve); the coordinator's rebalance signal.
  std::vector<double> last_multipliers() const;

  // Read-only accessors. ------------------------------------------------

  /// The accessors below may be called from a monitoring thread while
  /// another thread drives poll(); they copy out under the lock and never
  /// hand back references into client state.

  std::size_t client_count() const;

  /// Most recent utility reported by a named application (0 if none).
  double last_utility(const std::string& app_name) const;

  /// The activation most recently pushed to a named application.
  std::optional<OperatingPoint> current_point(const std::string& app_name) const;

  /// Per-client diagnostic snapshot (invariant checks, tooling).
  std::vector<ClientSnapshot> snapshot() const;

  /// Times the MMKP ran since construction (observability for tests).
  std::uint64_t realloc_count() const;
  /// Clients evicted for lease expiry since construction.
  std::uint64_t lease_evictions() const;

 private:
  struct Client;

  void poll_impl(double now_seconds, int timeout_ms);
  void accept_pending_locked() HARP_REQUIRES(mutex_);
  void process_cycle_locked(double now_seconds) HARP_REQUIRES(mutex_);
  void adopt_channel_locked(std::unique_ptr<ipc::Channel> channel) HARP_REQUIRES(mutex_);
  void process_client_messages(Client& client, double now_seconds) HARP_REQUIRES(mutex_);
  void handle_registration(Client& client, const ipc::RegisterRequest& request)
      HARP_REQUIRES(mutex_);
  void drop_client(std::size_t index) HARP_REQUIRES(mutex_);
  void reallocate() HARP_REQUIRES(mutex_);
  /// Returns true when the group was rebuilt (operating-point table changed
  /// since the cached build) — the session's `rebuilt` flag.
  bool refresh_group_locked(Client& client) HARP_REQUIRES(mutex_);
  void send_activation_locked(Client& client, const OperatingPoint& point,
                              const platform::CoreAllocation& cores, double cost)
      HARP_REQUIRES(mutex_);
  void send_coallocation_locked(Client& client) HARP_REQUIRES(mutex_);

  /// Readiness loop; created at construction, immutable after (invalid when
  /// fds ran out, which listen() reports). Shared so in-process ready hooks
  /// can hold a weak_ptr for their wakeup nudge without dangling after
  /// destruction. Declared before clients_ so it outlives every hook-owning
  /// channel during teardown.
  std::shared_ptr<ipc::EventLoop> loop_;  // harp-lint: allow(all immutable after construction)
  /// wait() output, reused across cycles; touched only by the poll thread.
  std::vector<ipc::EventLoop::Ready> ready_scratch_;  // harp-lint: allow(all poll-thread-only)

  /// Guards all server state: poll() holds it for a full event-loop
  /// iteration; accessors take it briefly. hw_/options_/allocator_ are
  /// written only at construction but are kept under the same lock so the
  /// invariant stays one sentence long.
  mutable Mutex mutex_;
  platform::HardwareDescription hw_ HARP_GUARDED_BY(mutex_);
  RmServerOptions options_ HARP_GUARDED_BY(mutex_);
  Allocator allocator_ HARP_GUARDED_BY(mutex_);
  std::unique_ptr<ipc::UnixServer> server_ HARP_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Client>> clients_ HARP_GUARDED_BY(mutex_);
  /// fd → client, for routing readiness events (fd-backed channels only).
  std::map<int, Client*> by_fd_ HARP_GUARDED_BY(mutex_);
  /// Registered identity → client, for O(log n) zombie supersession.
  std::map<std::pair<std::string, std::int32_t>, Client*> identity_ HARP_GUARDED_BY(mutex_);
  /// Clients adopted since the last cycle, awaiting their lease-clock start
  /// (adoption has no clock; poll() provides one).
  std::vector<Client*> lease_init_pending_ HARP_GUARDED_BY(mutex_);
  /// Owned physical core ids per type when budgeted (see set_core_budget);
  /// empty = the full platform.
  std::vector<std::vector<int>> owned_cores_ HARP_GUARDED_BY(mutex_);
  std::int32_t next_app_id_ HARP_GUARDED_BY(mutex_) = 1;
  bool needs_realloc_ HARP_GUARDED_BY(mutex_) = false;
  double last_utility_poll_ HARP_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t realloc_count_ HARP_GUARDED_BY(mutex_) = 0;
  std::uint64_t lease_evictions_ HARP_GUARDED_BY(mutex_) = 0;
  /// The decision cycle (group cache check, solve or no-change, solver
  /// counters, alloc_cycle span), keyed by app_id.
  AllocationSession session_ HARP_GUARDED_BY(mutex_);
  /// The fair-share group of table-less clients: it depends only on hw_,
  /// so it is built once, on the first table-less refresh, and copied.
  std::unique_ptr<const AllocationGroup> fair_share_ HARP_GUARDED_BY(mutex_);
  /// Pareto-filter buffers reused by every group build.
  ParetoFront front_scratch_ HARP_GUARDED_BY(mutex_);
  /// Registered clients in allocation order, reused across cycles.
  std::vector<Client*> registered_scratch_ HARP_GUARDED_BY(mutex_);
  /// Counters resolved once at construction from options.metrics (all null
  /// when metrics are off, making every increment a single null check).
  telemetry::Counter* reallocs_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* registrations_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* evictions_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* malformed_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* eventloop_cycles_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* eventloop_ready_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace harp::core
