// Bounded ring-buffer tracer emitting typed span/instant events for the
// HARP runtime loop (DESIGN.md "Observability").
//
// The event taxonomy covers every decision the RM pipeline makes:
// allocation cycles and MMKP solves (spans), per-app grants, exploration
// stage transitions and candidate selections, operating-point measurements,
// IPC frame traffic, injected faults, and the client link lifecycle
// (reconnect / link-down / lease eviction / registration).
//
// Timestamps come from an injected Clock (clock.hpp), never a wall clock,
// so a trace is a pure function of the run's inputs: the same scenario and
// seed produce a byte-identical JSONL export (asserted by
// tests/fault_scenario_test.cpp). Sequence numbers are assigned under the
// tracer's mutex and order events totally, even within one timestamp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/telemetry/clock.hpp"

namespace harp::telemetry {

enum class EventType : std::uint8_t {
  kAllocCycle,         ///< span: one RM allocation cycle (MMKP + push)
  kMmkpSolve,          ///< span: one Allocator::solve invocation
  kGrant,              ///< instant: operating point granted to one app
  kStageTransition,    ///< instant: exploration maturity-stage change
  kExplorationSelect,  ///< instant: next exploration candidate chosen
  kMeasurement,        ///< instant: one operating-point measurement window
  kIpcSend,            ///< instant: frame put on the wire
  kIpcRecv,            ///< instant: frame decoded off the wire
  kFaultInjected,      ///< instant: FaultInjectingChannel fired a fault
  kReconnect,          ///< instant: client dialed a fresh channel
  kLinkDown,           ///< instant: client lost its link to the RM
  kLease,              ///< instant: RM evicted a client on lease expiry
  kRegistration,       ///< instant: app registered with the RM
  kDseSweep,           ///< span: offline design-space exploration sweep
  kQosRequest,         ///< instant: one QoS request completed (deadline accounting)
};

/// All event types, for exporters and parsers.
inline constexpr EventType kAllEventTypes[] = {
    EventType::kAllocCycle,   EventType::kMmkpSolve,      EventType::kGrant,
    EventType::kStageTransition, EventType::kExplorationSelect, EventType::kMeasurement,
    EventType::kIpcSend,      EventType::kIpcRecv,        EventType::kFaultInjected,
    EventType::kReconnect,    EventType::kLinkDown,       EventType::kLease,
    EventType::kRegistration, EventType::kDseSweep,    EventType::kQosRequest,
};

const char* to_string(EventType type);
/// Inverse of to_string: true and *out set when `name` is a known type.
bool event_type_from_string(const std::string& name, EventType* out);

enum class Phase : std::uint8_t { kBegin, kEnd, kInstant };

const char* to_string(Phase phase);
bool phase_from_string(const std::string& name, Phase* out);

/// Named numeric / string arguments; small vectors beat maps at this size
/// and preserve the emission order.
using NumArgs = std::vector<std::pair<std::string, double>>;
using StrArgs = std::vector<std::pair<std::string, std::string>>;

struct TraceEvent {
  std::uint64_t seq = 0;  ///< total order, assigned by the Tracer
  double t = 0.0;         ///< Clock::now_seconds() at emission
  EventType type = EventType::kAllocCycle;
  Phase phase = Phase::kInstant;
  std::string scope;  ///< app / channel label; empty = global
  NumArgs num;
  StrArgs str;

  bool operator==(const TraceEvent&) const = default;
};

struct TracerOptions {
  /// Ring capacity in events; the oldest events are overwritten once full
  /// (dropped() counts them).
  std::size_t capacity = 1 << 16;
};

/// Thread-safe bounded event ring. Emission cost is one mutex acquisition
/// plus a slot write; components hold a nullable Tracer* so the disabled
/// path is a null check per site.
class Tracer {
 public:
  /// `clock` must outlive the tracer and be kept current by the timeline
  /// owner (see clock.hpp).
  explicit Tracer(const Clock* clock, TracerOptions options = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin(EventType type, std::string scope = "", NumArgs num = {}, StrArgs str = {});
  void end(EventType type, std::string scope = "", NumArgs num = {}, StrArgs str = {});
  void instant(EventType type, std::string scope = "", NumArgs num = {}, StrArgs str = {});

  /// Retained events, oldest first (seq ascending).
  std::vector<TraceEvent> events() const;
  /// Events emitted since construction/clear, including overwritten ones.
  std::uint64_t recorded() const;
  /// Events lost to ring wraparound.
  std::uint64_t dropped() const;
  std::size_t capacity() const;
  void clear();

 private:
  void record(EventType type, Phase phase, std::string&& scope, NumArgs&& num, StrArgs&& str);

  mutable Mutex mutex_;
  const Clock* clock_ HARP_GUARDED_BY(mutex_);
  std::size_t capacity_ HARP_GUARDED_BY(mutex_);
  std::vector<TraceEvent> ring_ HARP_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ HARP_GUARDED_BY(mutex_) = 0;
};

}  // namespace harp::telemetry
