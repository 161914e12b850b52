#include "src/telemetry/trace.hpp"

#include <cstring>

#include "src/common/check.hpp"
#include "src/common/race_registry.hpp"

namespace harp::telemetry {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kAllocCycle: return "alloc_cycle";
    case EventType::kMmkpSolve: return "mmkp_solve";
    case EventType::kGrant: return "grant";
    case EventType::kStageTransition: return "stage_transition";
    case EventType::kExplorationSelect: return "exploration_select";
    case EventType::kMeasurement: return "measurement";
    case EventType::kIpcSend: return "ipc_send";
    case EventType::kIpcRecv: return "ipc_recv";
    case EventType::kFaultInjected: return "fault_injected";
    case EventType::kReconnect: return "reconnect";
    case EventType::kLinkDown: return "link_down";
    case EventType::kLease: return "lease_eviction";
    case EventType::kRegistration: return "registration";
    case EventType::kDseSweep: return "dse_sweep";
    case EventType::kQosRequest: return "qos_request";
  }
  return "?";
}

bool event_type_from_string(const std::string& name, EventType* out) {
  for (EventType type : kAllEventTypes) {
    if (name == to_string(type)) {
      *out = type;
      return true;
    }
  }
  return false;
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kBegin: return "B";
    case Phase::kEnd: return "E";
    case Phase::kInstant: return "i";
  }
  return "?";
}

bool phase_from_string(const std::string& name, Phase* out) {
  if (name == "B") {
    *out = Phase::kBegin;
    return true;
  }
  if (name == "E") {
    *out = Phase::kEnd;
    return true;
  }
  if (name == "i") {
    *out = Phase::kInstant;
    return true;
  }
  return false;
}

Tracer::Tracer(const Clock* clock, TracerOptions options)
    : clock_(clock), capacity_(options.capacity) {
  HARP_CHECK_MSG(clock != nullptr, "Tracer needs a Clock");
  HARP_CHECK_MSG(capacity_ > 0, "Tracer capacity must be positive");
  ring_.reserve(capacity_);
}

void Tracer::begin(EventType type, std::string scope, NumArgs num, StrArgs str) {
  record(type, Phase::kBegin, std::move(scope), std::move(num), std::move(str));
}

void Tracer::end(EventType type, std::string scope, NumArgs num, StrArgs str) {
  record(type, Phase::kEnd, std::move(scope), std::move(num), std::move(str));
}

void Tracer::instant(EventType type, std::string scope, NumArgs num, StrArgs str) {
  record(type, Phase::kInstant, std::move(scope), std::move(num), std::move(str));
}

Tracer::~Tracer() { HARP_UNTRACK_SHARED(&ring_); }

void Tracer::record(EventType type, Phase phase, std::string&& scope, NumArgs&& num,
                    StrArgs&& str) {
  MutexLock lock(mutex_);
  HARP_TRACK_SHARED(&ring_);
  TraceEvent event;
  event.seq = next_seq_++;
  event.t = clock_->now_seconds();
  event.type = type;
  event.phase = phase;
  event.scope = std::move(scope);
  event.num = std::move(num);
  event.str = std::move(str);
  if (ring_.size() < capacity_)
    ring_.push_back(std::move(event));
  else
    ring_[event.seq % capacity_] = std::move(event);
}

std::vector<TraceEvent> Tracer::events() const {
  MutexLock lock(mutex_);
  HARP_TRACK_SHARED(&ring_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  // Full ring: the slot the next event would land in holds the oldest.
  std::size_t start = next_seq_ % capacity_;
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(ring_[(start + i) % capacity_]);
  return out;
}

std::uint64_t Tracer::recorded() const {
  MutexLock lock(mutex_);
  return next_seq_;
}

std::uint64_t Tracer::dropped() const {
  MutexLock lock(mutex_);
  return next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
}

std::size_t Tracer::capacity() const {
  MutexLock lock(mutex_);
  return capacity_;
}

void Tracer::clear() {
  // harp-lint: allow(r11 ring_.clear() is std::vector::clear; the unique-bare-name rule misreads it as self-recursion)
  MutexLock lock(mutex_);
  ring_.clear();
  next_seq_ = 0;
}

}  // namespace harp::telemetry
