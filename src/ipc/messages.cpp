#include "src/ipc/messages.hpp"

#include <cmath>

#include "src/common/check.hpp"
#include "src/ipc/wire.hpp"

namespace harp::ipc {

namespace {

void write_erv(WireWriter& w, const platform::ExtendedResourceVector& erv) {
  w.u32(static_cast<std::uint32_t>(erv.num_types()));
  for (int t = 0; t < erv.num_types(); ++t) {
    w.u32(static_cast<std::uint32_t>(erv.smt_levels(t)));
    for (int k = 1; k <= erv.smt_levels(t); ++k) w.i32(erv.count(t, k));
  }
}

bool read_erv(WireReader& r, platform::ExtendedResourceVector& erv) {
  std::uint32_t num_types = 0;
  if (!r.u32(num_types) || num_types == 0 || num_types > 16) return false;
  std::vector<std::vector<int>> counts(num_types);
  for (std::uint32_t t = 0; t < num_types; ++t) {
    std::uint32_t levels = 0;
    if (!r.u32(levels) || levels == 0 || levels > 8) return false;
    counts[t].resize(levels);
    for (std::uint32_t k = 0; k < levels; ++k) {
      std::int32_t c = 0;
      if (!r.i32(c) || c < 0 || c > 4096) return false;
      counts[t][k] = c;
    }
  }
  erv = platform::ExtendedResourceVector::from_counts(std::move(counts));
  return true;
}

Result<Message> proto_error(const char* what) {
  return Result<Message>(make_error(std::string("proto: ") + what));
}

}  // namespace

MessageType type_of(const Message& message) {
  struct Visitor {
    MessageType operator()(const RegisterRequest&) { return MessageType::kRegisterRequest; }
    MessageType operator()(const RegisterAck&) { return MessageType::kRegisterAck; }
    MessageType operator()(const OperatingPointsMsg&) { return MessageType::kOperatingPoints; }
    MessageType operator()(const ActivateMsg&) { return MessageType::kActivate; }
    MessageType operator()(const UtilityRequest&) { return MessageType::kUtilityRequest; }
    MessageType operator()(const UtilityReport&) { return MessageType::kUtilityReport; }
    MessageType operator()(const Deregister&) { return MessageType::kDeregister; }
    MessageType operator()(const Heartbeat&) { return MessageType::kHeartbeat; }
  };
  return std::visit(Visitor{}, message);
}

std::vector<std::uint8_t> encode(const Message& message) {
  WireWriter payload;
  std::visit(
      [&payload](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, RegisterRequest>) {
          payload.i32(msg.pid);
          payload.string(msg.app_name);
          payload.u8(static_cast<std::uint8_t>(msg.adaptivity));
          payload.boolean(msg.provides_utility);
        } else if constexpr (std::is_same_v<T, RegisterAck>) {
          payload.i32(msg.app_id);
        } else if constexpr (std::is_same_v<T, OperatingPointsMsg>) {
          payload.u32(static_cast<std::uint32_t>(msg.points.size()));
          for (const OperatingPointsMsg::Point& p : msg.points) {
            write_erv(payload, p.erv);
            payload.f64(p.utility);
            payload.f64(p.power_w);
          }
        } else if constexpr (std::is_same_v<T, ActivateMsg>) {
          write_erv(payload, msg.erv);
          payload.u32(static_cast<std::uint32_t>(msg.cores.size()));
          for (const ActivateMsg::CoreGrant& grant : msg.cores) {
            payload.i32(grant.type);
            payload.i32(grant.core);
            payload.i32(grant.threads);
          }
          payload.i32(msg.parallelism);
          payload.boolean(msg.rebalance);
        } else if constexpr (std::is_same_v<T, UtilityReport>) {
          payload.f64(msg.utility);
        }
        // UtilityRequest, Deregister and Heartbeat have empty payloads.
      },
      message);

  std::vector<std::uint8_t> frame = encode_frame_header(
      static_cast<std::uint16_t>(type_of(message)),
      static_cast<std::uint32_t>(payload.bytes().size()));
  const std::vector<std::uint8_t>& body = payload.bytes();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Result<Message> decode(MessageType type, const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  switch (type) {
    case MessageType::kRegisterRequest: {
      RegisterRequest msg;
      std::uint8_t adaptivity = 0;
      if (!r.i32(msg.pid) || !r.string(msg.app_name) || !r.u8(adaptivity) ||
          !r.boolean(msg.provides_utility) || !r.at_end())
        return proto_error("malformed RegisterRequest");
      if (adaptivity > 2) return proto_error("invalid adaptivity type");
      msg.adaptivity = static_cast<WireAdaptivity>(adaptivity);
      return Message(msg);
    }
    case MessageType::kRegisterAck: {
      RegisterAck msg;
      if (!r.i32(msg.app_id) || !r.at_end()) return proto_error("malformed RegisterAck");
      return Message(msg);
    }
    case MessageType::kOperatingPoints: {
      OperatingPointsMsg msg;
      std::uint32_t count = 0;
      if (!r.u32(count) || count > 100000) return proto_error("malformed OperatingPoints");
      msg.points.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!read_erv(r, msg.points[i].erv) || !r.f64(msg.points[i].utility) ||
            !r.f64(msg.points[i].power_w))
          return proto_error("malformed operating point");
        // !(x >= 0) also rejects NaN; +∞ is checked apart.
        const double utility = msg.points[i].utility, power = msg.points[i].power_w;
        if (!(utility >= 0.0) || !(power >= 0.0) || std::isinf(utility) || std::isinf(power))
          return proto_error("negative or non-finite operating-point characteristics");
      }
      if (!r.at_end()) return proto_error("trailing bytes in OperatingPoints");
      return Message(msg);
    }
    case MessageType::kActivate: {
      ActivateMsg msg;
      std::uint32_t count = 0;
      if (!read_erv(r, msg.erv) || !r.u32(count) || count > 4096)
        return proto_error("malformed Activate");
      msg.cores.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ActivateMsg::CoreGrant& grant = msg.cores[i];
        if (!r.i32(grant.type) || !r.i32(grant.core) || !r.i32(grant.threads))
          return proto_error("malformed core grant");
        if (grant.type < 0 || grant.core < 0 || grant.threads < 1)
          return proto_error("invalid core grant");
      }
      if (!r.i32(msg.parallelism) || !r.boolean(msg.rebalance) || !r.at_end())
        return proto_error("malformed Activate tail");
      if (msg.parallelism < 0) return proto_error("negative parallelism");
      return Message(msg);
    }
    case MessageType::kUtilityRequest: {
      if (!payload.empty()) return proto_error("UtilityRequest carries payload");
      return Message(UtilityRequest{});
    }
    case MessageType::kUtilityReport: {
      UtilityReport msg;
      if (!r.f64(msg.utility) || !r.at_end()) return proto_error("malformed UtilityReport");
      if (!std::isfinite(msg.utility)) return proto_error("non-finite UtilityReport");
      return Message(msg);
    }
    case MessageType::kDeregister: {
      if (!payload.empty()) return proto_error("Deregister carries payload");
      return Message(Deregister{});
    }
    case MessageType::kHeartbeat: {
      if (!payload.empty()) return proto_error("Heartbeat carries payload");
      return Message(Heartbeat{});
    }
  }
  return proto_error("unknown message type");
}

}  // namespace harp::ipc
