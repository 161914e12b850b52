// Tests for the wire codec, the protocol message set, both transports
// (in-process and AF_UNIX sockets), the fault-injection decorator, and a
// seeded fuzz sweep over the frame decoder.
#include <gtest/gtest.h>

#include <limits>

#include "src/common/rng.hpp"
#include "src/ipc/fault_injection.hpp"
#include "src/ipc/messages.hpp"
#include "src/ipc/transport.hpp"
#include "src/ipc/wire.hpp"
#include "src/platform/hardware.hpp"

namespace harp::ipc {
namespace {

platform::ExtendedResourceVector sample_erv() {
  return platform::ExtendedResourceVector::from_threads(platform::raptor_lake(), {5, 7});
}

TEST(Wire, PrimitiveRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f64(-3.25e17);
  w.boolean(true);
  w.string("héllo");

  WireReader r(w.bytes());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int32_t e = 0;
  double f = 0;
  bool g = false;
  std::string h;
  EXPECT_TRUE(r.u8(a) && r.u16(b) && r.u32(c) && r.u64(d) && r.i32(e) && r.f64(f) &&
              r.boolean(g) && r.string(h));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(e, -42);
  EXPECT_DOUBLE_EQ(f, -3.25e17);
  EXPECT_TRUE(g);
  EXPECT_EQ(h, "héllo");
}

TEST(Wire, TruncationDetected) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(v));
  EXPECT_FALSE(r.ok());
}

TEST(Wire, FrameHeaderRoundTrip) {
  std::vector<std::uint8_t> header = encode_frame_header(4, 1234);
  auto decoded = decode_frame_header(header.data(), header.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().first, 4);
  EXPECT_EQ(decoded.value().second, 1234u);
  EXPECT_FALSE(decode_frame_header(header.data(), 3).ok());
}

TEST(Wire, FrameHeaderRejectsOversizedPayload) {
  std::vector<std::uint8_t> header = encode_frame_header(1, kMaxPayloadBytes + 1);
  EXPECT_FALSE(decode_frame_header(header.data(), header.size()).ok());
}

template <typename T>
T encode_decode(const T& message) {
  std::vector<std::uint8_t> frame = encode(Message(message));
  auto header = decode_frame_header(frame.data(), frame.size());
  EXPECT_TRUE(header.ok());
  std::vector<std::uint8_t> payload(frame.begin() + static_cast<long>(kFrameHeaderSize),
                                    frame.end());
  EXPECT_EQ(payload.size(), header.value().second);
  auto decoded = decode(static_cast<MessageType>(header.value().first), payload);
  EXPECT_TRUE(decoded.ok());
  return std::get<T>(decoded.value());
}

TEST(Messages, RegisterRequestRoundTrip) {
  RegisterRequest msg;
  msg.pid = 4321;
  msg.app_name = "mg.C";
  msg.adaptivity = WireAdaptivity::kCustom;
  msg.provides_utility = true;
  RegisterRequest out = encode_decode(msg);
  EXPECT_EQ(out.pid, 4321);
  EXPECT_EQ(out.app_name, "mg.C");
  EXPECT_EQ(out.adaptivity, WireAdaptivity::kCustom);
  EXPECT_TRUE(out.provides_utility);
}

TEST(Messages, OperatingPointsRoundTrip) {
  OperatingPointsMsg msg;
  msg.points.push_back({sample_erv(), 23.5, 41.25});
  msg.points.push_back({platform::ExtendedResourceVector::from_threads(
                            platform::raptor_lake(), {0, 3}),
                        4.0, 5.5});
  OperatingPointsMsg out = encode_decode(msg);
  ASSERT_EQ(out.points.size(), 2u);
  EXPECT_TRUE(out.points[0].erv == msg.points[0].erv);
  EXPECT_DOUBLE_EQ(out.points[0].utility, 23.5);
  EXPECT_DOUBLE_EQ(out.points[1].power_w, 5.5);
}

TEST(Messages, ActivateRoundTrip) {
  ActivateMsg msg;
  msg.erv = sample_erv();
  msg.cores = {{0, 2, 2}, {1, 7, 1}};
  msg.parallelism = 12;
  msg.rebalance = true;
  ActivateMsg out = encode_decode(msg);
  EXPECT_TRUE(out.erv == msg.erv);
  ASSERT_EQ(out.cores.size(), 2u);
  EXPECT_EQ(out.cores[0].core, 2);
  EXPECT_EQ(out.cores[1].threads, 1);
  EXPECT_EQ(out.parallelism, 12);
  EXPECT_TRUE(out.rebalance);
}

TEST(Messages, EmptyPayloadMessages) {
  EXPECT_NO_THROW(encode_decode(UtilityRequest{}));
  EXPECT_NO_THROW(encode_decode(Deregister{}));
  UtilityReport report{123.5};
  EXPECT_DOUBLE_EQ(encode_decode(report).utility, 123.5);
}

TEST(Messages, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(decode(MessageType::kRegisterRequest, {1, 2, 3}).ok());
  EXPECT_FALSE(decode(MessageType::kUtilityRequest, {0}).ok());  // payload present
  EXPECT_FALSE(decode(static_cast<MessageType>(99), {}).ok());
  // Negative utility in an operating point.
  OperatingPointsMsg msg;
  msg.points.push_back({sample_erv(), 1.0, 1.0});
  std::vector<std::uint8_t> frame = encode(Message(msg));
  std::vector<std::uint8_t> payload(frame.begin() + static_cast<long>(kFrameHeaderSize),
                                    frame.end());
  // Corrupt the utility double (bytes after the erv encoding) by flipping
  // the sign bit of the last 8-byte double (power) — decode must reject.
  payload[payload.size() - 1] |= 0x80;
  EXPECT_FALSE(decode(MessageType::kOperatingPoints, payload).ok());
}

/// Payload of one encoded message (the frame without its header).
std::vector<std::uint8_t> payload_of(const Message& message) {
  std::vector<std::uint8_t> frame = encode(message);
  return {frame.begin() + static_cast<long>(kFrameHeaderSize), frame.end()};
}

TEST(Messages, DecodeRejectsNonFiniteCharacteristics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double utility, power_w;
  };
  for (const Case& c : {Case{nan, 1.0}, Case{1.0, nan}, Case{inf, 1.0}, Case{1.0, inf},
                        Case{-inf, 1.0}, Case{1.0, -0.5}}) {
    OperatingPointsMsg msg;
    msg.points.push_back({sample_erv(), 2.0, 3.0});  // a valid point first
    msg.points.push_back({sample_erv(), c.utility, c.power_w});
    Result<Message> decoded = decode(MessageType::kOperatingPoints, payload_of(Message(msg)));
    ASSERT_FALSE(decoded.ok()) << c.utility << " " << c.power_w;
    // A protocol error: the RM counts it as a malformed-frame strike.
    EXPECT_EQ(decoded.error().message.rfind("proto:", 0), 0u) << decoded.error().message;
  }
  // Extreme finite values stay legal.
  for (double v : {0.0, 1e-300, std::numeric_limits<double>::denorm_min(), 1e300,
                   std::numeric_limits<double>::max()}) {
    OperatingPointsMsg msg;
    msg.points.push_back({sample_erv(), v, v});
    EXPECT_TRUE(decode(MessageType::kOperatingPoints, payload_of(Message(msg))).ok()) << v;
  }
  for (double v : {nan, inf, -inf}) {
    Result<Message> decoded =
        decode(MessageType::kUtilityReport, payload_of(Message(UtilityReport{v})));
    ASSERT_FALSE(decoded.ok()) << v;
    EXPECT_EQ(decoded.error().message.rfind("proto:", 0), 0u) << decoded.error().message;
  }
  EXPECT_TRUE(decode(MessageType::kUtilityReport, payload_of(Message(UtilityReport{0.0}))).ok());
}

TEST(Messages, HeartbeatRoundTrip) {
  EXPECT_NO_THROW(encode_decode(Heartbeat{}));
  // Heartbeats carry no payload; anything else is a protocol violation.
  EXPECT_FALSE(decode(MessageType::kHeartbeat, {0}).ok());
}

// Seeded fuzz sweep: 10k adversarial byte strings — half pure noise, half
// mutations of valid frames — must never crash the decoder, must fail with
// a clean "proto:" error (never "io:"), and must leave the decode path fully
// reusable (a known-good frame decodes between adversarial ones).
TEST(Fuzz, DecoderSurvivesAdversarialFrames) {
  Rng rng(0xF0CC1A);
  ActivateMsg seedling;
  seedling.erv = sample_erv();
  seedling.cores = {{0, 1, 2}, {1, 3, 1}};
  seedling.parallelism = 7;
  const std::vector<std::vector<std::uint8_t>> templates = {
      encode(Message(RegisterRequest{42, "fuzz", WireAdaptivity::kScalable, true})),
      encode(Message(OperatingPointsMsg{{{sample_erv(), 2.0, 3.0}}})),
      encode(Message(seedling)),
      encode(Message(UtilityReport{1.5})),
  };

  auto try_decode = [](const std::vector<std::uint8_t>& frame) {
    auto header = decode_frame_header(frame.data(), frame.size());
    if (!header.ok()) {
      EXPECT_EQ(header.error().message.rfind("proto:", 0), 0u) << header.error().message;
      return;
    }
    if (frame.size() < kFrameHeaderSize + header.value().second) return;  // short frame
    std::vector<std::uint8_t> payload(
        frame.begin() + static_cast<long>(kFrameHeaderSize),
        frame.begin() + static_cast<long>(kFrameHeaderSize + header.value().second));
    auto decoded = decode(static_cast<MessageType>(header.value().first), payload);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.error().message.rfind("proto:", 0), 0u) << decoded.error().message;
    }
  };

  for (int iteration = 0; iteration < 10000; ++iteration) {
    std::vector<std::uint8_t> frame;
    if (iteration % 2 == 0) {
      // Pure noise of random length (including below the header size).
      frame.resize(static_cast<std::size_t>(rng.uniform_int(0, 64)));
      for (std::uint8_t& b : frame) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else {
      // Mutate a valid frame: flip bytes, truncate, or extend.
      frame = templates[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      int flips = rng.uniform_int(1, 8);
      for (int f = 0; f < flips && !frame.empty(); ++f)
        frame[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(frame.size()) - 1))] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      if (rng.uniform() < 0.3)
        frame.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(frame.size()))));
      else if (rng.uniform() < 0.2)
        frame.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    try_decode(frame);

    // Every so often, prove the decoder still works on well-formed input.
    if (iteration % 1000 == 999) {
      const std::vector<std::uint8_t>& good = templates[0];
      auto header = decode_frame_header(good.data(), good.size());
      ASSERT_TRUE(header.ok());
      std::vector<std::uint8_t> payload(good.begin() + static_cast<long>(kFrameHeaderSize),
                                        good.end());
      auto decoded = decode(static_cast<MessageType>(header.value().first), payload);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(std::get<RegisterRequest>(decoded.value()).app_name, "fuzz");
    }
  }
}

// Channel-level fuzz: garbage frames injected with send_raw must surface as
// recoverable "proto:" errors and the channel must stay usable for valid
// traffic afterwards.
TEST(Fuzz, InProcChannelSurvivesGarbageFrames) {
  Rng rng(0xBADF00D);
  auto [a, b] = make_in_process_pair();
  int proto_errors = 0;
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<std::uint8_t> frame(static_cast<std::size_t>(rng.uniform_int(0, 32)));
    for (std::uint8_t& byte : frame)
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    ASSERT_TRUE(a->send_raw(frame).ok());
    auto polled = b->poll();
    if (!polled.ok()) {
      EXPECT_EQ(polled.error().message.rfind("proto:", 0), 0u) << polled.error().message;
      EXPECT_FALSE(b->closed());
      ++proto_errors;
    }
    // Interleave valid traffic: the garbage must not poison the stream.
    ASSERT_TRUE(a->send(Message(RegisterAck{iteration})).ok());
    std::optional<Message> valid;
    for (int drain = 0; drain < 4 && !valid.has_value(); ++drain) {
      auto next = b->poll();
      if (next.ok()) valid = next.value();
    }
    ASSERT_TRUE(valid.has_value()) << "valid frame lost after garbage, iter " << iteration;
    EXPECT_EQ(std::get<RegisterAck>(*valid).app_id, iteration);
  }
  EXPECT_GT(proto_errors, 100);  // the sweep actually exercised the error path
}

TEST(FaultInjection, ScriptedFaultsAreExact) {
  auto [rm_end, app_end] = make_in_process_pair();
  FaultPlan plan = FaultPlan::clean();
  plan.script = {{0, FaultKind::kDrop}, {2, FaultKind::kDuplicate}};
  FaultInjectingChannel faulty(std::move(app_end), plan);

  ASSERT_TRUE(faulty.send(Message(RegisterAck{0})).ok());  // dropped
  ASSERT_TRUE(faulty.send(Message(RegisterAck{1})).ok());  // delivered
  ASSERT_TRUE(faulty.send(Message(RegisterAck{2})).ok());  // duplicated

  std::vector<int> seen;
  while (true) {
    auto polled = rm_end->poll();
    ASSERT_TRUE(polled.ok());
    if (!polled.value().has_value()) break;
    seen.push_back(std::get<RegisterAck>(*polled.value()).app_id);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 2}));
  EXPECT_EQ(faulty.stats().drops, 1u);
  EXPECT_EQ(faulty.stats().duplicates, 1u);
}

TEST(FaultInjection, SameSeedSameFaults) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_p = 0.3;
  plan.garbage_p = 0.2;
  auto run_once = [&plan] {
    auto [rm_end, app_end] = make_in_process_pair();
    FaultInjectingChannel faulty(std::move(app_end), plan);
    for (int i = 0; i < 200; ++i) (void)faulty.send(Message(RegisterAck{i}));
    return faulty.stats();
  };
  FaultStats first = run_once();
  FaultStats second = run_once();
  EXPECT_EQ(first.drops, second.drops);
  EXPECT_EQ(first.garbled, second.garbled);
  EXPECT_GT(first.drops, 0u);
  EXPECT_GT(first.garbled, 0u);
}

TEST(InProcTransport, MessagesFlowBothWays) {
  auto [a, b] = make_in_process_pair();
  EXPECT_TRUE(a->send(Message(RegisterAck{5})).ok());
  auto received = b->poll();
  ASSERT_TRUE(received.ok());
  ASSERT_TRUE(received.value().has_value());
  EXPECT_EQ(std::get<RegisterAck>(*received.value()).app_id, 5);

  EXPECT_TRUE(b->send(Message(UtilityReport{7.5})).ok());
  auto back = a->poll();
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(std::get<UtilityReport>(*back.value()).utility, 7.5);
}

TEST(InProcTransport, EmptyPollAndClose) {
  auto [a, b] = make_in_process_pair();
  auto empty = a->poll();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().has_value());
  b->close();
  EXPECT_FALSE(a->send(Message(Deregister{})).ok());
  EXPECT_FALSE(a->poll().ok());  // peer closed
}

TEST(InProcTransport, PreservesOrder) {
  auto [a, b] = make_in_process_pair();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(a->send(Message(RegisterAck{i})).ok());
  for (int i = 0; i < 10; ++i) {
    auto m = b->poll();
    ASSERT_TRUE(m.ok() && m.value().has_value());
    EXPECT_EQ(std::get<RegisterAck>(*m.value()).app_id, i);
  }
}

TEST(UnixTransport, EndToEnd) {
  std::string path = ::testing::TempDir() + "/harp_ipc_test.sock";
  auto server = UnixServer::listen(path);
  ASSERT_TRUE(server.ok());

  auto client = unix_connect(path);
  ASSERT_TRUE(client.ok());

  // Accept the pending connection.
  std::unique_ptr<Channel> server_side;
  for (int i = 0; i < 100 && server_side == nullptr; ++i) {
    auto accepted = server.value()->accept();
    ASSERT_TRUE(accepted.ok());
    if (accepted.value().has_value()) server_side = std::move(*accepted.value());
  }
  ASSERT_NE(server_side, nullptr);

  RegisterRequest request;
  request.pid = 99;
  request.app_name = "quick";
  ASSERT_TRUE(client.value()->send(Message(request)).ok());

  std::optional<Message> received;
  for (int i = 0; i < 1000 && !received.has_value(); ++i) {
    auto polled = server_side->poll();
    ASSERT_TRUE(polled.ok());
    received = polled.value();
  }
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::get<RegisterRequest>(*received).app_name, "quick");

  // And the reverse direction.
  ASSERT_TRUE(server_side->send(Message(RegisterAck{1})).ok());
  std::optional<Message> ack;
  for (int i = 0; i < 1000 && !ack.has_value(); ++i) {
    auto polled = client.value()->poll();
    ASSERT_TRUE(polled.ok());
    ack = polled.value();
  }
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(std::get<RegisterAck>(*ack).app_id, 1);
}

TEST(UnixTransport, PeerCloseDetected) {
  std::string path = ::testing::TempDir() + "/harp_ipc_close.sock";
  auto server = UnixServer::listen(path);
  ASSERT_TRUE(server.ok());
  auto client = unix_connect(path);
  ASSERT_TRUE(client.ok());
  std::unique_ptr<Channel> server_side;
  for (int i = 0; i < 100 && server_side == nullptr; ++i) {
    auto accepted = server.value()->accept();
    ASSERT_TRUE(accepted.ok());
    if (accepted.value().has_value()) server_side = std::move(*accepted.value());
  }
  ASSERT_NE(server_side, nullptr);
  client.value()->close();
  bool saw_close = false;
  for (int i = 0; i < 1000 && !saw_close; ++i) saw_close = !server_side->poll().ok();
  EXPECT_TRUE(saw_close);
}

TEST(UnixTransport, ConnectToMissingSocketFails) {
  EXPECT_FALSE(unix_connect("/tmp/harp-definitely-missing.sock").ok());
}

TEST(UnixTransport, RejectsOverlongPath) {
  std::string path(200, 'x');
  EXPECT_FALSE(UnixServer::listen(path).ok());
  EXPECT_FALSE(unix_connect(path).ok());
}

}  // namespace
}  // namespace harp::ipc
