// SeeSawServer over loopback TCP: full-session round trips with bitwise
// parity against an in-process session, typed error replies (NOT_FOUND,
// QUOTA_EXCEEDED), graceful shedding (RETRY_LATER on busy sessions and on
// the connection cap), malformed/truncated/hostile frame handling,
// out-of-range or non-finite feedback rejected as INVALID_ARGUMENT, TTL
// eviction visible over the wire, and clean shutdown with clients attached.
#include "net/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "core/session_manager.h"
#include "data/profiles.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"

namespace seesaw {
namespace {

data::DatasetProfile SmallBdd() {
  auto p = data::BddLikeProfile(0.05);
  p.embedding_dim = 32;
  return p;
}

struct ServiceFixture {
  ServiceFixture() {
    auto ds = data::Dataset::Generate(SmallBdd());
    SEESAW_CHECK(ds.ok());
    dataset = std::make_unique<data::Dataset>(std::move(*ds));
    core::ServiceOptions options;
    options.preprocess.md.k = 5;
    options.session_threads = 2;
    auto svc = core::SeeSawService::Create(*dataset, options);
    SEESAW_CHECK(svc.ok());
    service = std::make_unique<core::SeeSawService>(std::move(*svc));
  }

  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
};

ServiceFixture& Fixture() {
  static ServiceFixture* fixture = new ServiceFixture();
  return *fixture;
}

core::SessionLimits ServingLimits() {
  core::SessionLimits limits;
  limits.max_inflight_per_session = 1;
  return limits;
}

/// A manager + running server on an ephemeral loopback port.
struct ServerFixture {
  explicit ServerFixture(const core::SessionLimits& limits = ServingLimits(),
                         net::ServerOptions options = {})
      : manager(*Fixture().service, /*num_threads=*/2, limits),
        server(manager, [&options] {
          options.port = 0;
          return options;
        }()) {
    auto started = server.Start();
    SEESAW_CHECK(started.ok()) << started.ToString();
  }

  net::SeeSawClient Client() {
    auto client = net::SeeSawClient::Connect("127.0.0.1", server.port());
    SEESAW_CHECK(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  core::SessionManager manager;
  net::SeeSawServer server;
};

/// Reads one whole frame off a raw blocking socket.
bool ReadFrame(int fd, net::FrameHeader* header, std::string* payload) {
  std::string bytes;
  if (!net::ReadExactly(fd, net::kHeaderBytes, &bytes).ok()) return false;
  if (!net::DecodeHeader(bytes, header)) return false;
  payload->clear();
  if (header->payload_len == 0) return true;
  return net::ReadExactly(fd, header->payload_len, payload).ok();
}

TEST(NetServerTest, PingRoundTrip) {
  ServerFixture f;
  auto client = f.Client();
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.last_wire_error(), net::WireError::kNone);
}

TEST(NetServerTest, FullSessionParityWithInProcess) {
  ServerFixture f;
  auto client = f.Client();

  // Two sessions over the same service, same query: one over the wire, one
  // in-process. Every reply must match the in-process result bitwise.
  auto wire_id = client.CreateSession("car");
  ASSERT_TRUE(wire_id.ok()) << wire_id.status().ToString();
  auto local_id = f.manager.CreateSession("car");
  ASSERT_TRUE(local_id.ok());
  auto local = f.manager.Find(*local_id);
  ASSERT_NE(local, nullptr);

  auto wire_batch = client.NextBatch(*wire_id, 10);
  ASSERT_TRUE(wire_batch.ok()) << wire_batch.status().ToString();
  auto local_batch = local->NextBatch(10);
  ASSERT_EQ(wire_batch->size(), local_batch.size());
  for (size_t i = 0; i < local_batch.size(); ++i) {
    EXPECT_EQ((*wire_batch)[i].image_idx, local_batch[i].image_idx);
    EXPECT_EQ((*wire_batch)[i].score, local_batch[i].score);
  }

  // Feedback + refit on both; the refit must shift both identically.
  core::ImageFeedback feedback;
  feedback.image_idx = local_batch.front().image_idx;
  feedback.relevant = true;
  feedback.boxes = {{0.1f, 0.1f, 0.9f, 0.9f}};
  ASSERT_TRUE(client.AddFeedback(*wire_id, feedback).ok());
  local->AddFeedback(feedback);
  ASSERT_TRUE(client.Refit(*wire_id).ok());
  ASSERT_TRUE(local->Refit().ok());

  auto wire_batch2 = client.NextBatch(*wire_id, 10);
  ASSERT_TRUE(wire_batch2.ok());
  auto local_batch2 = local->NextBatch(10);
  ASSERT_EQ(wire_batch2->size(), local_batch2.size());
  for (size_t i = 0; i < local_batch2.size(); ++i) {
    EXPECT_EQ((*wire_batch2)[i].image_idx, local_batch2[i].image_idx);
    EXPECT_EQ((*wire_batch2)[i].score, local_batch2[i].score);
  }

  // Close over the wire; the id is gone for both wire and manager.
  ASSERT_TRUE(client.CloseSession(*wire_id).ok());
  auto gone = client.NextBatch(*wire_id, 3);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(client.last_wire_error(), net::WireError::kNotFound);
  EXPECT_EQ(f.manager.Find(*wire_id), nullptr);
}

TEST(NetServerTest, UnknownSessionIsNotFound) {
  ServerFixture f;
  auto client = f.Client();
  auto batch = client.NextBatch(424242, 5);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsNotFound());
  EXPECT_EQ(client.last_wire_error(), net::WireError::kNotFound);
}

TEST(NetServerTest, UnknownQueryIsNotFound) {
  ServerFixture f;
  auto client = f.Client();
  auto id = client.CreateSession("no-such-concept-name");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(client.last_wire_error(), net::WireError::kNotFound);
}

TEST(NetServerTest, QuotaExceededIsTyped) {
  core::SessionLimits limits = ServingLimits();
  limits.max_sessions_per_user = 1;
  ServerFixture f(limits);
  auto client = f.Client();

  ASSERT_TRUE(client.CreateSession("car", "alice").ok());
  auto second = client.CreateSession("car", "alice");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.last_wire_error(), net::WireError::kQuotaExceeded);
  EXPECT_FALSE(net::IsRetriable(client.last_wire_error()));

  // Another user is unaffected, over the same connection.
  EXPECT_TRUE(client.CreateSession("car", "bob").ok());
}

TEST(NetServerTest, BusySessionShedsRetryLaterThenRecovers) {
  ServerFixture f;  // in-flight cap 1
  auto client = f.Client();
  auto id = client.CreateSession("car");
  ASSERT_TRUE(id.ok());

  {
    // Hold the session's single in-flight slot in-process, simulating a
    // concurrent request caught mid-execution.
    auto lease = f.manager.Acquire(*id);
    ASSERT_TRUE(lease.ok());

    auto shed = client.NextBatch(*id, 5);
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(client.last_wire_error(), net::WireError::kRetryLater);
    EXPECT_TRUE(net::IsRetriable(client.last_wire_error()));
  }  // slot released

  // Shed-then-retry round trip: the identical resent call is admitted.
  auto retry = client.NextBatch(*id, 5);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->empty());
  EXPECT_GE(f.server.stats().requests_shed, 1u);
}

TEST(NetServerTest, ConnectionCapShedsWithTypedFrame) {
  net::ServerOptions options;
  options.max_connections = 1;
  ServerFixture f(ServingLimits(), options);

  auto first = f.Client();
  ASSERT_TRUE(first.Ping().ok());  // guarantees the loop registered it

  // Second connection: accepted just long enough to receive one typed
  // RETRY_LATER frame, then closed.
  auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
  ASSERT_TRUE(raw.ok());
  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kRetryLater);
  // Then EOF.
  std::string rest;
  EXPECT_FALSE(net::ReadExactly(raw->get(), 1, &rest).ok());
  EXPECT_GE(f.server.stats().connections_shed, 1u);

  // The first connection still serves.
  EXPECT_TRUE(first.Ping().ok());
}

TEST(NetServerTest, MalformedMagicGetsErrorAndClose) {
  ServerFixture f;
  auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
  ASSERT_TRUE(raw.ok());
  std::string garbage(64, '\x5A');
  ASSERT_TRUE(net::WriteAll(raw->get(), garbage).ok());

  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kMalformedFrame);
  std::string rest;
  EXPECT_FALSE(net::ReadExactly(raw->get(), 1, &rest).ok());  // closed
  EXPECT_GE(f.server.stats().malformed_frames, 1u);
}

TEST(NetServerTest, OversizedPayloadIsMalformed) {
  net::ServerOptions options;
  options.max_payload_bytes = 256;
  ServerFixture f(ServingLimits(), options);
  auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
  ASSERT_TRUE(raw.ok());

  // A valid header whose length prefix promises more than the cap.
  net::WireWriter w;
  w.U32(net::kMagic);
  w.U16(net::kProtocolVersion);
  w.U16(static_cast<uint16_t>(net::FrameType::kPing));
  w.U64(7);
  w.U32(1 << 20);
  ASSERT_TRUE(net::WriteAll(raw->get(), w.bytes()).ok());

  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kError);
  EXPECT_EQ(header.request_id, 7u);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kMalformedFrame);
}

TEST(NetServerTest, UnsupportedVersionIsTypedAndCloses) {
  ServerFixture f;
  auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
  ASSERT_TRUE(raw.ok());

  net::WireWriter w;
  w.U32(net::kMagic);
  w.U16(99);  // future protocol version
  w.U16(static_cast<uint16_t>(net::FrameType::kPing));
  w.U64(13);
  w.U32(0);
  ASSERT_TRUE(net::WriteAll(raw->get(), w.bytes()).ok());

  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kError);
  EXPECT_EQ(header.request_id, 13u);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kUnsupportedVersion);
  std::string rest;
  EXPECT_FALSE(net::ReadExactly(raw->get(), 1, &rest).ok());
}

TEST(NetServerTest, UnknownTypeKeepsConnectionAlive) {
  ServerFixture f;
  auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
  ASSERT_TRUE(raw.ok());

  // Unknown type: typed error, but framing is intact so the connection
  // survives and a following ping works.
  ASSERT_TRUE(net::WriteAll(raw->get(),
                            net::EncodeFrame(static_cast<net::FrameType>(0x42),
                                             21, ""))
                  .ok());
  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kUnknownType);

  ASSERT_TRUE(
      net::WriteAll(raw->get(),
                    net::EncodeFrame(net::FrameType::kPing, 22, ""))
          .ok());
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kPingReply);
  EXPECT_EQ(header.request_id, 22u);
}

TEST(NetServerTest, TruncatedFrameThenDisconnectIsHarmless) {
  ServerFixture f;
  {
    auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
    ASSERT_TRUE(raw.ok());
    std::string frame = net::EncodeFrame(net::FrameType::kPing, 1, "");
    ASSERT_TRUE(
        net::WriteAll(raw->get(), frame.substr(0, net::kHeaderBytes / 2))
            .ok());
  }  // half a frame, then the socket closes
  // The server survives: a fresh connection round-trips fine.
  auto client = f.Client();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, MalformedBodyOfValidFrameIsTyped) {
  ServerFixture f;
  auto raw = net::ConnectTcp("127.0.0.1", f.server.port());
  ASSERT_TRUE(raw.ok());
  // Well-framed NextBatch whose body is one byte short of a valid payload.
  std::string body = net::EncodeNextBatchRequest({1, 5});
  body.pop_back();
  ASSERT_TRUE(
      net::WriteAll(raw->get(),
                    net::EncodeFrame(net::FrameType::kNextBatch, 31, body))
          .ok());
  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadFrame(raw->get(), &header, &payload));
  EXPECT_EQ(header.type, net::FrameType::kError);
  EXPECT_EQ(header.request_id, 31u);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kMalformedFrame);
}

// Feedback naming an image past the dataset, or carrying a non-finite box
// coordinate, is a typed INVALID_ARGUMENT; the connection stays open and
// the session keeps serving.
TEST(NetServerTest, OutOfRangeOrNonFiniteFeedbackIsInvalidArgument) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto num_images =
      static_cast<uint32_t>(Fixture().service->embedded().num_images());
  const core::ImageFeedback bad[] = {
      {num_images, false, {}},
      {4000000000u, false, {}},
      {0, true, {{0.1f, 0.1f, 0.9f, 0.9f}, {0.1f, nan, 0.9f, 0.9f}}},
      {0, true, {{inf, 0.1f, 0.9f, 0.9f}}},
      {0, true, {{0.1f, 0.1f, 0.9f, -inf}}}};
  ServerFixture f;
  auto client = f.Client();
  auto id = client.CreateSession("car");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (const core::ImageFeedback& feedback : bad) {
    Status sent = client.AddFeedback(*id, feedback);
    EXPECT_TRUE(sent.IsInvalidArgument()) << sent.ToString();
    EXPECT_EQ(client.last_wire_error(), net::WireError::kInvalidArgument);
  }
  EXPECT_EQ(f.server.stats().requests_error, std::size(bad));
  auto batch = client.NextBatch(*id, 5);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), 5u);
}

TEST(NetServerTest, NextBatchLargerThanTheReplyCapIsInvalidArgument) {
  // A reply of more than kMaxBatchEntries results would be refused by the
  // client's own decoder, so the server rejects the request up front — on a
  // connection that stays open, without consuming the session.
  ServerFixture f;
  auto client = f.Client();
  auto id = client.CreateSession("car");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (size_t n : {size_t{net::kMaxBatchEntries} + 1, size_t{0xFFFFFFFFu}}) {
    auto huge = client.NextBatch(*id, n);
    EXPECT_TRUE(huge.status().IsInvalidArgument()) << huge.status().ToString();
    EXPECT_EQ(client.last_wire_error(), net::WireError::kInvalidArgument);
  }
  EXPECT_EQ(f.server.stats().requests_error, 2u);
  auto batch = client.NextBatch(*id, 5);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), 5u);
}

TEST(NetServerTest, TtlEvictionIsVisibleOverTheWire) {
  core::SessionLimits limits = ServingLimits();
  limits.idle_ttl_seconds = 0.05;
  net::ServerOptions options;
  options.sweep_interval_seconds = 0.02;
  ServerFixture f(limits, options);
  auto client = f.Client();

  auto id = client.CreateSession("car");
  ASSERT_TRUE(id.ok());
  // Go idle past the TTL; the server's periodic sweep evicts the session.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto batch = client.NextBatch(*id, 3);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(client.last_wire_error(), net::WireError::kNotFound);
  EXPECT_GE(f.server.stats().sessions_evicted, 1u);
  EXPECT_EQ(f.manager.lifecycle_stats().evicted, 1u);
}

TEST(NetServerTest, StopDrainsWithClientsAttached) {
  auto f = std::make_unique<ServerFixture>();
  auto client = f->Client();
  auto id = client.CreateSession("car");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.NextBatch(*id, 5).ok());

  f->server.Stop();
  // Sessions survive the front end stopping; only the transport is gone.
  EXPECT_EQ(f->manager.num_sessions(), 1u);
  auto dead = client.Ping();
  EXPECT_FALSE(dead.ok());

  // Stop is idempotent and the destructor tolerates a stopped server.
  f->server.Stop();
}

TEST(NetServerTest, ManyConcurrentClientsKeepParity) {
  // A small concurrency smoke under TSan: several client threads each run
  // an independent session; per-session results must equal an in-process
  // replica session driven with the same calls.
  ServerFixture f;
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&f, &failures] {
      auto client_or = net::SeeSawClient::Connect("127.0.0.1",
                                                  f.server.port());
      if (!client_or.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto client = std::move(*client_or);
      auto id = client.CreateSession("car");
      auto local_id = f.manager.CreateSession("car");
      if (!id.ok() || !local_id.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto local = f.manager.Find(*local_id);
      for (int round = 0; round < 3; ++round) {
        auto wire = client.NextBatch(*id, 5);
        auto ref = local->NextBatch(5);
        if (!wire.ok() || wire->size() != ref.size()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < ref.size(); ++i) {
          if ((*wire)[i].image_idx != ref[i].image_idx ||
              (*wire)[i].score != ref[i].score) {
            failures.fetch_add(1);
            return;
          }
        }
      }
      client.CloseSession(*id);
      f.manager.Close(*local_id);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // create + 3 batches + close per client, all successful.
  EXPECT_GE(f.server.stats().requests_ok, kClients * 5u);
}

TEST(NetServerTest, AdmissionCountersBalanceUnderPingStorm) {
  // Contention stress on the padded hot admission atomics (stop_,
  // queued_requests_, inflight_handlers_ — see the layout comment in
  // net/server.h): a burst of pipelined pings from several connections
  // drives the queue CAS loop and the in-flight acq_rel pair hard. The
  // gate is exact accounting — every frame sent is answered and lands in
  // exactly one stats bucket, which fails if a queue slot or in-flight
  // count is ever lost or double-released — plus a clean drain in Stop()
  // (the fixture destructor), which hangs if inflight_handlers_ leaks.
  net::ServerOptions options;
  options.max_queued_requests = 4;  // small queue so sheds actually happen
  ServerFixture f(ServingLimits(), options);

  constexpr int kConnections = 6;
  constexpr int kPingsEach = 120;
  std::atomic<size_t> answered{0};
  std::atomic<size_t> transport_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&f, &answered, &transport_failures] {
      auto client_or =
          net::SeeSawClient::Connect("127.0.0.1", f.server.port());
      if (!client_or.ok()) {
        transport_failures.fetch_add(1);
        return;
      }
      auto client = std::move(*client_or);
      for (int i = 0; i < kPingsEach; ++i) {
        // RETRY_LATER (queue full) is a valid, counted answer here.
        (void)client.Ping();
        if (client.last_wire_error() == net::WireError::kNone ||
            client.last_wire_error() == net::WireError::kRetryLater) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(transport_failures.load(), 0u);
  EXPECT_EQ(answered.load(), size_t{kConnections} * kPingsEach);

  const net::ServerStats stats = f.server.stats();
  EXPECT_EQ(stats.requests_ok + stats.requests_shed + stats.requests_error,
            size_t{kConnections} * kPingsEach);
  EXPECT_EQ(stats.requests_error, 0u);
}

}  // namespace
}  // namespace seesaw
