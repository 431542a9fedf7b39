// The epoll serving front-end and pipelined client: in-process NetServer
// over a real loopback socket. Covers per-connection reply ordering for
// pipelined bursts, admission-control statuses crossing the wire intact,
// error containment (well-framed-but-undecodable requests answer and the
// connection survives; frame-layer garbage answers once and closes), EOF
// draining every in-flight reply, and read pausing under backpressure.
#include "net/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/codec.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "serve/api.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::NetClient;
using net::NetServer;

SearchLog Synthetic(uint64_t seed, size_t users = 40, size_t events = 1500) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  config.num_users = users;
  config.num_events = events;
  return GenerateSearchLog(config).value();
}

UmpQuery Query(double e_eps, double delta) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  return query;
}

// A NetServer running on its own thread; Shutdown + join on destruction.
class ServerThread {
 public:
  explicit ServerThread(serve::SanitizerService* service) {
    server_ = std::make_unique<NetServer>(service);
    StartAndRun();
  }
  ServerThread(NetServer::FrameHandler handler, net::ServerOptions options) {
    server_ = std::make_unique<NetServer>(std::move(handler), options);
    StartAndRun();
  }
  ~ServerThread() {
    server_->Shutdown();
    thread_.join();
  }

  uint16_t port() const { return server_->port(); }

 private:
  void StartAndRun() {
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] {
      const Status status = server_->Serve();
      EXPECT_TRUE(status.ok()) << status;
    });
  }

  std::unique_ptr<NetServer> server_;
  std::thread thread_;
};

// A pipelined create -> append -> solve -> stats burst, sent without
// reading a single reply, must come back in order, all ok, and reflect
// FIFO semantics (the solve sees the append).
TEST(NetServerTest, PipelinedBurstRepliesInOrder) {
  const SearchLog full = Synthetic(3, /*users=*/60, /*events=*/3000);
  const UserId cut = full.num_users() / 2;
  serve::SanitizerService service;
  ServerThread server(&service);

  NetClient client = NetClient::Connect(server.port()).value();
  std::vector<uint64_t> ids;
  ids.push_back(client
                    .Send(serve::CreateTenantRequest{
                        "t", UserSlice(full, 0, cut), std::nullopt})
                    .value());
  ids.push_back(
      client
          .Send(serve::AppendRequest{"t",
                                     UserSlice(full, cut, full.num_users())})
          .value());
  ids.push_back(client
                    .Send(serve::SolveRequest{
                        "t", UtilityObjective::kOutputSize, Query(2.0, 0.5)})
                    .value());
  ids.push_back(client.Send(serve::StatsRequest{"t"}).value());
  EXPECT_EQ(client.pending(), 4u);
  EXPECT_EQ(ids[3], ids[0] + 3);  // sequential request ids

  const serve::ServeResponse created = client.Receive().value();
  const serve::ServeResponse appended = client.Receive().value();
  const serve::ServeResponse solved = client.Receive().value();
  const serve::ServeResponse stats = client.Receive().value();
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_TRUE(created.ok()) << created.status;
  EXPECT_TRUE(appended.ok()) << appended.status;
  ASSERT_TRUE(solved.ok()) << solved.status;
  ASSERT_NE(solved.solution(), nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status;
  ASSERT_NE(stats.stats(), nullptr);
  // The solve, queued behind the append on the same connection, saw the
  // full log — wire pipelining preserved per-tenant FIFO order.
  EXPECT_EQ(stats.stats()->appends_enqueued, 1u);
  EXPECT_EQ(stats.stats()->flushes, 1u);
  SanitizerSession reference = SanitizerSession::Create(full).value();
  EXPECT_EQ(solved.solution()->output_size,
            reference.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
                .value()
                .output_size);
}

// Admission rejections surface on the wire as kResourceExhausted in the
// frame status header, not as dropped connections or generic failures.
TEST(NetServerTest, AdmissionRejectionCrossesTheWireTyped) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  serve::SanitizerService service(options);
  ServerThread server(&service);

  NetClient client = NetClient::Connect(server.port()).value();
  ASSERT_TRUE(client
                  .Call(serve::CreateTenantRequest{
                      "t", Synthetic(5, 120, 6000), std::nullopt})
                  .value()
                  .ok());
  // Park the single worker on a slow sweep, then flood appends past the
  // queue depth. The flood batches are generated up front — building them
  // between Sends would give the parked worker time to finish the sweep
  // and drain queue slots, letting extra appends through.
  const int kFlood = 10;
  std::vector<SearchLog> floods;
  for (int i = 0; i < kFlood; ++i) floods.push_back(Synthetic(50 + i));
  std::vector<UmpQuery> grid;
  for (double delta : {0.2, 0.5, 0.8}) {
    for (int i = 0; i < 6; ++i) grid.push_back(Query(1.5 + 0.2 * i, delta));
  }
  ASSERT_TRUE(client
                  .Send(serve::SweepRequest{
                      "t", UtilityObjective::kOutputSize, grid, {}})
                  .ok());
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(client.Send(serve::AppendRequest{"t", floods[i]}).ok());
  }
  const serve::ServeResponse swept = client.Receive().value();
  EXPECT_TRUE(swept.ok()) << swept.status;
  int rejected = 0;
  for (int i = 0; i < kFlood; ++i) {
    const serve::ServeResponse response = client.Receive().value();
    if (response.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else {
      EXPECT_TRUE(response.ok()) << response.status;
    }
  }
  // At least depth-many appends queue; the slack covers appends the worker
  // drains if a descheduled client lets the sweep finish mid-flood.
  EXPECT_GE(rejected, kFlood - 5);
}

// A frame that parses at the frame layer but fails request decoding gets
// an error reply echoing its request id — and the connection stays usable.
TEST(NetServerTest, UndecodableRequestAnswersAndConnectionSurvives) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(7)).ok());
  ServerThread server(&service);

  NetClient client = NetClient::Connect(server.port()).value();
  Frame garbage;
  garbage.verb = net::FrameVerb::kSolve;
  garbage.request_id = 42;
  garbage.payload = "not a solve request";
  ASSERT_TRUE(client.SendFrame(garbage).ok());
  const Frame reply = client.ReceiveFrame().value();
  EXPECT_EQ(reply.request_id, 42u);
  EXPECT_NE(reply.status, 0);  // typed error in the frame header

  // Same connection, next request: still served.
  const serve::ServeResponse stats =
      client.Call(serve::StatsRequest{"t"}).value();
  ASSERT_TRUE(stats.ok()) << stats.status;
  ASSERT_NE(stats.stats(), nullptr);
}

// Frame-layer garbage (bad magic — the stream has lost sync) answers one
// error frame with request id 0, then the server closes the connection.
TEST(NetServerTest, FrameDesyncAnswersOnceAndCloses) {
  serve::SanitizerService service;
  ServerThread server(&service);

  const int fd = net::ConnectTcp(server.port()).value();
  // A complete frame by length (16 bytes after the length word) whose
  // magic is garbage — the decoder rejects it as soon as it is whole.
  const std::string junk =
      std::string("\x10\x00\x00\x00", 4) + "GARBAGEGARBAGE!!";
  ASSERT_EQ(::write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));

  FrameDecoder decoder;
  Frame reply;
  bool got_reply = false;
  bool got_eof = false;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      got_eof = (n == 0);
      break;
    }
    decoder.Feed(buf, static_cast<size_t>(n));
    if (!got_reply && decoder.Next(&reply).value()) got_reply = true;
  }
  ::close(fd);
  ASSERT_TRUE(got_reply);
  EXPECT_TRUE(got_eof);
  EXPECT_EQ(reply.request_id, 0u);
  EXPECT_NE(reply.status, 0);
  const serve::ServeResponse decoded = net::DecodeResponse(reply).value();
  EXPECT_FALSE(decoded.ok());
}

// A client that bursts requests and shuts down its write side still
// collects every reply: EOF drains the pending queue before closing.
TEST(NetServerTest, EofDrainsEveryPendingReply) {
  serve::SanitizerService service;
  ServerThread server(&service);

  const int fd = net::ConnectTcp(server.port()).value();
  std::string wire;
  wire += net::EncodeFrame(
      net::EncodeRequest(
          serve::CreateTenantRequest{"t", Synthetic(9), std::nullopt}, 1)
          .value());
  wire += net::EncodeFrame(
      net::EncodeRequest(serve::AppendRequest{"t", Synthetic(10)}, 2)
          .value());
  wire += net::EncodeFrame(
      net::EncodeRequest(serve::StatsRequest{"t"}, 3).value());
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  FrameDecoder decoder;
  std::vector<Frame> replies;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    decoder.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    while (decoder.Next(&frame).value()) replies.push_back(frame);
  }
  ::close(fd);
  ASSERT_EQ(replies.size(), 3u);
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].request_id, i + 1);  // request order preserved
    const serve::ServeResponse response =
        net::DecodeResponse(replies[i]).value();
    EXPECT_TRUE(response.ok()) << response.status;
  }
  ASSERT_NE(net::DecodeResponse(replies[2]).value().stats(), nullptr);
}

// A server that accepts but never replies must not wedge the client
// forever (a hung backend would otherwise block a router worker — and any
// migration waiting on it — indefinitely): Receive fails with a timeout
// and closes the connection.
TEST(NetClientTest, ReceiveTimesOutOnSilentServer) {
  uint16_t port = 0;
  const int listen_fd = net::ListenTcp(0, &port).value();
  net::ClientOptions options;
  options.receive_timeout_ms = 100;
  NetClient client = NetClient::Connect(port, options).value();
  ASSERT_TRUE(client.Send(serve::StatsRequest{"t"}).ok());
  const auto start = std::chrono::steady_clock::now();
  const Result<serve::ServeResponse> response = client.Receive();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(client.connected());
  EXPECT_GE(elapsed_ms, 90);  // poll may round the deadline down slightly
  EXPECT_LT(elapsed_ms, 5000);
  ::close(listen_fd);
}

// Backpressure: under tiny pending/outbuf caps, a connection pumping a
// large pipelined burst stops reading while its replies are outstanding
// rather than queueing without bound — and once replies flow again it
// resumes and answers every request, in order.
TEST(NetServerTest, BackpressurePausesReadsWithoutLosingReplies) {
  net::ServerOptions options;
  options.max_pending_replies = 4;
  options.max_outbuf_bytes = 1u << 12;
  // Echo handler: each Stats request answers with its tenant name. Until
  // `release` is set, replies are parked instead of sent.
  using Respond = std::function<void(serve::ServeResponse)>;
  std::mutex mu;
  bool release = false;
  std::vector<std::pair<std::string, Respond>> parked;
  auto echo = [](const std::string& tenant, const Respond& respond) {
    respond({Status::OK(), serve::MetricsText{"ACK " + tenant}});
  };
  ServerThread server(
      NetServer::FrameHandler(
          [&](serve::ServeRequest request, Respond respond) {
            std::string tenant =
                std::get<serve::StatsRequest>(request).tenant;
            {
              std::lock_guard<std::mutex> lock(mu);
              if (!release) {
                parked.emplace_back(std::move(tenant), std::move(respond));
                return;
              }
            }
            echo(tenant, respond);
          }),
      options);

  const int kRequests = 20000;
  auto tenant = [](int i) {
    return "line-" + std::to_string(i) + "-" + std::string(32, 'x');
  };
  const int fd = net::ConnectTcp(server.port()).value();
  // Writer on its own thread: with the server's reads paused the kernel
  // buffers fill and the writes themselves block until the reader drains.
  std::thread writer([fd, &tenant] {
    std::string chunk;
    for (int i = 0; i < kRequests; ++i) {
      chunk += net::EncodeFrame(
          net::EncodeRequest(serve::StatsRequest{tenant(i)}, i + 1).value());
      if (chunk.size() > 32768 || i == kRequests - 1) {
        size_t sent = 0;
        while (sent < chunk.size()) {
          const ssize_t n =
              ::write(fd, chunk.data() + sent, chunk.size() - sent);
          ASSERT_GT(n, 0);
          sent += static_cast<size_t>(n);
        }
        chunk.clear();
      }
    }
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  });

  // With every reply outstanding the server must stop reading: the parked
  // count settles far below the burst (the caps are soft — checked between
  // 64 KiB read chunks — so one chunk of frames may overshoot them).
  size_t settled = 0;
  for (int stable = 0, polls = 0; stable < 5 && polls < 500; ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(mu);
    stable = parked.size() == settled && settled > 0 ? stable + 1 : 0;
    settled = parked.size();
  }
  EXPECT_LT(settled, static_cast<size_t>(kRequests / 4));

  std::vector<std::pair<std::string, Respond>> backlog;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    backlog.swap(parked);
  }
  for (const auto& [name, respond] : backlog) echo(name, respond);

  FrameDecoder decoder;
  int next = 0;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    decoder.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    while (decoder.Next(&frame).value()) {
      // Every request answered, in order.
      ASSERT_EQ(frame.request_id, static_cast<uint64_t>(next + 1));
      const serve::ServeResponse response =
          net::DecodeResponse(frame).value();
      ASSERT_NE(response.metrics(), nullptr) << "reply " << next;
      ASSERT_EQ(response.metrics()->text, "ACK " + tenant(next));
      ++next;
    }
  }
  writer.join();
  ::close(fd);
  EXPECT_EQ(next, kRequests);
}

}  // namespace
}  // namespace privsan
