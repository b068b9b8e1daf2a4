// Loopback integration test for the HTTP serving front end: a real
// HttpServer on an ephemeral 127.0.0.1 port, driven through actual
// sockets by a minimal test client.  Round-trips every route —
// /v1/predict, /v1/predict-batch, /v1/rate, /v1/top-n, /healthz,
// /metrics — and the cross-cutting wire behaviours (keep-alive,
// deadline/trace headers, error statuses, the slow-read timeout, the
// idle keep-alive rule, graceful drain).  ctest label: integration.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "wal/log.hpp"

namespace cfsf {
namespace {

/// Minimal blocking HTTP/1.1 client for the loopback tests: one
/// connection, Content-Length framing, no keep-alive bookkeeping beyond
/// reusing the socket.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  struct Reply {
    bool ok = false;
    int status = 0;
    std::string headers;  // raw header block, lower-case searchable
    std::string body;
  };

  /// Writes `wire` and reads exactly one response.
  Reply Roundtrip(const std::string& wire) {
    if (fd_ < 0) return Reply{};
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Reply{};
      sent += static_cast<std::size_t>(n);
    }
    return ReadResponse();
  }

  /// Reads exactly one response, e.g. the server's unsolicited inline
  /// 503 at max_connections.
  Reply ReadResponse() {
    Reply reply;
    if (fd_ < 0) return reply;
    std::string buffer;
    std::size_t header_end = std::string::npos;
    char chunk[4096];
    while (true) {
      if (header_end == std::string::npos) {
        header_end = buffer.find("\r\n\r\n");
      }
      if (header_end != std::string::npos) {
        const std::size_t body_begin = header_end + 4;
        const std::size_t length = ContentLength(buffer, header_end);
        if (buffer.size() >= body_begin + length) {
          reply.headers = buffer.substr(0, header_end);
          reply.body = buffer.substr(body_begin, length);
          reply.status = std::atoi(buffer.c_str() + 9);  // after "HTTP/1.1 "
          reply.ok = true;
          return reply;
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return reply;  // closed or error before a full response
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closes the connection (recv reads EOF)
  /// within `timeout` without sending anything first.
  bool ReadsEof(std::chrono::milliseconds timeout) {
    if (fd_ < 0) return false;
    pollfd poller{fd_, POLLIN, 0};
    if (::poll(&poller, 1, static_cast<int>(timeout.count())) <= 0) {
      return false;
    }
    char byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  /// Convenience builders.
  Reply Get(const std::string& target, const std::string& extra_headers = "") {
    return Roundtrip("GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
                     extra_headers + "\r\n");
  }

  Reply Post(const std::string& target, const std::string& body,
             const std::string& extra_headers = "") {
    return Roundtrip("POST " + target + " HTTP/1.1\r\nHost: t\r\n" +
                     extra_headers +
                     "Content-Length: " + std::to_string(body.size()) +
                     "\r\n\r\n" + body);
  }

 private:
  static std::size_t ContentLength(const std::string& buffer,
                                   std::size_t header_end) {
    // Case-sensitive match is fine: the server emits "Content-Length".
    const std::size_t at = buffer.find("Content-Length: ");
    if (at == std::string::npos || at > header_end) return 0;
    return static_cast<std::size_t>(
        std::atoll(buffer.c_str() + at + std::strlen("Content-Length: ")));
  }

  int fd_ = -1;
};

class NetIntegrationTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::CfsfModel> FitModel() {
    data::SyntheticConfig dconfig;
    dconfig.num_users = 60;
    dconfig.num_items = 80;
    dconfig.min_ratings_per_user = 15;
    dconfig.max_ratings_per_user = 30;  // leave unrated items for top-N
    core::CfsfConfig config;
    config.num_clusters = 5;
    config.top_m_items = 15;
    config.top_k_users = 8;
    auto model = std::make_unique<core::CfsfModel>(config);
    model->Fit(data::GenerateSynthetic(dconfig));
    return model;
  }

  static void SetUpTestSuite() {
    models_ = std::make_unique<serve::ModelGeneration>();
    models_->Install(FitModel());
    stack_ = std::make_unique<serve::ServingStack>(*models_);
    service_ = std::make_unique<net::ServingService>(*stack_);

    net::ServerOptions options;
    options.num_workers = 4;
    server_ = std::make_unique<net::HttpServer>(*service_, options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  static void TearDownTestSuite() {
    server_.reset();
    service_.reset();
    stack_.reset();
    models_.reset();
  }

  static std::unique_ptr<serve::ModelGeneration> models_;
  static std::unique_ptr<serve::ServingStack> stack_;
  static std::unique_ptr<net::ServingService> service_;
  static std::unique_ptr<net::HttpServer> server_;
};

std::unique_ptr<serve::ModelGeneration> NetIntegrationTest::models_;
std::unique_ptr<serve::ServingStack> NetIntegrationTest::stack_;
std::unique_ptr<net::ServingService> NetIntegrationTest::service_;
std::unique_ptr<net::HttpServer> NetIntegrationTest::server_;

TEST_F(NetIntegrationTest, PredictRouteRoundTrips) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const auto reply = client.Post("/v1/predict", "{\"user\": 0, \"item\": 0}");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(reply.body, &error)) << error;
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"predictions\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"rung\":\"full\""), std::string::npos);
}

TEST_F(NetIntegrationTest, PredictBatchRouteRoundTrips) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const auto reply = client.Post("/v1/predict-batch",
                                 "{\"queries\": [[0, 0], [1, 1], [2, 2]]}");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(reply.body, &error)) << error;
  // One prediction object per query.
  std::size_t count = 0;
  for (std::size_t at = reply.body.find("\"value\""); at != std::string::npos;
       at = reply.body.find("\"value\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST_F(NetIntegrationTest, TopNRouteRoundTrips) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const auto reply = client.Get("/v1/top-n?user=0&n=5");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(reply.body, &error)) << error;
  EXPECT_NE(reply.body.find("\"ranked\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"score\""), std::string::npos);
}

TEST_F(NetIntegrationTest, HealthzReportsTheActiveGeneration) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const auto reply = client.Get("/healthz");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(reply.body.find("\"breaker_level\":0"), std::string::npos);
}

TEST_F(NetIntegrationTest, MetricsDumpsTheRegistryAsJson) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // A predict first, so the serve/net counters exist in the dump.
  ASSERT_TRUE(client.Post("/v1/predict", "{\"user\": 1, \"item\": 1}").ok);
  const auto reply = client.Get("/metrics");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(reply.body, &error)) << error;
  EXPECT_NE(reply.body.find("net.http.requests"), std::string::npos);
  EXPECT_NE(reply.body.find("serve.requests"), std::string::npos);
}

TEST_F(NetIntegrationTest, KeepAliveServesManyRequestsOnOneConnection) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 5; ++i) {
    const auto reply =
        client.Post("/v1/predict", "{\"user\": 2, \"item\": 3}");
    ASSERT_TRUE(reply.ok) << "request " << i << " on the same connection";
    EXPECT_EQ(reply.status, 200);
    EXPECT_NE(reply.headers.find("Connection: keep-alive"),
              std::string::npos);
  }
}

TEST_F(NetIntegrationTest, DeadlineAndTraceHeadersPropagate) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // An already-expired deadline must still answer 200 from a mean rung
  // (the ladder degrades, it does not block).
  const auto reply = client.Post(
      "/v1/predict", "{\"user\": 0, \"item\": 1}",
      "X-CFSF-Deadline-Us: 0\r\nX-CFSF-Trace-Id: trace-7\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.headers.find("X-CFSF-Trace-Id: trace-7"),
            std::string::npos);
  EXPECT_NE(reply.body.find("\"trace_id\":\"trace-7\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"deadline_overrun\":true"), std::string::npos);
}

TEST_F(NetIntegrationTest, ErrorStatusesComeFromTheSharedTaxonomy) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Get("/v1/no-such-route").status, 404);
  EXPECT_EQ(client.Post("/v1/predict", "{\"user\": 1}").status, 400);
  EXPECT_EQ(client.Post("/v1/predict", "not json at all").status, 400);
  EXPECT_EQ(client.Get("/v1/top-n?user=abc").status, 400);
  EXPECT_EQ(client.Get("/v1/predict").status, 400);  // wrong method
  // Unknown top-N user: 404 from serve::StatusCode::kNotFound.
  EXPECT_EQ(client.Get("/v1/top-n?user=999999&n=3").status, 404);
  // Malformed HTTP framing closes with a 400 after the error document.
  TestClient garbage(server_->port());
  ASSERT_TRUE(garbage.connected());
  EXPECT_EQ(garbage.Roundtrip("BOGUS\r\n\r\n").status, 400);
}

TEST_F(NetIntegrationTest, RateWithoutALogIs503ServeReadOnly) {
  // The shared stack carries no rating log, so writes degrade to 503
  // with Retry-After while every read route keeps serving.
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const TestClient::Reply reply =
      client.Post("/v1/rate", "{\"user\": 1, \"item\": 2, \"rating\": 4}");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 503);
  EXPECT_NE(reply.body.find("\"status\":\"unavailable\""), std::string::npos)
      << reply.body;
  EXPECT_NE(reply.headers.find("Retry-After"), std::string::npos);
}

TEST_F(NetIntegrationTest, RateRouteAcksDurablyWith202) {
  // A dedicated stack with a live rating log behind the shared models.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cfsf_net_rate_wal")
          .string();
  std::filesystem::remove_all(dir);
  wal::WriteAheadLog log(dir);
  serve::ServingOptions serving_options;
  serving_options.rating_log = &log;
  serve::ServingStack stack(*models_, serving_options);
  net::ServingService service(stack);
  net::HttpServer server(service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const TestClient::Reply first = client.Post(
      "/v1/rate", "{\"user\": 3, \"item\": 7, \"rating\": 5}");
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.status, 202);
  EXPECT_NE(first.body.find("\"lsn\":1"), std::string::npos) << first.body;
  const TestClient::Reply second = client.Post(
      "/v1/rate",
      "{\"user\": 4, \"item\": 8, \"rating\": 2, \"timestamp\": 99}");
  EXPECT_EQ(second.status, 202);
  EXPECT_NE(second.body.find("\"lsn\":2"), std::string::npos) << second.body;
  // 202 means durable: both records are already fsynced.
  EXPECT_EQ(log.durable_lsn(), 2u);

  EXPECT_EQ(client.Get("/v1/rate").status, 400);  // wrong method
  EXPECT_EQ(client.Post("/v1/rate",
                        "{\"user\": 1, \"item\": 2, \"rating\": 9}")
                .status,
            400);
  // healthz reports the log as healthy.
  EXPECT_NE(client.Get("/healthz").body.find("\"rating_log\":\"ok\""),
            std::string::npos);

  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(NetIntegrationTest, RetriedRequestIdChangesNothingEndToEnd) {
  // Metamorphic: a rating POSTed twice under one X-CFSF-Request-Id
  // leaves the log, the fold and every prediction exactly as one POST
  // would.  A dedicated stack whose log a DeltaFolder folds into its
  // own generations, so the shared models stay untouched.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cfsf_net_retry_wal")
          .string();
  std::filesystem::remove_all(dir);
  wal::WriteAheadLog log(dir);
  const std::shared_ptr<core::CfsfModel> seed = FitModel();
  serve::ModelGeneration models;
  serve::DeltaFolder folder(log, models, seed);
  folder.PublishNow();
  serve::ServingOptions serving_options;
  serving_options.rating_log = &log;
  serve::ServingStack stack(models, serving_options);
  net::ServingService service(stack);
  net::HttpServer server(service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string body = "{\"user\": 3, \"item\": 7, \"rating\": 5}";
  const std::string same_id = "X-CFSF-Request-Id: rate-once\r\n";
  const TestClient::Reply first = client.Post("/v1/rate", body, same_id);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.status, 202);
  EXPECT_NE(first.body.find("\"lsn\":1,"), std::string::npos) << first.body;
  EXPECT_NE(first.body.find("\"deduplicated\":false"), std::string::npos)
      << first.body;
  const TestClient::Reply retry = client.Post("/v1/rate", body, same_id);
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.status, 202);
  EXPECT_NE(retry.body.find("\"lsn\":1,"), std::string::npos) << retry.body;
  EXPECT_NE(retry.body.find("\"deduplicated\":true"), std::string::npos)
      << retry.body;
  EXPECT_EQ(log.next_lsn(), 2u) << "the retry appended a second record";

  // One record reaches the fold, and the model it publishes is the seed
  // with that one rating folded in, bit for bit.
  EXPECT_EQ(folder.FoldOnce(), 1u);
  EXPECT_EQ(folder.folded_records(), 1u);
  const std::vector<matrix::RatingTriple> rating{
      matrix::RatingTriple{3, 7, 5.0F, 0}};
  const std::unique_ptr<core::CfsfModel> once = seed->WithRatings(rating);
  const auto published = models.Active();
  ASSERT_NE(published, nullptr);
  for (matrix::UserId u = 0; u < once->NumUsers(); ++u) {
    for (matrix::ItemId i = 0; i < once->NumItems(); ++i) {
      ASSERT_EQ(published->model().Predict(u, i), once->Predict(u, i))
          << "user " << u << ", item " << i;
    }
  }

  // The same rating under another id is a new write.
  const TestClient::Reply other =
      client.Post("/v1/rate", body, "X-CFSF-Request-Id: rate-twice\r\n");
  ASSERT_TRUE(other.ok);
  EXPECT_EQ(other.status, 202);
  EXPECT_NE(other.body.find("\"lsn\":2,"), std::string::npos) << other.body;
  EXPECT_NE(other.body.find("\"deduplicated\":false"), std::string::npos)
      << other.body;

  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(NetIntegrationTest, SlowRequestReadTimesOutAndCloses) {
  // A dedicated server with a tight slow-read deadline; the shared one
  // keeps its defaults so the other tests never race this timeout.
  net::ServingService service(*stack_);
  net::ServerOptions options;
  options.num_workers = 2;
  options.poll_interval = std::chrono::milliseconds(5);
  options.read_timeout = std::chrono::milliseconds(100);
  net::HttpServer server(service, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto& idle_closed =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kNetIdleClosed);
  const std::uint64_t closed_before = idle_closed.Value();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Half a request, then silence: a slowloris client holding a worker.
  // The server must close the connection once read_timeout elapses —
  // the old last_activity-based idle check alone would wait forever if
  // the client dripped a byte per poll interval.
  const TestClient::Reply reply =
      client.Roundtrip("POST /v1/predict HTTP/1.1\r\nContent-Le");
  EXPECT_FALSE(reply.ok);  // closed without a response
  EXPECT_GE(idle_closed.Value(), closed_before + 1);

  // The server survives to serve well-behaved clients.
  TestClient healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  EXPECT_EQ(healthy.Get("/healthz").status, 200);
  server.Stop();
}

/// A dedicated server with a 100 ms keep-alive idle timeout.
net::ServerOptions IdleTimeoutOptions(std::size_t workers) {
  net::ServerOptions options;
  options.num_workers = workers;
  options.poll_interval = std::chrono::milliseconds(10);
  options.idle_timeout = std::chrono::milliseconds(100);
  return options;
}

TEST_F(NetIntegrationTest, IdleConnectionKeepsItsWorkerWhileNoneWaits) {
  net::ServingService service(*stack_);
  net::HttpServer server(service, IdleTimeoutOptions(2));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto& idle_closed =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kNetIdleClosed);
  const std::uint64_t closed_before = idle_closed.Value();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Get("/healthz").status, 200);
  // Four idle timeouts with no other connection waiting: closing this
  // one would free a worker nobody needs.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const TestClient::Reply reply = client.Get("/healthz");
  ASSERT_TRUE(reply.ok) << "the idle connection was closed under the client";
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(idle_closed.Value(), closed_before);
  server.Stop();
}

TEST_F(NetIntegrationTest, IdleConnectionYieldsItsWorkerToAWaitingOne) {
  const net::ServerOptions options = IdleTimeoutOptions(1);
  net::ServingService service(*stack_);
  net::HttpServer server(service, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto& idle_closed =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kNetIdleClosed);
  const std::uint64_t closed_before = idle_closed.Value();

  // A takes the only worker and goes idle; B queues behind it.
  TestClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  EXPECT_EQ(idle.Get("/healthz").status, 200);
  TestClient waiting(server.port());
  ASSERT_TRUE(waiting.connected());
  const auto start = std::chrono::steady_clock::now();
  const TestClient::Reply reply = waiting.Get("/healthz");
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  // About idle_timeout + poll_interval, with slack for a loaded host.
  EXPECT_LT(waited, options.idle_timeout + options.poll_interval +
                        std::chrono::milliseconds(500));
  EXPECT_TRUE(idle.ReadsEof(std::chrono::milliseconds(2000)));
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(idle_closed.Value(), closed_before + 1);
  }
  server.Stop();
}

TEST_F(NetIntegrationTest, IdleConnectionYieldsItsSlotToATurnedAwayOne) {
  // A worker per connection slot: nothing ever waits in the pool queue,
  // so the only sign that a client wants an idle connection's slot is
  // the inline 503 at max_connections.
  net::ServerOptions options = IdleTimeoutOptions(2);
  options.max_connections = 2;
  net::ServingService service(*stack_);
  net::HttpServer server(service, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto& idle_closed =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kNetIdleClosed);
  const std::uint64_t closed_before = idle_closed.Value();

  TestClient first(server.port());
  TestClient second(server.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(first.Get("/healthz").status, 200);
  EXPECT_EQ(second.Get("/healthz").status, 200);
  // Past idle_timeout, with no client turned away yet: both stay open.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.ActiveConnections(), 2u);
  EXPECT_EQ(idle_closed.Value(), closed_before);

  {
    TestClient turned_away(server.port());
    ASSERT_TRUE(turned_away.connected());
    const TestClient::Reply reply = turned_away.ReadResponse();
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, 503);
  }
  // The rejection frees one slot, within about one poll interval.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.ActiveConnections() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.ActiveConnections(), 1u)
      << "idle connections kept every slot from a turned-away client";
  TestClient retry(server.port());
  ASSERT_TRUE(retry.connected());
  EXPECT_EQ(retry.Get("/healthz").status, 200);

  // Exactly one idle connection yielded; the other is still served.
  const bool first_closed = first.ReadsEof(std::chrono::milliseconds(50));
  const bool second_closed = second.ReadsEof(std::chrono::milliseconds(50));
  EXPECT_NE(first_closed, second_closed);
  TestClient& kept = first_closed ? second : first;
  EXPECT_EQ(kept.Get("/healthz").status, 200);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(idle_closed.Value(), closed_before + 1);
  }
  server.Stop();
}

TEST_F(NetIntegrationTest, StopDrainsAndRefusesNewConnections) {
  // A dedicated server so stopping it does not disturb the other tests.
  net::ServingService service(*stack_);
  net::ServerOptions options;
  options.num_workers = 2;
  net::HttpServer server(service, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::uint16_t port = server.port();
  {
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.Get("/healthz").status, 200);
  }
  server.Stop();
  EXPECT_FALSE(server.running());
  // The listening socket is gone: a fresh connect must fail or be
  // closed without a response.
  TestClient late(port);
  if (late.connected()) {
    EXPECT_FALSE(late.Get("/healthz").ok);
  }
}

}  // namespace
}  // namespace cfsf
