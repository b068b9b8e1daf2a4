// Fault-injection tests for the HTTP front end (ctest label: fault):
// the net.accept failpoint drops accepted connections before dispatch,
// the threadpool.task failpoint drops one at the connection pool's
// dispatch site, and the net.write failpoint closes a connection before
// its response is written — in every case the client sees a close, not
// a hang, and the server keeps serving afterwards.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"

namespace cfsf {
namespace {

using obs::FailPointRegistry;
using obs::ScopedFailPoint;

/// One blocking request over a fresh connection; returns the HTTP
/// status, or 0 when the connection died before a complete response or
/// sent nothing for 5 s.
int OneShot(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const timeval receive_timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
               sizeof(receive_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return 0;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[4096];
  int status = 0;
  while (true) {
    const std::size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const std::size_t at = buffer.find("Content-Length: ");
      const std::size_t length =
          at != std::string::npos && at < header_end
              ? static_cast<std::size_t>(std::atoll(
                    buffer.c_str() + at + std::strlen("Content-Length: ")))
              : 0;
      if (buffer.size() >= header_end + 4 + length) {
        status = std::atoi(buffer.c_str() + 9);
        break;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // closed before a complete response
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return status;
}

class NetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }

  static void SetUpTestSuite() {
    data::SyntheticConfig dconfig;
    dconfig.num_users = 30;
    dconfig.num_items = 40;
    dconfig.min_ratings_per_user = 10;
    dconfig.max_ratings_per_user = 20;
    core::CfsfConfig config;
    config.num_clusters = 3;
    config.top_m_items = 10;
    config.top_k_users = 5;
    auto model = std::make_unique<core::CfsfModel>(config);
    model->Fit(data::GenerateSynthetic(dconfig));

    models_ = std::make_unique<serve::ModelGeneration>();
    models_->Install(std::move(model));
    stack_ = std::make_unique<serve::ServingStack>(*models_);
    service_ = std::make_unique<net::ServingService>(*stack_);
    server_ = std::make_unique<net::HttpServer>(*service_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  static void TearDownTestSuite() {
    server_.reset();
    service_.reset();
    stack_.reset();
    models_.reset();
  }

  static constexpr const char kHealthz[] =
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

  static std::unique_ptr<serve::ModelGeneration> models_;
  static std::unique_ptr<serve::ServingStack> stack_;
  static std::unique_ptr<net::ServingService> service_;
  static std::unique_ptr<net::HttpServer> server_;
};

std::unique_ptr<serve::ModelGeneration> NetFaultTest::models_;
std::unique_ptr<serve::ServingStack> NetFaultTest::stack_;
std::unique_ptr<net::ServingService> NetFaultTest::service_;
std::unique_ptr<net::HttpServer> NetFaultTest::server_;
constexpr const char NetFaultTest::kHealthz[];

/// Keep-alive connections linger until the worker notices the client
/// closed; give the server a bounded moment to drain before asserting.
bool DrainedWithin(const net::HttpServer& server, int budget_ms) {
  for (int i = 0; i < budget_ms; ++i) {
    if (server.ActiveConnections() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return server.ActiveConnections() == 0;
}

/// A well-framed predict POST (Content-Length computed, not guessed).
std::string PredictWire() {
  const std::string body = "{\"user\": 0, \"item\": 0}";
  return "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST_F(NetFaultTest, AcceptFaultDropsTheConnectionAndServerKeepsGoing) {
  const auto& registry = FailPointRegistry::Global();
  {
    ScopedFailPoint guard("net.accept", "always");
    // Every accepted connection is dropped before dispatch: no response.
    EXPECT_EQ(OneShot(server_->port(), kHealthz), 0);
    EXPECT_EQ(OneShot(server_->port(), kHealthz), 0);
    // Counters live only while the point is armed — read them here.
    EXPECT_GE(registry.TripCount("net.accept"), 2u);
  }
  // Fault cleared: the accept loop never died, service resumes.
  EXPECT_EQ(OneShot(server_->port(), kHealthz), 200);
  EXPECT_TRUE(DrainedWithin(*server_, 2000));
}

TEST_F(NetFaultTest, DispatchFaultClosesTheConnectionAndReleasesItsSlot) {
  // A dedicated server, so Stop() can be asserted to return.
  net::ServingService service(*stack_);
  net::HttpServer server(service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto& dropped = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kNetConnDropped);
  const std::uint64_t dropped_before = dropped.Value();
  {
    // The connection's pool closure is destroyed unexecuted: the
    // client must read a close promptly, not wait for a response that
    // never comes.
    ScopedFailPoint guard("threadpool.task", "once");
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(OneShot(server.port(), kHealthz), 0);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2));
    EXPECT_EQ(FailPointRegistry::Global().TripCount("threadpool.task"), 1u);
  }
  // Its connection slot came back, so the next connection is served.
  EXPECT_TRUE(DrainedWithin(server, 2000));
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(dropped.Value(), dropped_before + 1);
  }
  EXPECT_EQ(OneShot(server.port(), kHealthz), 200);
  // The pool rethrows the captured dispatch fault at Wait(); Stop()
  // must absorb it rather than take the process down.
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(NetFaultTest, WriteFaultClosesBeforeTheResponseAndServerSurvives) {
  {
    ScopedFailPoint guard("net.write", "always");
    // The request is served, but the connection closes before the
    // response bytes go out — the client sees a clean close, never a
    // half-written or hung response.
    EXPECT_EQ(OneShot(server_->port(), PredictWire()), 0);
    EXPECT_GE(FailPointRegistry::Global().TripCount("net.write"), 1u);
  }
  // The worker caught the injected fault; the pool is intact.
  EXPECT_EQ(OneShot(server_->port(), PredictWire()), 200);
  EXPECT_TRUE(DrainedWithin(*server_, 2000));
}

}  // namespace
}  // namespace cfsf
