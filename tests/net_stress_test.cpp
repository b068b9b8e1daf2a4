// Seeded stress flood for the HTTP front end (ctest label: stress; CI
// runs it under TSan).  CFSF_NET_THREADS client threads hammer a
// loopback HttpServer over keep-alive connections with a seeded mix of
// predict / batch / top-n / healthz requests for CFSF_NET_ITERS
// iterations each, while the coordinator installs a folded model
// generation mid-flood (the swap).  Invariants:
//   * zero dropped in-flight responses — every request written gets a
//     complete HTTP response (whatever its status)
//   * the flood straddles the swap: both generations are observed and
//     the stack serves generation 2 afterwards
//   * the final Stop() drains cleanly (no stuck connections)
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "util/rng.hpp"

namespace cfsf {
namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  const long value = std::atol(text);
  return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

/// Blocking loopback client; reconnects on demand.
class FloodClient {
 public:
  explicit FloodClient(std::uint16_t port) : port_(port) {}
  ~FloodClient() { Close(); }

  bool EnsureConnected() {
    if (fd_ >= 0) return true;
    for (int attempt = 0; attempt < 50; ++attempt) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return true;
      }
      Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  struct Reply {
    bool complete = false;
    int status = 0;
    bool connection_close = false;
    std::string body;
  };

  Reply Roundtrip(const std::string& wire) {
    Reply reply;
    if (fd_ < 0) return reply;
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return reply;
      sent += static_cast<std::size_t>(n);
    }
    std::string buffer;
    char chunk[4096];
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
          reply.complete = true;
          reply.status = std::atoi(buffer.c_str() + 9);
          reply.connection_close =
              buffer.find("Connection: close") != std::string::npos &&
              buffer.find("Connection: close") < header_end;
          reply.body = buffer.substr(header_end + 4, length);
          return reply;
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return reply;  // dropped mid-response
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  std::uint16_t port_;
  int fd_ = -1;
};

struct FloodTally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok_status = 0;
  std::uint64_t gen1 = 0;
  std::uint64_t gen2 = 0;
  std::uint64_t dropped = 0;
};

std::string BuildRequest(util::Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0: {
      return "GET /v1/top-n?user=" + std::to_string(rng.NextBounded(40)) +
             "&n=5 HTTP/1.1\r\nHost: t\r\n\r\n";
    }
    case 1: {
      const std::string body = "{\"queries\": [[" +
                               std::to_string(rng.NextBounded(40)) + ", " +
                               std::to_string(rng.NextBounded(60)) + "], [" +
                               std::to_string(rng.NextBounded(40)) + ", " +
                               std::to_string(rng.NextBounded(60)) + "]]}";
      return "POST /v1/predict-batch HTTP/1.1\r\nHost: t\r\n"
             "Content-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
    }
    case 2:
      return "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    default: {
      const std::string body =
          "{\"user\": " + std::to_string(rng.NextBounded(40)) +
          ", \"item\": " + std::to_string(rng.NextBounded(60)) + "}";
      return "POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
             "Content-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
    }
  }
}

void RunFlood(std::uint16_t port, std::size_t iters,
              const std::atomic<bool>& swap_done, util::Rng rng,
              FloodTally& tally) {
  FloodClient client(port);
  // At least `iters` requests, and keep going (bounded) until a few
  // requests have been issued strictly *after* the coordinator's hot
  // swap landed: a request sent after swap_done is observed must be
  // served by the new generation, so the flood straddles the swap
  // deterministically instead of racing the flag for its last
  // in-flight response.
  std::size_t after_swap = 0;
  for (std::size_t i = 0; (i < iters || after_swap < 4) && i < iters * 50;
       ++i) {
    const bool swapped = swap_done.load(std::memory_order_acquire);
    if (swapped) ++after_swap;
    if (!client.EnsureConnected()) {
      ++tally.issued;
      ++tally.dropped;
      continue;
    }
    const std::string wire = BuildRequest(rng);
    const FloodClient::Reply reply = client.Roundtrip(wire);
    ++tally.issued;
    if (!reply.complete) {
      // A torn connection *with no response at all* is a dropped
      // in-flight request — the invariant this flood exists to check.
      ++tally.dropped;
      client.Close();
      continue;
    }
    ++tally.completed;
    if (reply.status == 200) ++tally.ok_status;
    if (reply.body.find("\"generation\":1") != std::string::npos) {
      ++tally.gen1;
    } else if (reply.body.find("\"generation\":2") != std::string::npos) {
      ++tally.gen2;
    }
    if (reply.connection_close) client.Close();
  }
}

TEST(NetStressTest, FloodSurvivesMidFlightHotSwapWithZeroDrops) {
  const std::size_t threads = EnvSize("CFSF_NET_THREADS", 4);
  const std::size_t iters = EnvSize("CFSF_NET_ITERS", 60);

  data::SyntheticConfig dconfig;
  dconfig.num_users = 40;
  dconfig.num_items = 60;
  dconfig.min_ratings_per_user = 12;
  dconfig.max_ratings_per_user = 25;  // leave unrated items for top-N
  core::CfsfConfig config;
  config.num_clusters = 4;
  config.top_m_items = 12;
  config.top_k_users = 6;
  auto model = std::make_unique<core::CfsfModel>(config);
  model->Fit(data::GenerateSynthetic(dconfig));

  serve::ModelGeneration models;
  models.Install(std::move(model));
  serve::ServingStack stack(models);
  net::ServingService service(stack);

  net::ServerOptions options;
  options.num_workers = threads;          // one worker per keep-alive client
  options.max_connections = threads * 2;  // headroom for reconnects
  net::HttpServer server(service, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const util::Rng root(0xF100D);
  std::atomic<bool> swap_done{false};
  std::vector<FloodTally> tallies(threads);
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back(RunFlood, server.port(), iters,
                         std::cref(swap_done), root.Fork(t),
                         std::ref(tallies[t]));
  }

  // Publish a folded generation while the flood is in full flight: the
  // active model with a small rating batch folded in, as a DeltaFolder
  // publishes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::vector<matrix::RatingTriple> batch = {
      {0, 0, 5.0F, 0}, {1, 1, 4.0F, 0}, {2, 2, 3.0F, 0}};
  models.Install(models.Active()->model().WithRatings(batch));
  swap_done.store(true, std::memory_order_release);

  for (std::thread& client : clients) client.join();

  FloodTally total;
  for (const FloodTally& tally : tallies) {
    total.issued += tally.issued;
    total.completed += tally.completed;
    total.ok_status += tally.ok_status;
    total.gen1 += tally.gen1;
    total.gen2 += tally.gen2;
    total.dropped += tally.dropped;
  }

  EXPECT_GE(total.issued, threads * iters);
  EXPECT_EQ(total.dropped, 0u) << "an in-flight response was dropped";
  EXPECT_EQ(total.completed, total.issued);
  EXPECT_GT(total.ok_status, 0u);
  // The flood straddled the swap: the new generation must be visible,
  // and the stack must be serving it now.
  EXPECT_GT(total.gen2, 0u) << "no response observed generation 2";
  EXPECT_EQ(models.ActiveGeneration(), 2u);

  // Graceful drain: Stop() returns only once every connection worker
  // wound down, so nothing can be left holding a socket.
  server.Stop();
  EXPECT_EQ(server.ActiveConnections(), 0u);
}

}  // namespace
}  // namespace cfsf
