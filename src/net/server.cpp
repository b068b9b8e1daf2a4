#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "net/http.hpp"
#include "net/wire.hpp"
#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/api.hpp"

namespace cfsf::net {

namespace {

/// Resolved once; references stay valid for the process lifetime.
struct NetMetrics {
  obs::Counter& accepted;
  obs::Gauge& active;
  obs::Counter& rejected_busy;
  obs::Counter& dropped;
  obs::Counter& requests;
  obs::Counter& responses;
  obs::Counter& malformed;
  obs::Counter& write_errors;
  obs::Counter& idle_closed;
  obs::Histogram& latency_us;

  static NetMetrics& Instance() {
    static NetMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return NetMetrics{
          registry.GetCounter(obs::names::kNetConnAccepted),
          registry.GetGauge(obs::names::kNetConnActive),
          registry.GetCounter(obs::names::kNetConnRejectedBusy),
          registry.GetCounter(obs::names::kNetConnDropped),
          registry.GetCounter(obs::names::kNetHttpRequests),
          registry.GetCounter(obs::names::kNetHttpResponses),
          registry.GetCounter(obs::names::kNetHttpMalformed),
          registry.GetCounter(obs::names::kNetHttpWriteErrors),
          registry.GetCounter(obs::names::kNetIdleClosed),
          registry.GetHistogram(obs::names::kNetHttpLatencyUs,
                                obs::LatencyBucketsUs()),
      };
    }();
    return metrics;
  }
};

/// Control-flow token for the response loop's exit paths (write fault,
/// Connection: close); caught at the handler's boundary.
struct ConnectionDone {};

}  // namespace

HttpServer::HttpServer(ServingService& service, const ServerOptions& options)
    : service_(service), options_(options), pool_(options.num_workers) {}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + ": " + std::strerror(errno);
    return false;
  };

  {
    util::MutexLock lock(&mutex_);
    if (running_) return true;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket()");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    if (error != nullptr) {
      *error = "bad bind address: " + options_.bind_address;
    }
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const bool ignored = fail("bind()");
    (void)ignored;
    ::close(fd);
    return false;
  }
  if (::listen(fd, 128) != 0) {
    const bool ignored = fail("listen()");
    (void)ignored;
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const bool ignored = fail("getsockname()");
    (void)ignored;
    ::close(fd);
    return false;
  }

  {
    util::MutexLock lock(&mutex_);
    listen_fd_ = fd;
    port_ = ntohs(bound.sin_port);
    running_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread(&HttpServer::AcceptLoop, this);
  return true;
}

void HttpServer::Stop() {
  {
    util::MutexLock lock(&mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Every queued/in-flight connection worker observes stopping_ and
  // winds down; Wait() is the drain barrier.
  try {
    pool_.Wait();
  } catch (const obs::InjectedFault&) {
    // A fault injected at the pool's dispatch site (threadpool.task),
    // rethrown once nothing is left in flight.  The connection it hit
    // is closed and counted in net.conn.dropped by its Connection
    // guard.  HandleConnection lets no other exception reach the pool.
  }
  {
    util::MutexLock lock(&mutex_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    running_ = false;
  }
}

std::uint16_t HttpServer::port() const {
  util::MutexLock lock(&mutex_);
  return port_;
}

bool HttpServer::running() const {
  util::MutexLock lock(&mutex_);
  return running_ && !stopping_;
}

std::size_t HttpServer::ActiveConnections() const {
  util::MutexLock lock(&mutex_);
  return active_;
}

/// An accepted connection's fd and its active_ slot, owned by the pool
/// closure that will serve it.  A closure destroyed unexecuted (a fault
/// injected at the pool's threadpool.task dispatch site) never calls
/// Serve(): the destructor then closes the fd, so the client sees a
/// close instead of a hang, and gives the slot back.
class HttpServer::Connection {
 public:
  Connection(HttpServer& server, int fd) : server_(server), fd_(fd) {}
  ~Connection() {
    if (fd_ < 0) return;
    NetMetrics::Instance().dropped.Increment();
    server_.CloseConnection(fd_);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Hands the fd to HandleConnection, which closes it itself.
  void Serve() { server_.HandleConnection(std::exchange(fd_, -1)); }

 private:
  HttpServer& server_;
  int fd_;
};

void HttpServer::CloseConnection(int fd) {
  ::close(fd);
  NetMetrics::Instance().active.Add(-1.0);
  util::MutexLock lock(&mutex_);
  --active_;
}

bool HttpServer::IdleShouldYield() {
  // Closing an idle connection when nobody wants its worker or its slot
  // frees nothing, costs the client a reconnect and races any request
  // already on the wire.
  if (pool_.QueueDepth() > 0) return true;
  util::MutexLock lock(&mutex_);
  return std::exchange(turned_away_, false);
}

void HttpServer::AcceptLoop() {
  NetMetrics& metrics = NetMetrics::Instance();
  int listen_fd = -1;
  {
    util::MutexLock lock(&mutex_);
    listen_fd = listen_fd_;
  }

  while (true) {
    {
      util::MutexLock lock(&mutex_);
      if (stopping_) return;
    }

    pollfd poller{listen_fd, POLLIN, 0};
    const int ready =
        ::poll(&poller, 1, static_cast<int>(options_.poll_interval.count()));
    if (ready <= 0) continue;  // timeout or EINTR — re-check stopping_

    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;

    try {
      CFSF_FAILPOINT("net.accept");
    } catch (const obs::InjectedFault&) {
      metrics.dropped.Increment();
      ::close(fd);
      continue;
    }

    bool busy = false;
    {
      util::MutexLock lock(&mutex_);
      if (active_ >= options_.max_connections) {
        busy = true;
        turned_away_ = true;
      } else {
        ++active_;
      }
    }
    if (busy) {
      // Inline 503 so the client sees backpressure, not a hang.
      HttpResponse response;
      response.status = 503;
      response.body = RenderErrorJson(serve::StatusCode::kShed,
                                      "connection limit reached", "");
      response.Set("Retry-After", std::to_string(kRetryAfterSeconds));
      const std::string wire = Serialize(response, /*keep_alive=*/false);
      WriteAll(fd, wire);
      metrics.rejected_busy.Increment();
      ::close(fd);
      continue;
    }

    metrics.accepted.Increment();
    metrics.active.Add(1.0);
    auto connection = std::make_shared<Connection>(*this, fd);
    pool_.Submit([connection] { connection->Serve(); });
  }
}

void HttpServer::HandleConnection(int fd) {
  NetMetrics& metrics = NetMetrics::Instance();
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  RequestParser parser;
  char buffer[8192];
  auto last_activity = std::chrono::steady_clock::now();
  // Set while a request is partially received; the slow-read deadline
  // runs from here, immune to the per-recv last_activity refresh a
  // drip-feeding client exploits.
  std::optional<std::chrono::steady_clock::time_point> partial_since;

  try {
    while (true) {
      bool draining = false;
      {
        util::MutexLock lock(&mutex_);
        draining = stopping_;
      }
      // Drain semantics: a request whose bytes are already buffered is
      // finished and answered; an idle connection closes immediately.
      if (draining && !parser.HasPartialData()) break;

      if (parser.HasPartialData()) {
        const auto now = std::chrono::steady_clock::now();
        if (!partial_since.has_value()) {
          partial_since = now;
        } else if (now - *partial_since > options_.read_timeout) {
          metrics.idle_closed.Increment();
          break;
        }
      } else {
        partial_since.reset();
      }

      pollfd poller{fd, POLLIN, 0};
      const int ready = ::poll(
          &poller, 1, static_cast<int>(options_.poll_interval.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) {
        if (std::chrono::steady_clock::now() - last_activity >
                options_.idle_timeout &&
            IdleShouldYield()) {
          metrics.idle_closed.Increment();
          break;
        }
        continue;
      }

      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) break;  // peer closed
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        break;
      }
      last_activity = std::chrono::steady_clock::now();

      RequestParser::State state =
          parser.Feed(buffer, static_cast<std::size_t>(n));
      // A pipelined burst may contain several complete requests.
      while (state == RequestParser::State::kComplete) {
        const auto started = std::chrono::steady_clock::now();
        metrics.requests.Increment();
        {
          util::MutexLock lock(&mutex_);
          draining = stopping_;
        }
        const HttpRequest& request = parser.request();
        const bool keep_alive = request.keep_alive && !draining;
        const HttpResponse response = service_.Handle(request);

        bool written = false;
        try {
          CFSF_FAILPOINT("net.write");
          written = WriteAll(fd, Serialize(response, keep_alive));
        } catch (const obs::InjectedFault&) {
          // written stays false: connection closes before the response.
        }
        if (!written) {
          metrics.write_errors.Increment();
          throw ConnectionDone{};
        }
        metrics.responses.Increment();
        metrics.latency_us.Record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started)
                .count()));
        if (!keep_alive) throw ConnectionDone{};
        parser.Reset();
        state = parser.state();
      }

      if (state == RequestParser::State::kError) {
        metrics.malformed.Increment();
        HttpResponse response;
        response.status = 400;
        response.body = RenderErrorJson(serve::StatusCode::kMalformed,
                                        parser.error(), "");
        WriteAll(fd, Serialize(response, /*keep_alive=*/false));
        break;
      }
    }
  } catch (const ConnectionDone&) {
    // normal exit paths from the response loop
  } catch (...) {
    // Never leak an exception into the pool: it would surface at
    // Wait() during drain and take the server down with it.
  }

  CloseConnection(fd);
}

bool HttpServer::WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd poller{fd, POLLOUT, 0};
        if (::poll(&poller, 1,
                   static_cast<int>(options_.poll_interval.count())) < 0) {
          return false;
        }
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace cfsf::net
