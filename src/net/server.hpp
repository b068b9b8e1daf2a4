// HttpServer — the network-facing front end over a ServingService.
//
// Dependency-free POSIX sockets (no third-party HTTP stack): one accept
// thread multiplexing a listening socket via poll(), and a bounded
// par::ThreadPool of connection workers, each running the keep-alive
// read → parse → Handle() → write loop for one connection at a time.
// A connection therefore occupies a worker for its whole lifetime —
// `max_connections` bounds how many the server takes at once; beyond
// it, new connections get an inline 503 + Retry-After and are closed
// (counted in net.conn.rejected_busy) so clients see backpressure
// instead of silence.
//
// Graceful drain (Stop(), also the destructor): the accept loop exits,
// then every connection worker finishes the request it is reading or
// serving — a request with bytes already buffered is completed and
// answered with `Connection: close` — before the sockets close.  This
// is the network half of the hot-swap story: a ModelGeneration swap
// never kills an in-flight response, and neither does a server drain.
//
// Slow-read (slowloris) defense: a request may not stay partially
// received longer than `read_timeout`, measured from its first byte —
// dripping one byte per poll interval no longer holds a worker
// hostage.  A keep-alive connection idle longer than `idle_timeout` is
// closed only when another connection wants what it holds: its worker
// (a connection waits in the pool queue) or its slot (the accept loop
// has turned a connection away at `max_connections` since an idle
// connection last yielded; one such rejection frees one slot for the
// client's retry).  Otherwise it stays open, so a client's idle
// connection is never closed under it for nothing.  Both kinds of
// close are counted in net.idle_closed.
//
// Each request is served on the connection worker that read it: the
// worker calls ServingService::Handle, which runs the serving stack on
// the same thread.
//
// Failpoints: net.accept (accepted connection dropped before dispatch)
// and net.write (connection closed before the response is written).  A
// fault at the pool's own dispatch site (threadpool.task) closes the
// connection it hit and releases its slot (counted in
// net.conn.dropped); Stop() absorbs it.
// Metrics: net.conn.accepted / net.conn.rejected_busy / net.conn.dropped
// counters, net.conn.active gauge, net.http.requests / net.http.responses
// / net.http.malformed / net.http.write_errors / net.idle_closed
// counters and the net.http.latency_us histogram (accept-to-flush per
// request).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "net/service.hpp"
#include "parallel/thread_pool.hpp"
#include "util/mutex.hpp"

namespace cfsf::net {

struct ServerOptions {
  /// Loopback by default; the test suite never opens a routable port.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral — read the actual port from port() after Start().
  std::uint16_t port = 0;
  /// Connection workers; also the number of connections served
  /// concurrently (the rest wait in the pool queue).
  std::size_t num_workers = 4;
  /// Accepted-connection bound; beyond it new connections are answered
  /// 503 + Retry-After inline and closed.
  std::size_t max_connections = 32;
  /// A keep-alive connection idle longer than this is closed once
  /// another connection waits for a worker or has been turned away at
  /// max_connections; until then it keeps its worker and slot.
  std::chrono::milliseconds idle_timeout{5000};
  /// Ceiling on how long one request may stay partially received,
  /// measured from its first byte (±poll_interval).  Slow-read
  /// connections exceeding it are closed and counted in
  /// net.idle_closed.
  std::chrono::milliseconds read_timeout{2000};
  /// poll() granularity of the accept and connection loops — the
  /// latency bound on noticing Stop().
  std::chrono::milliseconds poll_interval{50};
};

class HttpServer {
 public:
  /// `service` (and the stack beneath it) must outlive the server.
  HttpServer(ServingService& service, const ServerOptions& options = {});
  ~HttpServer();  // Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the accept thread.  False (with `error`
  /// filled) when the socket setup fails; the server is then inert.
  bool Start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, finish in-flight requests, close
  /// every connection, join the workers.  Idempotent.
  void Stop();

  /// The bound port (resolves ephemeral port 0); 0 before Start().
  std::uint16_t port() const;
  bool running() const;
  std::size_t ActiveConnections() const;

 private:
  class Connection;

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Whether a connection idle past idle_timeout should close: a
  /// connection waits in the pool queue, or turned_away_ is set (and is
  /// then cleared, so one rejection frees one slot).
  bool IdleShouldYield() CFSF_EXCLUDES(mutex_);
  /// Closes an accepted connection's fd and releases its active_ slot.
  void CloseConnection(int fd) CFSF_EXCLUDES(mutex_);
  /// Blocking full write with MSG_NOSIGNAL; false on a broken pipe.
  bool WriteAll(int fd, const std::string& data);

  ServingService& service_;
  const ServerOptions options_;

  mutable util::Mutex mutex_;
  int listen_fd_ CFSF_GUARDED_BY(mutex_) = -1;
  std::uint16_t port_ CFSF_GUARDED_BY(mutex_) = 0;
  bool running_ CFSF_GUARDED_BY(mutex_) = false;
  bool stopping_ CFSF_GUARDED_BY(mutex_) = false;
  std::size_t active_ CFSF_GUARDED_BY(mutex_) = 0;
  /// Set when the accept loop answers a connection 503 at
  /// max_connections; cleared by the idle connection that yields to it.
  bool turned_away_ CFSF_GUARDED_BY(mutex_) = false;

  std::thread accept_thread_;
  par::ThreadPool pool_;
};

}  // namespace cfsf::net
