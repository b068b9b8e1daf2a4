// Dependency-free HTTP/1.1 message layer: an incremental request parser
// and a response serialiser, shared by the server (src/net/server.cpp)
// and the loopback tests.
//
// Scope is deliberately the subset a serving front end needs:
//   * request framing by Content-Length (no chunked encoding, no
//     trailers, no continuation lines) with hard header/body size caps
//   * case-insensitive header names (stored lower-cased)
//   * keep-alive semantics: HTTP/1.1 defaults to persistent,
//     `Connection: close` (or HTTP/1.0 without keep-alive) ends the
//     connection after the response
//   * target splitting into path + percent-decoded query parameters
//
// The parser is incremental — Feed() accepts whatever the socket
// delivered and reports kComplete only once a full message is buffered —
// and pipelining-safe: bytes after the message boundary are retained for
// the next Reset()/Feed() cycle.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace cfsf::net {

/// Hard caps; a request exceeding them parses as kError (wire: 400).
inline constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;

/// Retry-After value, in seconds, on every retryable refusal: the
/// service's backpressure statuses and the server's inline busy 503.
inline constexpr int kRetryAfterSeconds = 1;

struct HttpRequest {
  std::string method;   // uppercase by convention; matched exactly
  std::string target;   // as received, e.g. "/v1/top-n?user=3&n=5"
  std::string path;     // target up to '?'
  std::string version;  // "HTTP/1.1"
  /// Parsed query parameters, percent-decoded, in target order.
  std::vector<std::pair<std::string, std::string>> query;
  /// Header fields with lower-cased names, in wire order.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  /// First header with this (lower-case) name; nullptr when absent.
  const std::string* FindHeader(const std::string& name) const;
  /// First query parameter with this name, or `fallback`.
  std::string QueryParam(const std::string& name,
                         const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  /// Extra headers; Content-Length, Content-Type (when body_type is
  /// set) and Connection are emitted by Serialize.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  std::string body_type = "application/json";

  void Set(const std::string& name, const std::string& value);
};

/// Canonical reason phrase for the statuses the stack emits; "Unknown"
/// otherwise.
const char* ReasonPhrase(int status);

/// One complete HTTP/1.1 response message.  `keep_alive` controls the
/// Connection header (keep-alive vs close).
std::string Serialize(const HttpResponse& response, bool keep_alive);

/// Splits a request target into path + decoded query pairs.  Returns
/// false on malformed percent-escapes.
bool ParseTarget(const std::string& target, std::string* path,
                 std::vector<std::pair<std::string, std::string>>* query);

class RequestParser {
 public:
  enum class State { kIncomplete, kComplete, kError };

  /// Buffers `n` bytes and advances the parse.  Idempotent once
  /// kComplete/kError is reached (further bytes are buffered for the
  /// next message).
  State Feed(const char* data, std::size_t n);

  State state() const { return state_; }
  /// Valid once state() == kComplete.
  const HttpRequest& request() const { return request_; }
  /// Why the parse failed (state() == kError).
  const std::string& error() const { return error_; }
  /// True when bytes of a not-yet-complete message are buffered — the
  /// server finishes reading such a request before draining.
  bool HasPartialData() const;

  /// Prepares for the next message on the same connection, keeping any
  /// pipelined bytes past the previous message boundary.
  void Reset();

 private:
  State Parse();
  State Fail(const std::string& why);

  std::string buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ owned by the current message
  std::size_t header_end_ = 0;
  std::size_t body_length_ = 0;
  bool headers_done_ = false;
  State state_ = State::kIncomplete;
  HttpRequest request_;
  std::string error_;
};

}  // namespace cfsf::net
