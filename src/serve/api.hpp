// The serving surface's request/response vocabulary.
//
// Before this header existed, ServingStack grew one Submit overload per
// query shape (single, single+deadline, batch) and callers pattern-
// matched a bool+enum mix on the way out.  A network front end would
// have doubled that surface again — one translation per route.  Instead
// the whole online phase now speaks exactly one pair:
//
//   serve::Request    what the caller wants: a prediction, a batch of
//                     predictions, or a top-N ranking — plus the
//                     cross-cutting envelope every request carries
//                     (deadline, trace id, rung floor)
//   serve::Response   what came back: per-item predictions or ranked
//                     items, plus the envelope's echo (tier, probe,
//                     generation, trace id) and one StatusCode
//
// StatusCode is the error taxonomy shared by the in-process API and the
// wire layer: ToHttpStatus() is the single place a status becomes an
// HTTP code, so src/net/'s handlers are thin translations rather than a
// second API with its own failure vocabulary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "matrix/types.hpp"
#include "robust/fallback.hpp"

namespace cfsf::serve {

/// Every way a request can resolve, across the in-process and wire
/// surfaces.  Exactly one producer exists per code (see the table in
/// docs/SERVING_API.md); ToHttpStatus() is the one mapping to the wire.
enum class StatusCode {
  kOk = 0,           // answered (possibly from a degraded rung)
  kShed,             // in-flight limit reached or stack draining
  kRejected,         // refused by the kReject watermark policy
  kDeadlineExceeded, // budget spent before any answer could be produced
  kBreakerOpen,      // the stack is degraded below the tier this
                     // request needs (top-N requires full fusion)
  kUnavailable,      // the durable rating log is absent or has
                     // fail-stopped; the stack serves read-only
  kNotFound,         // unknown user (top-N) or unknown route (wire)
  kMalformed,        // request failed validation / unparseable body
  kInternal,         // fault while serving; no usable answer
};

const char* ToString(StatusCode code);

/// The single StatusCode -> HTTP status mapping; both the net layer and
/// docs/SERVING_API.md derive from it.
int ToHttpStatus(StatusCode code);

/// True for statuses a client should retry after a pause (the net layer
/// attaches a Retry-After header to these).
bool IsRetryable(StatusCode code);

/// One serving request.  Use the named constructors; the envelope
/// fields (deadline, trace_id, rung_floor) apply to every kind.
struct Request {
  enum class Kind { kPredict, kPredictBatch, kTopN, kRate };

  Kind kind = Kind::kPredict;
  matrix::UserId user = 0;
  matrix::ItemId item = 0;  // kPredict / kRate
  /// kRate only: the observed rating (MovieLens scale, 1..5) and its
  /// optional timestamp (0 = none).
  matrix::Rating rating = 0.0F;
  matrix::Timestamp rating_timestamp = 0;
  /// kPredictBatch only; admitted as one unit under one deadline.
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  std::size_t top_n = 10;  // kTopN only
  /// Per-request budget; default-constructed = unlimited.  It runs from
  /// when the caller set it, so time spent before admission counts.
  robust::Deadline deadline;
  /// Opaque caller token, echoed verbatim in the Response (and in the
  /// wire layer's X-CFSF-Trace-Id response header).
  std::string trace_id;
  /// kRate only: optional client idempotency key (the wire layer's
  /// X-CFSF-Request-Id header).  Empty = no dedup; a non-empty id that
  /// matches a recent rating returns the original ack (`deduplicated`)
  /// instead of logging a duplicate.  See docs/SERVING_API.md.
  std::string request_id;
  /// Best ladder tier this request may be served from (0 = full fusion
  /// ... 3 = global mean); the effective tier is the worst of this, the
  /// breaker level and the admission watermark.  Top-N requires 0.
  std::size_t rung_floor = 0;

  static Request Predict(matrix::UserId user, matrix::ItemId item,
                         robust::Deadline deadline = {});
  static Request PredictBatch(
      std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries,
      robust::Deadline deadline = {});
  static Request TopN(matrix::UserId user, std::size_t n,
                      robust::Deadline deadline = {});
  /// A rating write: durably logged (WAL) before it is acknowledged,
  /// folded into predictions by the DeltaFolder afterwards.
  static Request Rate(matrix::UserId user, matrix::ItemId item,
                      matrix::Rating rating, matrix::Timestamp timestamp = 0,
                      robust::Deadline deadline = {});

  /// Empty when the request is well-formed; otherwise the reason it
  /// would resolve as kMalformed.  Submit() runs this before admission.
  std::string ValidationError() const;
};

const char* ToString(Request::Kind kind);

/// One answered (user, item) query.
struct Prediction {
  matrix::UserId user = 0;
  matrix::ItemId item = 0;
  double value = 0.0;
  robust::PredictionRung rung = robust::PredictionRung::kFull;
  /// True when a rung was skipped because the deadline had expired.
  bool deadline_overrun = false;
};

/// One entry of a top-N ranking, score-descending.
struct RankedItem {
  matrix::ItemId item = 0;
  double score = 0.0;
};

struct Response {
  StatusCode code = StatusCode::kOk;
  /// kPredict: exactly one entry; kPredictBatch: one per query, in
  /// request order.  Empty on any non-kOk status.
  std::vector<Prediction> predictions;
  /// kTopN only: at most Request::top_n entries, score-descending.
  std::vector<RankedItem> ranked;
  /// Ladder tier the request was planned at (breaker level, watermark
  /// bump and the request's own rung_floor already folded in).
  std::size_t tier = 0;
  bool probe = false;
  /// Model generation that served the request (0 when refused).
  std::uint64_t generation = 0;
  /// kRate only: the durable log sequence number of the acked record.
  std::uint64_t lsn = 0;
  /// kRate only: true when Request::request_id matched a recent rating —
  /// `lsn` is the original record's; nothing new was logged or folded.
  bool deduplicated = false;
  std::string trace_id;  // echoed from the request
  std::string message;   // human-readable detail for non-kOk statuses

  bool ok() const { return code == StatusCode::kOk; }
  /// True when any prediction noted a deadline overrun.
  bool deadline_overrun() const;
};

}  // namespace cfsf::serve
