// Route dispatch: one HttpRequest in, one HttpResponse out.
//
// ServingService is the translation layer the api.hpp redesign exists
// for — every handler is parse body/query, build a serve::Request,
// ServeSync, render.  Status decisions live in serve::ToHttpStatus;
// nothing here invents a second failure vocabulary.
//
// Routes (docs/SERVING_API.md is the normative reference):
//   POST /v1/predict        {"user", "item", "rung_floor"?}
//   POST /v1/predict-batch  {"queries": [[u, i], ...], "rung_floor"?}
//   POST /v1/rate           {"user", "item", "rating", "timestamp"?}
//                           202 on durable ack, 503 when the rating
//                           log is absent or has fail-stopped
//   GET  /v1/top-n?user=U&n=N
//   GET  /healthz           liveness + active generation / breaker tier
//   GET  /metrics           obs::MetricsRegistry::Global().ToJson()
//   POST /v1/admin/checkpoint
//                           force a checkpoint now (404 when
//                           checkpointing is not enabled); returns the
//                           new id, or "skipped" when the fold
//                           watermark has not advanced
//
// Cross-cutting headers:
//   X-CFSF-Deadline-Us  request budget in microseconds; propagated as
//                       robust::Deadline::After into the ladder
//   X-CFSF-Trace-Id     opaque token, echoed on the response
//   X-CFSF-Request-Id   POST /v1/rate only: client idempotency key; a
//                       retry carrying the same id returns the original
//                       record's ack ("deduplicated": true) instead of
//                       logging a duplicate
//   Retry-After         attached (kRetryAfterSeconds) when IsRetryable(code)
//
// The service is stateless per request and thread-safe: the HttpServer
// calls Handle() from its worker pool concurrently.
#pragma once

#include <cstddef>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/recover.hpp"
#include "net/http.hpp"
#include "serve/delta_folder.hpp"
#include "serve/serving_stack.hpp"
#include "util/attrs.hpp"

namespace cfsf::net {

struct ServiceOptions {
  /// Upper bound on /v1/predict-batch query count; larger bodies are
  /// kMalformed.
  std::size_t max_batch = 1024;
  /// Upper bound on the `n` query parameter of /v1/top-n.
  std::size_t max_top_n = 1000;
  /// Optional observability hooks rendered into /healthz; each may be
  /// null (the corresponding section is omitted) and, when set, must
  /// outlive the service.
  /// How the process last started (ckpt::Recover's report).
  const ckpt::RecoveryInfo* recovery = nullptr;
  /// Live checkpoint/compaction state (status() is thread-safe) and
  /// the /v1/admin/checkpoint trigger (CheckpointNow serializes against
  /// the cadence thread internally).
  ckpt::CheckpointManager* checkpoints = nullptr;
  /// Fold backlog source: surfaces the wal.fold.skipped count so
  /// out-of-matrix ratings are an operator signal, not a buried metric.
  const serve::DeltaFolder* folder = nullptr;
};

class ServingService {
 public:
  explicit ServingService(serve::ServingStack& stack,
                          const ServiceOptions& options = {});

  /// Dispatches one parsed request.  Never throws: handler faults
  /// become 500 documents.
  HttpResponse Handle(const HttpRequest& request) CFSF_HOT_PATH;

  const ServiceOptions& options() const { return options_; }

 private:
  HttpResponse HandlePredict(const HttpRequest& request);
  HttpResponse HandlePredictBatch(const HttpRequest& request);
  HttpResponse HandleRate(const HttpRequest& request);
  HttpResponse HandleTopN(const HttpRequest& request);
  HttpResponse HandleHealthz();
  HttpResponse HandleMetrics();
  HttpResponse HandleAdminCheckpoint(const HttpRequest& request);

  /// Runs a wire-built Request through the stack and renders it,
  /// folding in the deadline/trace headers.
  HttpResponse Dispatch(const HttpRequest& http, serve::Request request);

  serve::ServingStack& stack_;
  const ServiceOptions options_;
};

}  // namespace cfsf::net
