#include "net/service.hpp"

#include <charconv>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/api.hpp"
#include "serve/model_generation.hpp"
#include "wal/log.hpp"

namespace cfsf::net {

namespace {

/// Parses a non-negative integer; false on anything else.
bool ParseUint(const std::string& text, std::uint64_t* value) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

std::string TraceIdOf(const HttpRequest& request) {
  const std::string* trace = request.FindHeader("x-cfsf-trace-id");
  return trace != nullptr ? *trace : std::string();
}

HttpResponse ErrorResponse(serve::StatusCode code, const std::string& message,
                           const std::string& trace_id) {
  HttpResponse response;
  response.status = serve::ToHttpStatus(code);
  response.body = RenderErrorJson(code, message, trace_id);
  if (!trace_id.empty()) response.Set("X-CFSF-Trace-Id", trace_id);
  return response;
}

}  // namespace

ServingService::ServingService(serve::ServingStack& stack,
                               const ServiceOptions& options)
    : stack_(stack), options_(options) {}

HttpResponse ServingService::Handle(const HttpRequest& request) {
  try {
    if (request.path == "/v1/predict") {
      if (request.method != "POST") {
        return ErrorResponse(serve::StatusCode::kMalformed,
                             "use POST for /v1/predict", TraceIdOf(request));
      }
      return HandlePredict(request);
    }
    if (request.path == "/v1/predict-batch") {
      if (request.method != "POST") {
        return ErrorResponse(serve::StatusCode::kMalformed,
                             "use POST for /v1/predict-batch",
                             TraceIdOf(request));
      }
      return HandlePredictBatch(request);
    }
    if (request.path == "/v1/rate") {
      if (request.method != "POST") {
        return ErrorResponse(serve::StatusCode::kMalformed,
                             "use POST for /v1/rate", TraceIdOf(request));
      }
      return HandleRate(request);
    }
    if (request.path == "/v1/top-n") {
      if (request.method != "GET") {
        return ErrorResponse(serve::StatusCode::kMalformed,
                             "use GET for /v1/top-n", TraceIdOf(request));
      }
      return HandleTopN(request);
    }
    if (request.path == "/v1/admin/checkpoint") {
      if (request.method != "POST") {
        return ErrorResponse(serve::StatusCode::kMalformed,
                             "use POST for /v1/admin/checkpoint",
                             TraceIdOf(request));
      }
      return HandleAdminCheckpoint(request);
    }
    if (request.path == "/healthz") {
      return HandleHealthz();
    }
    if (request.path == "/metrics") {
      return HandleMetrics();
    }
    return ErrorResponse(serve::StatusCode::kNotFound,
                         "no route matches " + request.path,
                         TraceIdOf(request));
  } catch (const std::exception& e) {
    return ErrorResponse(serve::StatusCode::kInternal, e.what(),
                         TraceIdOf(request));
  } catch (...) {
    return ErrorResponse(serve::StatusCode::kInternal, "unknown handler fault",
                         TraceIdOf(request));
  }
}

HttpResponse ServingService::HandlePredict(const HttpRequest& request) {
  BodyParse parse = ParsePredictBody(request.body);
  if (!parse.ok) {
    return ErrorResponse(serve::StatusCode::kMalformed, parse.error,
                         TraceIdOf(request));
  }
  return Dispatch(request, std::move(parse.request));
}

HttpResponse ServingService::HandlePredictBatch(const HttpRequest& request) {
  BodyParse parse = ParseBatchBody(request.body, options_.max_batch);
  if (!parse.ok) {
    return ErrorResponse(serve::StatusCode::kMalformed, parse.error,
                         TraceIdOf(request));
  }
  return Dispatch(request, std::move(parse.request));
}

HttpResponse ServingService::HandleRate(const HttpRequest& request) {
  BodyParse parse = ParseRateBody(request.body);
  if (!parse.ok) {
    return ErrorResponse(serve::StatusCode::kMalformed, parse.error,
                         TraceIdOf(request));
  }
  return Dispatch(request, std::move(parse.request));
}

HttpResponse ServingService::HandleTopN(const HttpRequest& request) {
  std::uint64_t user = 0;
  if (!ParseUint(request.QueryParam("user"), &user)) {
    return ErrorResponse(serve::StatusCode::kMalformed,
                         "missing or non-integer \"user\" query parameter",
                         TraceIdOf(request));
  }
  std::uint64_t n = 10;
  const std::string n_param = request.QueryParam("n");
  if (!n_param.empty() && !ParseUint(n_param, &n)) {
    return ErrorResponse(serve::StatusCode::kMalformed,
                         "non-integer \"n\" query parameter",
                         TraceIdOf(request));
  }
  if (n == 0 || n > options_.max_top_n) {
    return ErrorResponse(serve::StatusCode::kMalformed,
                         "\"n\" must be in [1, " +
                             std::to_string(options_.max_top_n) + "]",
                         TraceIdOf(request));
  }
  return Dispatch(request,
                  serve::Request::TopN(static_cast<matrix::UserId>(user),
                                       static_cast<std::size_t>(n)));
}

HttpResponse ServingService::HandleHealthz() {
  const auto active = stack_.models().Active();
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("status").String(active != nullptr ? "ok" : "no_model");
  json.Key("generation").Uint(active != nullptr ? active->generation() : 0);
  json.Key("breaker_level").Uint(stack_.breaker().level());
  json.Key("breaker_state")
      .String(serve::ToString(stack_.breaker().state()));
  json.Key("queue_depth").Uint(stack_.QueueDepth());
  const wal::WriteAheadLog* log = stack_.rating_log();
  json.Key("rating_log")
      .String(log == nullptr       ? "absent"
              : log->available() ? "ok"
                                 : "unavailable");
  if (options_.folder != nullptr) {
    // The fold backlog: durable records that can never fold because the
    // user/item is outside the folded model's dimensions.  Nonzero and
    // growing = clients are rating unenrolled entities.
    json.Key("fold_skipped").Uint(options_.folder->skipped_records());
    json.Key("fold_watermark").Uint(options_.folder->fold_watermark());
  }
  if (options_.recovery != nullptr) {
    const ckpt::RecoveryInfo& info = *options_.recovery;
    json.Key("recovery").BeginObject();
    json.Key("source").String(info.source);
    json.Key("checkpoint_id").Uint(info.checkpoint_id);
    json.Key("watermark").Uint(info.watermark);
    json.Key("replayed_records").Uint(info.replayed_records);
    json.Key("skipped_records").Uint(info.skipped_records);
    json.Key("fallbacks").Uint(info.fallbacks);
    json.Key("degraded_history").Bool(info.degraded_history);
    json.Key("recovery_us").Double(info.recovery_us);
    json.EndObject();
  }
  if (options_.checkpoints != nullptr) {
    const ckpt::CheckpointStatus status = options_.checkpoints->status();
    json.Key("checkpoints").BeginObject();
    json.Key("last_id").Uint(status.last_id);
    json.Key("last_watermark").Uint(status.last_watermark);
    json.Key("writes").Uint(status.writes);
    json.Key("failures").Uint(status.failures);
    json.Key("compacted_segments").Uint(status.compacted_segments);
    json.Key("compaction_failed").Bool(status.compaction_failed);
    json.EndObject();
  }
  json.EndObject();

  HttpResponse response;
  response.status = active != nullptr ? 200 : 503;
  response.body = json.str();
  return response;
}

HttpResponse ServingService::HandleAdminCheckpoint(
    const HttpRequest& request) {
  if (options_.checkpoints == nullptr) {
    return ErrorResponse(serve::StatusCode::kNotFound,
                         "checkpointing is not enabled (--ckpt-dir)",
                         TraceIdOf(request));
  }
  // CheckpointNow throws util::IoError on write/verify failure; the
  // outer catch in Handle() turns that into a 500 document, which is
  // exactly the admin-facing verdict we want.
  const std::uint64_t id = options_.checkpoints->CheckpointNow();
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("status").String("ok");
  json.Key("checkpoint_id").Uint(id);
  // id 0 = the fold watermark has not advanced since the last
  // checkpoint; nothing was written.
  json.Key("skipped").Bool(id == 0);
  json.EndObject();
  HttpResponse response;
  response.body = json.str();
  return response;
}

HttpResponse ServingService::HandleMetrics() {
  HttpResponse response;
  response.body = obs::MetricsRegistry::Global().ToJson();
  return response;
}

HttpResponse ServingService::Dispatch(const HttpRequest& http,
                                      serve::Request request) {
  request.trace_id = TraceIdOf(http);

  if (request.kind == serve::Request::Kind::kRate) {
    if (const std::string* id = http.FindHeader("x-cfsf-request-id")) {
      request.request_id = *id;
    }
  }

  if (const std::string* header = http.FindHeader("x-cfsf-deadline-us")) {
    std::uint64_t budget_us = 0;
    if (!ParseUint(*header, &budget_us)) {
      return ErrorResponse(serve::StatusCode::kMalformed,
                           "non-integer X-CFSF-Deadline-Us header",
                           request.trace_id);
    }
    request.deadline =
        robust::Deadline::After(std::chrono::microseconds(budget_us));
  }

  const serve::Response served = stack_.ServeSync(request);

  HttpResponse response;
  response.status = serve::ToHttpStatus(served.code);
  if (request.kind == serve::Request::Kind::kRate && served.ok()) {
    // The write is durable but only becomes visible in predictions
    // after the DeltaFolder's next publish: 202, not 200.
    response.status = 202;
  }
  response.body = RenderResponseJson(request.kind, served);
  if (!served.trace_id.empty()) {
    response.Set("X-CFSF-Trace-Id", served.trace_id);
  }
  if (serve::IsRetryable(served.code)) {
    response.Set("Retry-After", std::to_string(kRetryAfterSeconds));
  }
  return response;
}

}  // namespace cfsf::net
