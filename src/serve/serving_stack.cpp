#include "serve/serving_stack.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/failpoint.hpp"
#include "util/error.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"

namespace cfsf::serve {

namespace {

struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& ok;
  obs::Counter& shed;
  obs::Counter& rejected;
  obs::Counter& errors;
  obs::Counter& refused;
  obs::Counter& degraded_admissions;
  obs::Gauge& queue_depth;
  obs::Histogram& latency_full;
  obs::Histogram& latency_sir;
  obs::Histogram& latency_user_mean;
  obs::Histogram& latency_global_mean;
  obs::Histogram& latency_batch;
  obs::Histogram& latency_topn;

  static const ServeMetrics& Get() {
    static const ServeMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      const auto buckets = obs::LatencyBucketsUs();
      return ServeMetrics{
          registry.GetCounter(obs::names::kServeRequests),
          registry.GetCounter(obs::names::kServeOk),
          registry.GetCounter(obs::names::kServeShed),
          registry.GetCounter(obs::names::kServeRejected),
          registry.GetCounter(obs::names::kServeErrors),
          registry.GetCounter(obs::names::kServeRefused),
          registry.GetCounter(obs::names::kServeDegradedAdmissions),
          registry.GetGauge(obs::names::kServeQueueDepth),
          registry.GetHistogram(obs::names::kServeLatencyFull, buckets),
          registry.GetHistogram(obs::names::kServeLatencySir, buckets),
          registry.GetHistogram(obs::names::kServeLatencyUserMean, buckets),
          registry.GetHistogram(obs::names::kServeLatencyGlobalMean, buckets),
          registry.GetHistogram(obs::names::kServeLatencyBatch, buckets),
          registry.GetHistogram(obs::names::kServeLatencyTopN, buckets),
      };
    }();
    return metrics;
  }
};

obs::Histogram& LatencyFor(robust::PredictionRung rung) {
  const auto& metrics = ServeMetrics::Get();
  switch (rung) {
    case robust::PredictionRung::kFull: return metrics.latency_full;
    case robust::PredictionRung::kSir: return metrics.latency_sir;
    case robust::PredictionRung::kUserMean: return metrics.latency_user_mean;
    case robust::PredictionRung::kGlobalMean:
      return metrics.latency_global_mean;
  }
  return metrics.latency_full;
}

/// Breaker/watermark tier → the best ladder rung the request may use.
robust::PredictionRung FloorForLevel(std::size_t level) {
  switch (level) {
    case 0: return robust::PredictionRung::kFull;
    case 1: return robust::PredictionRung::kSir;
    case 2: return robust::PredictionRung::kUserMean;
    default: return robust::PredictionRung::kGlobalMean;
  }
}

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// How many per-item tallies one request is worth (a batch of N is N
/// requests in the serve.* counters, exactly as before the api.hpp
/// redesign).
std::size_t WeightOf(const Request& request) {
  return request.kind == Request::Kind::kPredictBatch
             ? std::max<std::size_t>(request.queries.size(), 1)
             : 1;
}

}  // namespace

ServingStack::ServingStack(ModelGeneration& models,
                           const ServingOptions& options)
    : models_(models),
      options_(options),
      breaker_(options.breaker) {
  CFSF_REQUIRE(options.queue_capacity > 0,
               "ServingStack: queue_capacity must be positive");
  CFSF_REQUIRE(options.degrade_watermark <= options.queue_capacity,
               "ServingStack: degrade_watermark must not exceed"
               " queue_capacity");
  CFSF_REQUIRE(options.watermark_level >= 1 && options.watermark_level <= 3,
               "ServingStack: watermark_level must be a degraded tier"
               " (1..3)");
}

ServingStack::~ServingStack() { Drain(); }

ServingStack::Admission ServingStack::Admit() {
  try {
    // An injected admission fault sheds, never crashes the caller.
    CFSF_FAILPOINT("serve.admit");
  } catch (const obs::InjectedFault&) {
    return Admission{false, StatusCode::kShed, false};
  }
  bool degraded = false;
  util::MutexLock lock(&mutex_);
  if (draining_ || depth_ >= options_.queue_capacity) {
    return Admission{false, StatusCode::kShed, false};
  }
  if (options_.degrade_watermark > 0 &&
      depth_ >= options_.degrade_watermark) {
    if (options_.watermark_policy == WatermarkPolicy::kReject) {
      return Admission{false, StatusCode::kRejected, false};
    }
    degraded = true;
  }
  // Reserved under the lock, so depth_ can never transiently exceed
  // queue_capacity — the soak asserts MaxDepthSeen() <= capacity.  The
  // gauge is set under it too, so racing updates cannot leave it stale.
  ++depth_;
  max_depth_ = std::max(max_depth_, depth_);
  ServeMetrics::Get().queue_depth.Set(static_cast<double>(depth_));
  return Admission{true, StatusCode::kShed, degraded};
}

void ServingStack::ReleaseSlot() {
  util::MutexLock lock(&mutex_);
  --depth_;
  ServeMetrics::Get().queue_depth.Set(static_cast<double>(depth_));
  if (depth_ == 0 && draining_) drained_.NotifyAll();
}

/// One admitted request's in-flight slot: released when the request
/// returns or throws, never twice.
class ServingStack::Slot {
 public:
  explicit Slot(ServingStack& stack) : stack_(stack) {}
  ~Slot() { stack_.ReleaseSlot(); }

  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

 private:
  ServingStack& stack_;
};

Response ServingStack::ServeSync(const Request& request) {
  const std::size_t weight = WeightOf(request);
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.requests.Increment(weight);

  const std::string invalid = request.ValidationError();
  if (!invalid.empty()) {
    Response refused;
    refused.trace_id = request.trace_id;
    refused.code = StatusCode::kMalformed;
    refused.message = invalid;
    metrics.refused.Increment(weight);
    return refused;
  }

  const Admission admission = Admit();
  if (!admission.admitted) {
    (admission.refusal == StatusCode::kRejected ? metrics.rejected
                                                : metrics.shed)
        .Increment(weight);
    Response refused;
    refused.trace_id = request.trace_id;
    refused.code = admission.refusal;
    refused.message = admission.refusal == StatusCode::kRejected
                          ? "refused above the degrade watermark"
                          : "in-flight limit reached or stack draining";
    return refused;
  }
  if (admission.degraded) metrics.degraded_admissions.Increment(weight);

  const Slot slot(*this);
  return Process(request, admission.degraded);
}

Response ServingStack::Process(const Request& request,
                               bool degraded_admission) {
  const std::size_t weight = WeightOf(request);
  Response response;
  response.trace_id = request.trace_id;
  BreakerPlan plan;
  std::size_t effective_level = 0;
  bool planned = false;
  bool bad = true;
  try {
    CFSF_FAILPOINT("serve.worker");
    if (request.kind == Request::Kind::kRate) {
      // A rating write needs the log, not the model, and its outcome
      // says nothing about ladder health — the breaker never sees it.
      ProcessRate(request, response);
      (response.ok() ? ServeMetrics::Get().ok : ServeMetrics::Get().refused)
          .Increment(weight);
      return response;
    }
    const auto model = models_.Active();
    if (model == nullptr) {
      throw util::Error("ServingStack: no active model generation");
    }
    plan = breaker_.Admit();
    planned = true;
    effective_level = std::max(plan.level, request.rung_floor);
    if (degraded_admission) {
      effective_level = std::max(effective_level, options_.watermark_level);
    }
    response.tier = effective_level;
    response.probe = plan.probe;
    response.generation = model->generation();
    if (request.kind == Request::Kind::kTopN) {
      ProcessTopN(request, effective_level, *model, response, bad);
    } else {
      ProcessPredict(request, effective_level, *model, response, bad);
    }
    if (response.ok()) {
      ServeMetrics::Get().ok.Increment(weight);
    } else {
      ServeMetrics::Get().refused.Increment(weight);
    }
  } catch (const std::exception& e) {
    response = Response{};
    response.trace_id = request.trace_id;
    response.code = StatusCode::kInternal;
    response.message = e.what();
    response.tier = effective_level;
    response.probe = plan.probe;
    ServeMetrics::Get().errors.Increment(weight);
    bad = true;
  }
  if (planned) breaker_.Record(plan, effective_level, bad);
  return response;
}

void ServingStack::ProcessPredict(const Request& request,
                                  std::size_t effective_level,
                                  const ServableModel& model,
                                  Response& response, bool& bad) {
  const robust::PredictionRung floor = FloorForLevel(effective_level);
  if (request.kind == Request::Kind::kPredict) {
    const auto start = std::chrono::steady_clock::now();
    const robust::LadderResult ladder = model.ladder().PredictWithLadder(
        request.user, request.item, request.deadline, floor);
    LatencyFor(ladder.rung).Record(ElapsedUs(start));
    response.predictions.push_back(Prediction{
        request.user, request.item, ladder.value, ladder.rung,
        ladder.deadline_overrun});
    // "Bad" for the breaker: the request blew its budget or had to fall
    // below even the tier it was planned at.
    bad = ladder.deadline_overrun || ladder.rung > floor;
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  const std::vector<robust::LadderResult> ladder =
      model.ladder().PredictBatchWithLadder(request.queries, request.deadline,
                                            floor);
  ServeMetrics::Get().latency_batch.Record(ElapsedUs(start));
  response.predictions.reserve(ladder.size());
  bad = false;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const robust::LadderResult& entry = ladder[i];
    response.predictions.push_back(Prediction{
        request.queries[i].first, request.queries[i].second, entry.value,
        entry.rung, entry.deadline_overrun});
    bad = bad || entry.deadline_overrun || entry.rung > floor;
  }
}

void ServingStack::ProcessTopN(const Request& request,
                               std::size_t effective_level,
                               const ServableModel& model, Response& response,
                               bool& bad) {
  // Rankings have no degraded rung: when the breaker or the watermark
  // has moved the stack below full fusion, refuse rather than rank from
  // a mean.  A refusal is not evidence about the tier's health, so it
  // never scores "bad" — the breaker recovers on predict outcomes.
  if (effective_level > 0) {
    response.code = StatusCode::kBreakerOpen;
    response.message = "stack degraded to tier " +
                       std::to_string(effective_level) +
                       "; top-n needs full fusion";
    bad = false;
    return;
  }
  if (request.deadline.Expired()) {
    response.code = StatusCode::kDeadlineExceeded;
    response.message = "budget spent before ranking started";
    bad = true;  // the budget ran out before ranking: the stack is slow
    return;
  }
  if (request.user >= model.model().NumUsers()) {
    response.code = StatusCode::kNotFound;
    response.message = "unknown user " + std::to_string(request.user);
    bad = false;
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  const auto recommendations =
      model.model().RecommendTopN(request.user, request.top_n);
  ServeMetrics::Get().latency_topn.Record(ElapsedUs(start));
  response.ranked.reserve(recommendations.size());
  for (const auto& recommendation : recommendations) {
    response.ranked.push_back(
        RankedItem{recommendation.item, recommendation.score});
  }
  bad = false;
}

void ServingStack::ProcessRate(const Request& request, Response& response) {
  response.generation = models_.ActiveGeneration();
  if (options_.rating_log == nullptr) {
    response.code = StatusCode::kUnavailable;
    response.message = "no rating log attached; serving is read-only";
    return;
  }
  if (request.deadline.Expired()) {
    response.code = StatusCode::kDeadlineExceeded;
    response.message = "budget spent before the rating was logged";
    return;
  }
  try {
    const wal::AppendAck ack = options_.rating_log->Append(
        matrix::RatingTriple{request.user, request.item, request.rating,
                             request.rating_timestamp},
        /*require_durable=*/true, wal::HashRequestId(request.request_id));
    response.lsn = ack.lsn;
    response.deduplicated = ack.deduplicated;
  } catch (const util::IoError& e) {
    // The log refused the record or has fail-stopped: degrade to
    // read-only (retryable 503) instead of taking the stack down.
    response.code = StatusCode::kUnavailable;
    response.message = e.what();
  }
}

std::future<Response> ServingStack::Submit(const Request& request) {
  std::promise<Response> promise;
  promise.set_value(ServeSync(request));
  return promise.get_future();
}

Response ServingStack::Await(std::future<Response>& future) {
  return future.get();
}

void ServingStack::Drain() {
  util::MutexLock lock(&mutex_);
  draining_ = true;
  while (depth_ != 0) drained_.Wait(lock);
}

std::size_t ServingStack::QueueDepth() const {
  util::MutexLock lock(&mutex_);
  return depth_;
}

std::size_t ServingStack::MaxDepthSeen() const {
  util::MutexLock lock(&mutex_);
  return max_depth_;
}

}  // namespace cfsf::serve
