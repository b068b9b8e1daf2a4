// ServingStack — the resilient online serving layer.
//
// The paper's offline/online split exists so the online phase stays
// cheap and predictable under load (CFSF §IV response-time results).
// This layer makes that promise hold under *hostile* load by composing:
//
//   admission control   a bounded count of requests in flight, with no
//                       queue: every request runs on the thread that
//                       calls ServeSync (over HTTP, the connection
//                       worker that parsed it).  In flight >=
//                       queue_capacity sheds the request outright
//                       (kShed); in flight >= degrade_watermark applies
//                       the configured watermark policy — degrade the
//                       request to a cheaper ladder tier (kDegrade, the
//                       default) or refuse it (kRejected)
//   deadline propagation each request carries a robust::Deadline from
//                       the API into the ladder, so a late request
//                       degrades instead of blocking
//   circuit breaker     serve/circuit_breaker.hpp scores every outcome
//                       and moves the default tier for the whole stack
//                       (full → SIR′ → user mean → global mean),
//                       half-opening with probe requests to climb back
//   hot model swap      requests resolve the model through
//                       serve/model_generation.hpp, so a swap never
//                       blocks or fails an in-flight request
//
// The API is one call: ServeSync(serve::Request) -> serve::Response
// (serve/api.hpp).  A Request is a single prediction, a batch served as
// one admission unit, a top-N ranking, or a rating write; the Response
// carries the shared StatusCode taxonomy, so the HTTP front end
// (src/net/) translates rather than re-deciding.  Top-N has no degraded
// rung: when the breaker or the watermark has moved the stack below
// full fusion, top-N requests resolve as kBreakerOpen instead of
// serving stale rankings.
//
// Rating writes (Request::Rate) are durable-or-refused: the record is
// appended to the attached wal::WriteAheadLog with the durability
// barrier forced, and acked (kOk, lsn set) only once fsynced.  With no
// log attached, or once the log has fail-stopped (fsync/rotation
// failure), rate requests resolve kUnavailable while predictions keep
// serving — breaker-style degradation to read-only rather than dying.
//
// Shutdown drains gracefully: Drain() stops admissions (everything new
// is shed) and waits until the last in-flight caller has released its
// slot; the destructor drains too.  Every admitted request releases its
// slot exactly once, through a scoped guard, and a fault inside the
// request (serve.worker, or any lower layer) surfaces as a kInternal
// response rather than an exception.
//
// Submit/Await and ServingOptions::num_workers remain only because
// bench/perfbench/bench.cpp's traced re-issue compiles against them:
// Submit returns a ready future of ServeSync, Await is a plain get(),
// and num_workers is not read.  No other caller may use them; delete
// them once that benchmark stops using them.
//
// Metrics: serve.requests / serve.ok / serve.shed / serve.rejected /
// serve.errors / serve.refused / serve.degraded_admissions counters,
// serve.queue_depth gauge (requests in flight), per-rung latency
// histograms serve.latency_us.{full,sir,user_mean,global_mean} for
// predicts, plus serve.latency_us.batch and serve.latency_us.topn.
// Failpoints: serve.admit (admission) and serve.worker (request body,
// before the model is touched), both evaluated on the caller's thread,
// plus everything the lower layers define.
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "matrix/types.hpp"
#include "robust/fallback.hpp"
#include "serve/api.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/model_generation.hpp"
#include "util/attrs.hpp"
#include "util/mutex.hpp"

namespace cfsf::wal {
class WriteAheadLog;
}  // namespace cfsf::wal

namespace cfsf::serve {

/// What to do with requests admitted above the degrade watermark.
enum class WatermarkPolicy {
  kDegrade,  // serve, but from `watermark_level` or cheaper
  kReject,   // refuse with kRejected
};

struct ServingOptions {
  /// Not read, and no longer bounds concurrency: requests run on the
  /// caller's thread, so as many run at once as there are callers, up
  /// to queue_capacity.  Kept only because bench/perfbench/bench.cpp
  /// still sets it; no other code may.
  std::size_t num_workers = 4;
  /// Hard bound on requests in flight; beyond it requests are shed.
  std::size_t queue_capacity = 256;
  /// Depth at which the watermark policy kicks in; 0 disables.
  std::size_t degrade_watermark = 128;
  WatermarkPolicy watermark_policy = WatermarkPolicy::kDegrade;
  /// Ladder tier (1=SIR′, 2=user mean, 3=global mean) forced on
  /// requests admitted above the watermark under kDegrade.
  std::size_t watermark_level = 2;
  CircuitBreakerOptions breaker;
  /// Durable rating log behind Request::Rate; must outlive the stack.
  /// nullptr = no ingestion: rate requests resolve kUnavailable.
  wal::WriteAheadLog* rating_log = nullptr;
};

class ServingStack {
 public:
  /// `models` must outlive the stack and have an active generation
  /// before the first request.
  ServingStack(ModelGeneration& models, const ServingOptions& options = {});
  ~ServingStack();  // drains

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Serves one request of any kind on the calling thread: validate,
  /// admit, process, release the slot, return.  Refused requests
  /// (shed/rejected/malformed) return at once.
  Response ServeSync(const Request& request)
      CFSF_HOT_PATH CFSF_EXCLUDES(mutex_);

  /// A ready future of ServeSync(request).  Kept only because
  /// bench/perfbench/bench.cpp still calls it; no other code may.
  std::future<Response> Submit(const Request& request) CFSF_EXCLUDES(mutex_);

  /// future.get().  Kept only because bench/perfbench/bench.cpp still
  /// calls it; no other code may.
  static Response Await(std::future<Response>& future) CFSF_BLOCKING;

  /// Stops admitting (new requests are shed) and waits until every
  /// in-flight request has released its slot.  Idempotent.
  void Drain() CFSF_EXCLUDES(mutex_);

  /// Requests in flight (admitted and not yet returned).
  std::size_t QueueDepth() const CFSF_EXCLUDES(mutex_);
  /// High-water mark of QueueDepth() since construction — the soak
  /// asserts it never exceeds queue_capacity.
  std::size_t MaxDepthSeen() const CFSF_EXCLUDES(mutex_);

  CircuitBreaker& breaker() { return breaker_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  ModelGeneration& models() { return models_; }
  const ServingOptions& options() const { return options_; }
  /// The attached rating log (nullptr when serving read-only).
  wal::WriteAheadLog* rating_log() const { return options_.rating_log; }

 private:
  struct Admission {
    bool admitted = false;
    StatusCode refusal = StatusCode::kShed;  // when !admitted
    bool degraded = false;                   // watermark bumped the tier
  };

  class Slot;

  /// Reserves one in-flight slot (or refuses).  An admitted request
  /// holds it in a Slot, whose destructor calls ReleaseSlot().
  Admission Admit() CFSF_EXCLUDES(mutex_);
  void ReleaseSlot() CFSF_EXCLUDES(mutex_);

  Response Process(const Request& request, bool degraded_admission)
      CFSF_HOT_PATH;
  void ProcessPredict(const Request& request, std::size_t effective_level,
                      const ServableModel& model, Response& response,
                      bool& bad);
  void ProcessTopN(const Request& request, std::size_t effective_level,
                   const ServableModel& model, Response& response, bool& bad);
  void ProcessRate(const Request& request, Response& response)
      CFSF_ACK_POINT;

  ModelGeneration& models_;
  const ServingOptions options_;
  CircuitBreaker breaker_;

  mutable util::Mutex mutex_;
  util::CondVar drained_;  // signalled by the last release while draining
  std::size_t depth_ CFSF_GUARDED_BY(mutex_) = 0;
  std::size_t max_depth_ CFSF_GUARDED_BY(mutex_) = 0;
  bool draining_ CFSF_GUARDED_BY(mutex_) = false;
};

}  // namespace cfsf::serve
