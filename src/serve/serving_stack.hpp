// ServingStack — the resilient online serving layer.
//
// The paper's offline/online split exists so the online phase stays
// cheap and predictable under load (CFSF §IV response-time results).
// This layer makes that promise hold under *hostile* load by composing:
//
//   admission control   a bounded request queue over par::ThreadPool:
//                       depth >= queue_capacity sheds the request
//                       outright (kShed); depth >= degrade_watermark
//                       applies the configured watermark policy —
//                       degrade the request to a cheaper ladder tier
//                       (kDegrade, the default) or refuse it (kRejected)
//   deadline propagation each request carries a robust::Deadline from
//                       the API through the queue into the ladder, so
//                       time queued counts against the budget and a
//                       late request degrades instead of blocking
//   circuit breaker     serve/circuit_breaker.hpp scores every outcome
//                       and moves the default tier for the whole stack
//                       (full → SIR′ → user mean → global mean),
//                       half-opening with probe requests to climb back
//   hot model swap      requests resolve the model through
//                       serve/model_generation.hpp, so a swap never
//                       blocks or fails an in-flight request
//
// The API is one pair: Submit(serve::Request) -> future<serve::Response>
// (serve/api.hpp).  A Request is a single prediction, a batch served as
// one queue unit, a top-N ranking, or a rating write; the Response
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
// is shed) and waits for in-flight work; the destructor drains too, so
// a ServingStack can never outlive its workers.  Every accepted request
// resolves its future exactly once — including on worker faults, which
// surface as kInternal responses rather than exceptions.  The one
// exception: a fault injected at the pool's own dispatch site
// (threadpool.task) destroys the closure unexecuted, which breaks the
// promise; Await()/ServeSync() map that std::future_error onto a
// kInternal response so even injected dispatch storms cannot wedge a
// client.
//
// Metrics: serve.requests / serve.ok / serve.shed / serve.rejected /
// serve.errors / serve.refused / serve.degraded_admissions counters,
// serve.queue_depth gauge, per-rung latency histograms
// serve.latency_us.{full,sir,user_mean,global_mean} for predicts, plus
// serve.latency_us.batch and serve.latency_us.topn.  Failpoints:
// serve.admit (admission path) and serve.worker (worker path), plus
// everything the lower layers define.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "matrix/types.hpp"
#include "parallel/thread_pool.hpp"
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
  std::size_t num_workers = 4;
  /// Hard bound on queued+running requests; beyond it requests are shed.
  std::size_t queue_capacity = 256;
  /// Depth at which the watermark policy kicks in; 0 disables.
  std::size_t degrade_watermark = 128;
  WatermarkPolicy watermark_policy = WatermarkPolicy::kDegrade;
  /// Ladder tier (1=SIR′, 2=user mean, 3=global mean) forced on
  /// requests admitted above the watermark under kDegrade.
  std::size_t watermark_level = 2;
  /// Default per-request budget when the caller passes no deadline;
  /// zero = unlimited.
  std::chrono::microseconds default_budget{0};
  CircuitBreakerOptions breaker;
  /// Durable rating log behind Request::Rate; must outlive the stack.
  /// nullptr = no ingestion: rate requests resolve kUnavailable.
  wal::WriteAheadLog* rating_log = nullptr;
};

class ServingStack {
 public:
  /// `models` must outlive the stack and have an active generation
  /// before the first Submit.
  ServingStack(ModelGeneration& models, const ServingOptions& options = {});
  ~ServingStack();  // drains

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Admits one request of any kind.  Always returns a future that
  /// Await() can resolve; refused requests (shed/rejected/malformed)
  /// come back already completed.  A Request without a deadline picks
  /// up options().default_budget.
  std::future<Response> Submit(const Request& request)
      CFSF_HOT_PATH CFSF_EXCLUDES(mutex_);

  /// future.get() with the broken-promise case (a fault injected at the
  /// pool dispatch site) mapped onto a kInternal response.
  static Response Await(std::future<Response>& future) CFSF_BLOCKING;

  /// Submit + Await in one call.
  Response ServeSync(const Request& request)
      CFSF_BLOCKING CFSF_EXCLUDES(mutex_);

  /// Stops admitting (new requests are shed) and waits until every
  /// in-flight request has resolved.  Idempotent.
  void Drain() CFSF_EXCLUDES(mutex_);

  std::size_t QueueDepth() const CFSF_EXCLUDES(mutex_);
  /// High-water mark of the queue depth since construction — the soak
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

  /// Reserves one queue slot (or refuses).  The slot is released by
  /// the Pending shared state when the request resolves.
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
  std::size_t depth_ CFSF_GUARDED_BY(mutex_) = 0;
  std::size_t max_depth_ CFSF_GUARDED_BY(mutex_) = 0;
  bool draining_ CFSF_GUARDED_BY(mutex_) = false;

  // Declared last: workers must stop before the fields above go away.
  par::ThreadPool pool_;
};

}  // namespace cfsf::serve
