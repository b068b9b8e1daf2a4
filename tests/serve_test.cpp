// Tests for the resilient serving layer: circuit-breaker state machine,
// admission control (shedding, watermark degrade/reject, drain),
// deadline propagation, generation publish, worker-fault survival, the
// durable Rate verb (write-ahead log + DeltaFolder fold-and-publish) —
// and the chaos soak that drives all of it at once under randomized
// failpoint schedules (ctest labels: fault + stress).
//
// Everything speaks the unified serve::Request/serve::Response API.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/api.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "serve/soak.hpp"
#include "util/error.hpp"
#include "wal/log.hpp"
#include "wal/replay.hpp"

namespace cfsf {
namespace {

using obs::FailPointRegistry;
using obs::ScopedFailPoint;
using robust::PredictionRung;
using serve::BreakerPlan;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::CircuitBreakerOptions;
using serve::ModelGeneration;
using serve::Request;
using serve::Response;
using serve::ServingOptions;
using serve::ServingStack;
using serve::StatusCode;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }

  /// One fitted model shared by every test (fitting is the slow part).
  static std::unique_ptr<core::CfsfModel> FreshModel() {
    data::SyntheticConfig dconfig;
    dconfig.num_users = 60;
    dconfig.num_items = 80;
    dconfig.min_ratings_per_user = 15;
    dconfig.max_ratings_per_user = 30;  // leave unrated items for top-N
    core::CfsfConfig config;
    config.num_clusters = 5;
    config.top_m_items = 15;
    config.top_k_users = 8;
    auto model = std::make_unique<core::CfsfModel>(config);
    model->Fit(data::GenerateSynthetic(dconfig));
    return model;
  }

  static ModelGeneration& Models() {
    static ModelGeneration* models = [] {
      auto* m = new ModelGeneration();  // cfsf-lint: allow(naked-new)
      m->Install(FreshModel());
      return m;
    }();
    return *models;
  }
};

// ------------------------------------------------- circuit breaker ----

CircuitBreakerOptions FastBreaker() {
  CircuitBreakerOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.trip_threshold = 0.5;
  options.cooldown = std::chrono::milliseconds(1);
  options.probe_count = 2;
  options.probe_success_threshold = 1.0;
  return options;
}

TEST(CircuitBreakerTest, StartsClosedAtFullFusion) {
  CircuitBreaker breaker(FastBreaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.level(), 0u);
  const BreakerPlan plan = breaker.Admit();
  EXPECT_EQ(plan.level, 0u);
  EXPECT_FALSE(plan.probe);
}

TEST(CircuitBreakerTest, TripsOnBadWindowAndStepsDownOneTier) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) {
    breaker.Record(breaker.Admit(), 0, /*bad=*/true);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.level(), 1u);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, HalfOpensAfterCooldownAndRecoversOnGoodProbes) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.Record(breaker.Admit(), 0, true);
  ASSERT_EQ(breaker.level(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // First Admit past the cooldown half-opens and issues a probe one
  // tier up; good probes recover the tier and close the breaker.
  for (int i = 0; i < 2; ++i) {
    const BreakerPlan plan = breaker.Admit();
    ASSERT_TRUE(plan.probe);
    ASSERT_EQ(plan.level, 0u);
    breaker.Record(plan, plan.level, /*bad=*/false);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.level(), 0u);
  EXPECT_EQ(breaker.recoveries(), 1u);
}

TEST(CircuitBreakerTest, FailedProbesReopenAtCurrentLevel) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.Record(breaker.Admit(), 0, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  for (int i = 0; i < 2; ++i) {
    const BreakerPlan plan = breaker.Admit();
    ASSERT_TRUE(plan.probe);
    breaker.Record(plan, plan.level, /*bad=*/true);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.level(), 1u);
  EXPECT_EQ(breaker.recoveries(), 0u);
}

TEST(CircuitBreakerTest, StaleProbeOutcomeIsIgnored) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.Record(breaker.Admit(), 0, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  const BreakerPlan p1 = breaker.Admit();
  const BreakerPlan p2 = breaker.Admit();
  ASSERT_TRUE(p1.probe && p2.probe);
  breaker.Record(p1, p1.level, /*bad=*/true);
  breaker.Record(p2, p2.level, /*bad=*/true);  // episode fails; re-open
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  const BreakerPlan q1 = breaker.Admit();  // fresh half-open episode
  ASSERT_TRUE(q1.probe);
  // Replaying the dead episode's probes must not leak into the new one.
  breaker.Record(p1, p1.level, /*bad=*/false);
  breaker.Record(p2, p2.level, /*bad=*/false);
  EXPECT_EQ(breaker.recoveries(), 0u);
  EXPECT_EQ(breaker.level(), 1u);
  // The live episode still concludes on its own probes.
  const BreakerPlan q2 = breaker.Admit();
  ASSERT_TRUE(q2.probe);
  breaker.Record(q1, q1.level, /*bad=*/false);
  breaker.Record(q2, q2.level, /*bad=*/false);
  EXPECT_EQ(breaker.recoveries(), 1u);
  EXPECT_EQ(breaker.level(), 0u);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, RepeatedTripsBottomOutAtGlobalMean) {
  CircuitBreakerOptions options = FastBreaker();
  options.cooldown = std::chrono::hours(1);  // never half-open here
  CircuitBreaker breaker(options);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 8; ++i) {
      const BreakerPlan plan = breaker.Admit();
      breaker.Record(plan, plan.level, true);
    }
  }
  EXPECT_EQ(breaker.level(), options.max_level);
  EXPECT_LE(breaker.trips(), options.max_level);
}

TEST(CircuitBreakerTest, RejectsNonsenseOptions) {
  CircuitBreakerOptions options;
  options.window = 0;
  EXPECT_THROW(CircuitBreaker{options}, util::ConfigError);
  options = CircuitBreakerOptions{};
  options.min_samples = options.window + 1;
  EXPECT_THROW(CircuitBreaker{options}, util::ConfigError);
  options = CircuitBreakerOptions{};
  options.trip_threshold = 0.0;
  EXPECT_THROW(CircuitBreaker{options}, util::ConfigError);
  options = CircuitBreakerOptions{};
  options.max_level = 4;
  EXPECT_THROW(CircuitBreaker{options}, util::ConfigError);
}

// ----------------------------------------------------- status codes ----

TEST(StatusCodeTest, HttpMappingIsTotalAndStable) {
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kOk), 200);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kShed), 503);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kRejected), 429);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kBreakerOpen), 503);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kNotFound), 404);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kMalformed), 400);
  EXPECT_EQ(serve::ToHttpStatus(StatusCode::kInternal), 500);
}

TEST(StatusCodeTest, RetryableStatusesAreTheBackpressureOnes) {
  EXPECT_TRUE(serve::IsRetryable(StatusCode::kShed));
  EXPECT_TRUE(serve::IsRetryable(StatusCode::kRejected));
  EXPECT_TRUE(serve::IsRetryable(StatusCode::kBreakerOpen));
  EXPECT_FALSE(serve::IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(serve::IsRetryable(StatusCode::kMalformed));
  EXPECT_FALSE(serve::IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(serve::IsRetryable(StatusCode::kInternal));
}

TEST(RequestTest, ValidationCatchesNonsense) {
  Request bad_floor = Request::Predict(0, 0);
  bad_floor.rung_floor = 4;
  EXPECT_FALSE(bad_floor.ValidationError().empty());

  const Request empty_batch = Request::PredictBatch({});
  EXPECT_FALSE(empty_batch.ValidationError().empty());

  const Request zero_n = Request::TopN(0, 0);
  EXPECT_FALSE(zero_n.ValidationError().empty());

  Request degraded_topn = Request::TopN(0, 5);
  degraded_topn.rung_floor = 1;
  EXPECT_FALSE(degraded_topn.ValidationError().empty());

  EXPECT_TRUE(Request::Predict(0, 0).ValidationError().empty());
  EXPECT_TRUE(Request::TopN(0, 5).ValidationError().empty());
}

// ---------------------------------------------------- serving stack ----

ServingOptions SmallStack() {
  ServingOptions options;
  options.queue_capacity = 32;
  options.degrade_watermark = 24;
  options.breaker = FastBreaker();
  return options;
}

TEST_F(ServeTest, ServesFullFusionWhenHealthy) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(Request::Predict(0, 0));
  EXPECT_EQ(response.code, StatusCode::kOk);
  ASSERT_EQ(response.predictions.size(), 1u);
  EXPECT_EQ(response.predictions[0].rung, PredictionRung::kFull);
  EXPECT_GE(response.predictions[0].value, 1.0);
  EXPECT_LE(response.predictions[0].value, 5.0);
  EXPECT_GT(response.generation, 0u);
  EXPECT_FALSE(response.deadline_overrun());
}

TEST_F(ServeTest, TraceIdIsEchoedVerbatim) {
  ServingStack stack(Models(), SmallStack());
  Request request = Request::Predict(0, 0);
  request.trace_id = "trace-42";
  EXPECT_EQ(stack.ServeSync(request).trace_id, "trace-42");
  // Even on refused requests.
  Request malformed = Request::PredictBatch({});
  malformed.trace_id = "trace-43";
  const Response refused = stack.ServeSync(malformed);
  EXPECT_EQ(refused.code, StatusCode::kMalformed);
  EXPECT_EQ(refused.trace_id, "trace-43");
}

TEST_F(ServeTest, MalformedRequestsRefuseBeforeAdmission) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(Request::PredictBatch({}));
  EXPECT_EQ(response.code, StatusCode::kMalformed);
  EXPECT_FALSE(response.message.empty());
  EXPECT_EQ(stack.QueueDepth(), 0u);
}

TEST_F(ServeTest, RungFloorForcesACheaperRung) {
  ServingStack stack(Models(), SmallStack());
  Request request = Request::Predict(0, 0);
  request.rung_floor = 2;  // at best user mean
  const Response response = stack.ServeSync(request);
  EXPECT_EQ(response.code, StatusCode::kOk);
  ASSERT_EQ(response.predictions.size(), 1u);
  EXPECT_GE(response.predictions[0].rung, PredictionRung::kUserMean);
  EXPECT_GE(response.tier, 2u);
}

TEST_F(ServeTest, ExpiredDeadlineDegradesInsteadOfBlocking) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(Request::Predict(
      1, 1, robust::Deadline::After(std::chrono::microseconds(0))));
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_TRUE(response.deadline_overrun());
  ASSERT_EQ(response.predictions.size(), 1u);
  EXPECT_GE(response.predictions[0].rung, PredictionRung::kUserMean);
  EXPECT_TRUE(std::isfinite(response.predictions[0].value));
}

TEST_F(ServeTest, BatchServesEveryQueryInOrder) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(
      Request::PredictBatch({{0, 0}, {1, 1}, {2, 2}}));
  EXPECT_EQ(response.code, StatusCode::kOk);
  ASSERT_EQ(response.predictions.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(response.predictions[i].user, i);
    EXPECT_EQ(response.predictions[i].item, i);
    EXPECT_TRUE(std::isfinite(response.predictions[i].value));
  }
}

TEST_F(ServeTest, TopNServesRankedItemsWhenHealthy) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(Request::TopN(0, 5));
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_TRUE(response.predictions.empty());
  ASSERT_LE(response.ranked.size(), 5u);
  ASSERT_GE(response.ranked.size(), 1u);
  for (std::size_t i = 1; i < response.ranked.size(); ++i) {
    EXPECT_LE(response.ranked[i].score, response.ranked[i - 1].score);
  }
}

TEST_F(ServeTest, TopNLatencyLandsInItsOwnHistogram) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  auto& registry = obs::MetricsRegistry::Global();
  const char* const kHistograms[] = {
      obs::names::kServeLatencyTopN,       obs::names::kServeLatencyFull,
      obs::names::kServeLatencySir,        obs::names::kServeLatencyUserMean,
      obs::names::kServeLatencyGlobalMean, obs::names::kServeLatencyBatch};
  const auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (const char* name : kHistograms) {
      out.push_back(registry.GetHistogram(name, obs::LatencyBucketsUs()).Count());
    }
    return out;
  };
  ServingStack stack(Models(), SmallStack());
  const auto before = counts();
  ASSERT_EQ(stack.ServeSync(Request::TopN(0, 5)).code, StatusCode::kOk);
  const auto after = counts();
  EXPECT_EQ(after[0], before[0] + 1) << kHistograms[0];
  for (std::size_t i = 1; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << kHistograms[i];
  }
}

TEST_F(ServeTest, TopNPassesTheFullFusionFailpoint) {
  ServingStack stack(Models(), SmallStack());
  ScopedFailPoint guard("cfsf.predict", "always");
  const auto trips_before = FailPointRegistry::Global().TripCount("cfsf.predict");
  const Response response = stack.ServeSync(Request::TopN(0, 5));
  EXPECT_EQ(response.code, StatusCode::kInternal);
  EXPECT_GT(FailPointRegistry::Global().TripCount("cfsf.predict"), trips_before);
}

TEST_F(ServeTest, TopNForUnknownUserIsNotFound) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(Request::TopN(1000000, 5));
  EXPECT_EQ(response.code, StatusCode::kNotFound);
}

TEST_F(ServeTest, AdmissionFailpointShedsInsteadOfThrowing) {
  ServingStack stack(Models(), SmallStack());
  ScopedFailPoint guard("serve.admit", "always");
  const Response response = stack.ServeSync(Request::Predict(0, 0));
  EXPECT_EQ(response.code, StatusCode::kShed);
}

// A full-tier batch big enough to stay in flight while a test probes
// the stack from another thread.
constexpr std::size_t kHolderBatch = 200000;

Request HolderBatch() {
  return Request::PredictBatch(
      std::vector<std::pair<matrix::UserId, matrix::ItemId>>(kHolderBatch,
                                                             {0, 0}));
}

/// Spins until `stack` reports `depth` requests in flight; false if that
/// takes longer than 30 s.
bool WaitForDepth(const ServingStack& stack, std::size_t depth) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stack.QueueDepth() != depth) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Holds `holders` in-flight slots with concurrent ServeSync callers,
/// each running a holder batch admitted below the watermark, and calls
/// `probe` once all of them are in flight.  Every holder must be
/// answered in full at full fusion.
void WithHolders(ServingStack& stack, std::size_t holders,
                 const std::function<void()>& probe) {
  std::vector<Response> held(holders);
  std::vector<std::thread> threads;
  threads.reserve(holders);
  for (std::size_t h = 0; h < holders; ++h) {
    threads.emplace_back(
        [&stack, &held, h] { held[h] = stack.ServeSync(HolderBatch()); });
  }
  if (WaitForDepth(stack, holders)) {
    probe();
  } else {
    ADD_FAILURE() << "holders never reached depth " << holders;
  }
  for (auto& thread : threads) thread.join();
  for (const Response& response : held) {
    EXPECT_EQ(response.code, StatusCode::kOk);
    EXPECT_EQ(response.tier, 0u);
    EXPECT_EQ(response.predictions.size(), kHolderBatch);
  }
}

TEST_F(ServeTest, WatermarkDegradesThenCapacitySheds) {
  // Three holders put the stack at the watermark: each probe is admitted
  // (depth 3 < capacity 4) but degraded to the watermark tier.
  ServingOptions options;
  options.queue_capacity = 4;
  options.degrade_watermark = 3;
  options.watermark_level = 2;
  options.breaker = FastBreaker();
  ServingStack degrading(Models(), options);
  WithHolders(degrading, 3, [&] {
    for (matrix::UserId user = 2; user <= 4; ++user) {
      const Response r = degrading.ServeSync(Request::Predict(user, user));
      EXPECT_EQ(r.code, StatusCode::kOk);
      EXPECT_GE(r.tier, 2u);
      ASSERT_EQ(r.predictions.size(), 1u);
      EXPECT_GE(r.predictions[0].rung, PredictionRung::kUserMean);
    }
  });
  EXPECT_LE(degrading.MaxDepthSeen(), options.queue_capacity);

  // Three holders fill a stack of capacity 3: the probe is shed.
  options.queue_capacity = 3;
  ServingStack full(Models(), options);
  WithHolders(full, 3, [&] {
    EXPECT_EQ(full.ServeSync(Request::Predict(5, 5)).code, StatusCode::kShed);
  });
  EXPECT_LE(full.MaxDepthSeen(), options.queue_capacity);
}

TEST_F(ServeTest, WatermarkRejectPolicyRefuses) {
  ServingOptions options;
  options.queue_capacity = 4;
  options.degrade_watermark = 1;
  options.watermark_policy = serve::WatermarkPolicy::kReject;
  options.breaker = FastBreaker();
  ServingStack stack(Models(), options);
  WithHolders(stack, 1, [&] {
    EXPECT_EQ(stack.ServeSync(Request::Predict(1, 1)).code,
              StatusCode::kRejected);
  });
}

TEST_F(ServeTest, DrainWaitsForInFlightCallersThenSheds) {
  ServingStack stack(Models(), SmallStack());
  auto& batches = obs::MetricsRegistry::Global().GetHistogram(
      obs::names::kServeLatencyBatch, obs::LatencyBucketsUs());
  const std::uint64_t batches_before = batches.Count();
  Response held;
  std::thread holder([&] { held = stack.ServeSync(HolderBatch()); });
  ASSERT_TRUE(WaitForDepth(stack, 1));
  // The holder's batch latency is recorded before its slot is released,
  // so a Drain() that waited sees it; one that returned early does not.
  std::uint64_t batches_at_drain = 0;
  std::thread drainer([&] {
    stack.Drain();
    batches_at_drain = batches.Count();
  });
  drainer.join();
  holder.join();
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(batches_at_drain, batches_before + 1);
  }
  EXPECT_EQ(held.code, StatusCode::kOk);
  EXPECT_EQ(held.predictions.size(), kHolderBatch);
  EXPECT_EQ(stack.QueueDepth(), 0u);
  // Drained stacks shed.
  EXPECT_EQ(stack.ServeSync(Request::Predict(0, 0)).code, StatusCode::kShed);
}

TEST_F(ServeTest, WorkerFaultYieldsErrorResultAndStackSurvives) {
  ServingStack stack(Models(), SmallStack());
  {
    ScopedFailPoint guard("serve.worker", "always");
    const Response response = stack.ServeSync(Request::Predict(0, 0));
    EXPECT_EQ(response.code, StatusCode::kInternal);
    EXPECT_FALSE(response.message.empty());
  }
  EXPECT_EQ(stack.ServeSync(Request::Predict(0, 0)).code, StatusCode::kOk);
  EXPECT_EQ(stack.QueueDepth(), 0u);
}

// Full fusion faults on every request until the breaker steps the stack
// down to the SIR′ tier: planned-rung misses score bad.
void TripBreaker(ServingStack& stack) {
  ScopedFailPoint guard("cfsf.predict", "always");
  for (int i = 0; i < 16 && stack.breaker().level() == 0; ++i) {
    stack.ServeSync(Request::Predict(0, 0));
  }
  EXPECT_GE(stack.breaker().trips(), 1u);
  EXPECT_EQ(stack.breaker().level(), 1u);
}

TEST_F(ServeTest, BreakerTripsAndRefusesRankingThroughTheStack) {
  // A one-hour cooldown keeps the breaker open for the whole test, so the
  // refusal below cannot race a half-open probe.
  ServingOptions options = SmallStack();
  options.breaker.cooldown = std::chrono::hours(1);
  ServingStack stack(Models(), options);
  TripBreaker(stack);
  // A degraded stack cannot rank: top-N refuses with kBreakerOpen
  // (and the refusal must not itself count as a bad outcome).
  const Response refused = stack.ServeSync(Request::TopN(0, 5));
  EXPECT_EQ(refused.code, StatusCode::kBreakerOpen);
  EXPECT_EQ(stack.breaker().level(), 1u);
}

TEST_F(ServeTest, BreakerTripsAndRecoversThroughTheStack) {
  ServingOptions options = SmallStack();
  ServingStack stack(Models(), options);
  TripBreaker(stack);
  // Fault cleared: half-open probes climb back to full fusion.
  for (int i = 0; i < 5000 && stack.breaker().level() != 0; ++i) {
    stack.ServeSync(Request::Predict(0, 0));
    if (i % 100 == 99) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(stack.breaker().level(), 0u);
  EXPECT_EQ(stack.breaker().state(), BreakerState::kClosed);
  EXPECT_GE(stack.breaker().recoveries(), 1u);
  // Back at full fusion, rankings serve again.
  EXPECT_EQ(stack.ServeSync(Request::TopN(0, 5)).code, StatusCode::kOk);
}

// ------------------------------------------------ durable ingestion ----

std::string FreshWalDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST_F(ServeTest, RateWithoutALogIsUnavailableAndRetryable) {
  ServingStack stack(Models(), SmallStack());
  const Response response = stack.ServeSync(Request::Rate(0, 0, 4.0F));
  EXPECT_EQ(response.code, StatusCode::kUnavailable);
  EXPECT_TRUE(serve::IsRetryable(response.code));
  EXPECT_NE(response.message.find("read-only"), std::string::npos);
}

TEST_F(ServeTest, RateValidatesTheRatingRangeBeforeTheLog) {
  ServingStack stack(Models(), SmallStack());
  EXPECT_EQ(stack.ServeSync(Request::Rate(0, 0, 9.0F)).code,
            StatusCode::kMalformed);
  EXPECT_EQ(stack.ServeSync(Request::Rate(0, 0, 0.0F)).code,
            StatusCode::kMalformed);
}

TEST_F(ServeTest, RateAcksDurablyWithTheLogsLsn) {
  const std::string dir = FreshWalDir("cfsf_serve_rate_ack");
  wal::WriteAheadLog log(dir);
  ServingOptions options = SmallStack();
  options.rating_log = &log;
  ServingStack stack(Models(), options);

  const Response first = stack.ServeSync(Request::Rate(3, 7, 5.0F, 123));
  ASSERT_EQ(first.code, StatusCode::kOk);
  EXPECT_EQ(first.lsn, 1u);
  const Response second = stack.ServeSync(Request::Rate(4, 8, 2.0F));
  EXPECT_EQ(second.lsn, 2u);
  EXPECT_EQ(log.durable_lsn(), 2u);  // acked => already fsynced

  log.Close();
  const wal::ReplayResult replay = wal::ReplayLog(dir);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].record,
            (matrix::RatingTriple{3, 7, 5.0F, 123}));
  EXPECT_EQ(replay.records[1].record, (matrix::RatingTriple{4, 8, 2.0F, 0}));
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, RateWithAnExpiredDeadlineRefusesBeforeTheLog) {
  const std::string dir = FreshWalDir("cfsf_serve_rate_deadline");
  wal::WriteAheadLog log(dir);
  ServingOptions options = SmallStack();
  options.rating_log = &log;
  ServingStack stack(Models(), options);
  const Response response = stack.ServeSync(
      Request::Rate(0, 0, 3.0F, 0,
                    robust::Deadline::After(std::chrono::microseconds(0))));
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(log.next_lsn(), 1u);  // nothing was appended
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, FsyncFaultDegradesWritesToReadOnlyServing) {
  const std::string dir = FreshWalDir("cfsf_serve_rate_fsync_fault");
  wal::WriteAheadLog log(dir);
  ServingOptions options = SmallStack();
  options.rating_log = &log;
  ServingStack stack(Models(), options);
  ASSERT_EQ(stack.ServeSync(Request::Rate(1, 1, 4.0F)).code, StatusCode::kOk);
  {
    ScopedFailPoint fp("wal.fsync", "once");
    EXPECT_EQ(stack.ServeSync(Request::Rate(1, 2, 4.0F)).code,
              StatusCode::kUnavailable);
  }
  // The log fail-stopped: writes keep refusing, reads keep serving.
  EXPECT_FALSE(log.available());
  EXPECT_EQ(stack.ServeSync(Request::Rate(1, 3, 4.0F)).code,
            StatusCode::kUnavailable);
  EXPECT_EQ(stack.ServeSync(Request::Predict(0, 0)).code, StatusCode::kOk);
  // Rate refusals never score the breaker: still closed at full fusion.
  EXPECT_EQ(stack.breaker().state(), BreakerState::kClosed);
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, DeltaFolderFoldsAckedRatingsIntoANewGeneration) {
  const std::string dir = FreshWalDir("cfsf_serve_delta_fold");
  wal::WriteAheadLog log(dir);
  ModelGeneration models;
  serve::DeltaFolder folder(log, models, FreshModel());
  EXPECT_EQ(folder.PublishNow(), 1u);

  ServingOptions options = SmallStack();
  options.rating_log = &log;
  ServingStack stack(models, options);
  ASSERT_EQ(stack.ServeSync(Request::Rate(2, 5, 5.0F)).code, StatusCode::kOk);
  // One in-range record folds and publishes; an out-of-range user is
  // durable but skipped (a fold never enrols; CfsfModel::WithNewUser does).
  ASSERT_EQ(stack.ServeSync(Request::Rate(100000, 5, 5.0F)).code,
            StatusCode::kOk);
  EXPECT_EQ(folder.FoldOnce(), 2u);
  EXPECT_EQ(folder.folded_records(), 1u);
  EXPECT_EQ(folder.skipped_records(), 1u);
  EXPECT_EQ(models.ActiveGeneration(), 2u);
  // The fold is visible: the folded pair now predicts near its rating.
  const Response predict = stack.ServeSync(Request::Predict(2, 5));
  ASSERT_EQ(predict.code, StatusCode::kOk);
  EXPECT_TRUE(std::isfinite(predict.predictions[0].value));
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, DeltaFolderTimesEachPublishingFold) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  const std::string dir = FreshWalDir("cfsf_serve_delta_fold_latency");
  wal::WriteAheadLog log(dir);
  ModelGeneration models;
  serve::DeltaFolder folder(log, models, FreshModel());
  const obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      obs::names::kWalFoldLatencyUs, obs::LatencyBucketsUs());
  const std::uint64_t before = latency.Count();

  // An empty drain folds nothing and records nothing.
  EXPECT_EQ(folder.FoldOnce(), 0u);
  EXPECT_EQ(latency.Count(), before);
  // One sample per publishing fold, whatever the batch size.
  log.Append(matrix::RatingTriple{1, 2, 4.0F, 0}, /*require_durable=*/true);
  EXPECT_EQ(folder.FoldOnce(), 1u);
  EXPECT_EQ(latency.Count(), before + 1);
  log.Append(matrix::RatingTriple{3, 4, 2.0F, 0}, /*require_durable=*/true);
  log.Append(matrix::RatingTriple{5, 6, 5.0F, 0}, /*require_durable=*/true);
  EXPECT_EQ(folder.FoldOnce(), 2u);
  EXPECT_EQ(latency.Count(), before + 2);
  // A drain of only unfoldable records publishes nothing, so no sample.
  log.Append(matrix::RatingTriple{100000, 2, 4.0F, 0}, /*require_durable=*/true);
  EXPECT_EQ(folder.FoldOnce(), 1u);
  EXPECT_EQ(latency.Count(), before + 2);
  EXPECT_EQ(folder.publishes(), 2u);
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, DeltaFolderSamplesStalenessOncePerFoldedRecord) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  const std::string dir = FreshWalDir("cfsf_serve_delta_staleness");
  wal::WriteAheadLog log(dir);
  ModelGeneration models;
  serve::DeltaFolder folder(log, models, FreshModel());
  const obs::Histogram& staleness =
      obs::MetricsRegistry::Global().GetHistogram(obs::names::kWalStalenessUs,
                                                  obs::LatencyBucketsUs());
  const std::uint64_t before = staleness.Count();

  // Two in-range records and one out of range: the skipped record never
  // becomes visible, so it gets no sample.
  log.Append(matrix::RatingTriple{1, 2, 4.0F, 0}, /*require_durable=*/true);
  log.Append(matrix::RatingTriple{100000, 2, 4.0F, 0}, /*require_durable=*/true);
  log.Append(matrix::RatingTriple{3, 4, 2.0F, 0}, /*require_durable=*/true);
  EXPECT_EQ(folder.FoldOnce(), 3u);
  EXPECT_EQ(staleness.Count(), before + 2);

  // A failed fold makes nothing visible; its retry samples each record
  // once.
  log.Append(matrix::RatingTriple{5, 6, 5.0F, 0}, /*require_durable=*/true);
  log.Append(matrix::RatingTriple{7, 8, 3.0F, 0}, /*require_durable=*/true);
  {
    ScopedFailPoint fp("serve.fold", "once");
    EXPECT_THROW(folder.FoldOnce(), obs::InjectedFault);
  }
  EXPECT_EQ(staleness.Count(), before + 2);
  EXPECT_EQ(folder.FoldOnce(), 2u);
  EXPECT_EQ(staleness.Count(), before + 4);
  EXPECT_EQ(folder.FoldOnce(), 0u);
  EXPECT_EQ(staleness.Count(), before + 4);
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, DeltaFolderBackgroundThreadPublishesWithoutPrompting) {
  const std::string dir = FreshWalDir("cfsf_serve_delta_bg");
  wal::WriteAheadLog log(dir);
  ModelGeneration models;
  serve::DeltaFolder folder(log, models, FreshModel());
  folder.PublishNow();
  folder.Start();
  log.Append(matrix::RatingTriple{1, 2, 4.0F, 0}, /*require_durable=*/true);
  for (int i = 0; i < 2000 && folder.folded_records() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  folder.Stop();
  EXPECT_EQ(folder.folded_records(), 1u);
  EXPECT_GE(models.ActiveGeneration(), 2u);
  std::filesystem::remove_all(dir);
}

// The failed batch is already drained when the fold throws, so no ack
// is left to wake the loop: it must retry on its own.
TEST_F(ServeTest, DeltaFolderBackgroundThreadRetriesAFailedFoldWithoutAnAck) {
  const std::string dir = FreshWalDir("cfsf_serve_delta_bg_retry");
  wal::WriteAheadLog log(dir);
  ModelGeneration models;
  serve::DeltaFolder folder(log, models, FreshModel());
  folder.PublishNow();
  const obs::Counter& failures = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kWalFoldFailures);
  const std::uint64_t failures_before = failures.Value();
  ScopedFailPoint fp("serve.fold", "once");
  folder.Start();
  log.Append(matrix::RatingTriple{1, 2, 4.0F, 0}, /*require_durable=*/true);
  for (int i = 0; i < 2000 && folder.folded_records() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  folder.Stop();
  EXPECT_EQ(folder.folded_records(), 1u);
  EXPECT_EQ(folder.fold_watermark(), 1u);
  EXPECT_EQ(log.next_lsn(), 2u) << "something else was appended";
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(failures.Value(), failures_before + 1);
  }
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- hot swap ----

// The publish a DeltaFolder performs: the active model folded with a
// small batch of ratings, installed as the next generation.
const std::vector<matrix::RatingTriple> kFoldBatch = {
    {0, 0, 5.0F, 0}, {1, 1, 4.0F, 0}, {2, 2, 3.0F, 0}};

TEST_F(ServeTest, HotSwapReplacesGenerationMidTraffic) {
  ModelGeneration models;
  const std::uint64_t gen1 = models.Install(FreshModel());

  ServingStack stack(models, SmallStack());
  const auto pinned = models.Active();  // an in-flight request's view
  const std::uint64_t gen2 =
      models.Install(pinned->model().WithRatings(kFoldBatch));
  EXPECT_GT(gen2, gen1);
  EXPECT_EQ(models.ActiveGeneration(), gen2);
  // The pinned generation is still fully usable until released.
  EXPECT_EQ(pinned->generation(), gen1);
  EXPECT_NO_THROW(pinned->ladder().Predict(0, 0));
  const Response response = stack.ServeSync(Request::Predict(0, 0));
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.generation, gen2);
}

// ------------------------------------------------------- chaos soak ----

TEST_F(ServeTest, ChaosSoakSurvivesRandomizedFailpointSchedules) {
  ModelGeneration models;
  models.Install(FreshModel());

  ServingOptions options;
  options.queue_capacity = 64;
  options.degrade_watermark = 48;
  options.breaker = FastBreaker();
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  ServingStack stack(models, options);

  serve::SoakOptions soak;
  soak.num_clients = 8;
  soak.requests_per_client = 60;
  soak.request_budget = std::chrono::microseconds(500);
  soak.seed = 0xC405C0DE;
  // A slice of ranking traffic exercises the kBreakerOpen refusal path
  // under chaos (rankings cannot be served degraded).
  soak.topn_fraction = 0.1;
  soak.topn_n = 5;
  soak.chaos = {
      {"cfsf.predict", 0.5},
      {"serve.worker", 0.05},
      {"serve.admit", 0.02},
  };
  soak.mid_traffic = [&] {
    models.Install(models.Active()->model().WithRatings(kFoldBatch));
  };

  const serve::SoakReport report = serve::RunSoak(stack, soak);
  SCOPED_TRACE(report.Summary());

  const auto failures = report.InvariantFailures(options.queue_capacity);
  for (const std::string& failure : failures) ADD_FAILURE() << failure;
  EXPECT_EQ(report.issued, 3u * 8u * 60u);
  EXPECT_GT(report.ok, 0u);
  EXPECT_GE(report.breaker_trips, 1u)
      << "the chaos phase must trip the breaker at least once";
  EXPECT_TRUE(report.mid_traffic_ran);
  EXPECT_FALSE(report.mid_traffic_failed);
  // The publish ran while recovery-phase clients were in flight; whether
  // any of them also *observed* the new generation is timing-dependent,
  // but the stack must serve from it now with nothing broken.
  EXPECT_GE(report.generations_seen, 1u);
  EXPECT_EQ(models.ActiveGeneration(), 2u);
  EXPECT_EQ(stack.ServeSync(Request::Predict(0, 0)).generation, 2u);

  // And the stack must climb all the way back: keep serving calm traffic
  // until the breaker closes at full fusion.
  for (int i = 0; i < 20000 && stack.breaker().level() != 0; ++i) {
    stack.ServeSync(Request::Predict(0, 0));
    if (i % 200 == 199) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(stack.breaker().level(), 0u);
  EXPECT_GE(stack.breaker().recoveries(), 1u);
  EXPECT_LE(stack.MaxDepthSeen(), options.queue_capacity);
}

TEST(SoakReportTest, InvariantFailuresCatchBrokenRuns) {
  serve::SoakReport report;
  report.issued = 10;
  report.ok = 4;
  report.shed = 1;
  report.rejected = 1;
  report.errors = 3;  // tallies short by one
  report.max_depth_seen = 9;
  report.all_finite = false;
  const auto failures = report.InvariantFailures(/*queue_capacity=*/8);
  EXPECT_EQ(failures.size(), 3u);  // depth bound, NaN, tally mismatch
  serve::SoakReport healthy;
  healthy.issued = 4;
  healthy.ok = 4;
  healthy.max_depth_seen = 2;
  EXPECT_TRUE(healthy.InvariantFailures(8).empty());
}

}  // namespace
}  // namespace cfsf
