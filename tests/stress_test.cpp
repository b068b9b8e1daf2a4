// Stress tests (ctest label: stress) — concurrency hammers designed to
// give the sanitizer presets, TSan in particular, real contention to
// bite on: ThreadPool Submit/Wait cycles under concurrent producers,
// parallel_for static/dynamic chunking, and concurrent online-phase
// prediction against one shared CfsfModel, and caller-thread serving
// through one ServingStack.
//
// The tests are sized to finish in seconds uninstrumented and tens of
// seconds under TSan; they assert full effect counts so a lost task,
// double-claimed chunk or dropped wakeup fails loudly even without a
// sanitizer attached.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/cfsf_model.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "obs/failpoint.hpp"
#include "robust/fallback.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "util/error.hpp"
#include "wal/log.hpp"

namespace cfsf {
namespace {

TEST(ThreadPoolStress, ConcurrentSubmitters) {
  par::ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 500;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStress, SubmitWaitChurn) {
  par::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    ASSERT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolStress, ExceptionStormLeavesPoolUsable) {
  par::ThreadPool pool(4);
  std::atomic<int> completed{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      if (i % 3 == 0) {
        pool.Submit([] { throw util::ConfigError("storm"); });
      } else {
        pool.Submit([&completed] { completed.fetch_add(1); });
      }
    }
    EXPECT_THROW(pool.Wait(), util::ConfigError);
  }
  // Every non-throwing task still ran, and the pool is reusable after
  // the last rethrow cleared the stored exception.
  EXPECT_EQ(completed.load(), 50 * 6);
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(completed.load(), 50 * 6 + 1);
}

TEST(ThreadPoolStress, ConstructionDestructionChurn) {
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    par::ThreadPool pool(2);
    for (int i = 0; i < 25; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must drain the queue without losing or
    // double-running tasks.
  }
  EXPECT_EQ(counter.load(), 50 * 25);
}

TEST(ParallelForStress, StaticChunkingVisitsEachIndexOnce) {
  par::ThreadPool pool(4);
  par::ForOptions options;
  options.pool = &pool;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> visits(10007);
    par::ParallelFor(
        0, visits.size(), [&](std::size_t i) { visits[i].fetch_add(1); },
        options);
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
  }
}

TEST(ParallelForStress, DynamicChunkingVisitsEachIndexOnce) {
  par::ThreadPool pool(4);
  par::ForOptions options;
  options.pool = &pool;
  options.schedule = par::Schedule::kDynamic;
  options.grain = 7;  // tiny grain: maximum cursor contention
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> visits(4999);
    par::ParallelFor(
        0, visits.size(), [&](std::size_t i) { visits[i].fetch_add(1); },
        options);
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
  }
}

TEST(ParallelForStress, ConcurrentLoopsOnTheSharedPool) {
  // Two threads each drive their own parallel_for on the *shared* pool —
  // the overlap every offline phase step creates when benches run
  // back-to-back model builds.
  std::atomic<long> sum_a{0};
  std::atomic<long> sum_b{0};
  std::thread a([&sum_a] {
    for (int r = 0; r < 10; ++r) {
      par::ParallelFor(0, 2000, [&sum_a](std::size_t i) {
        sum_a.fetch_add(static_cast<long>(i));
      });
    }
  });
  std::thread b([&sum_b] {
    for (int r = 0; r < 10; ++r) {
      par::ParallelFor(0, 2000, [&sum_b](std::size_t i) {
        sum_b.fetch_add(static_cast<long>(i));
      });
    }
  });
  a.join();
  b.join();
  const long expected = 10L * (2000L * 1999L / 2);
  EXPECT_EQ(sum_a.load(), expected);
  EXPECT_EQ(sum_b.load(), expected);
}

TEST(ParallelForStress, ReduceMatchesSerialUnderContention) {
  par::ThreadPool pool(4);
  par::ForOptions options;
  options.pool = &pool;
  for (int round = 0; round < 10; ++round) {
    const double parallel = par::ParallelReduce<double>(
        0, 20000, [] { return 0.0; },
        [](double& acc, std::size_t i) { acc += 1.0 / (1.0 + i); },
        [](double& total, double& partial) { total += partial; }, 0.0,
        options);
    par::ForOptions serial;
    serial.serial = true;
    const double reference = par::ParallelReduce<double>(
        0, 20000, [] { return 0.0; },
        [](double& acc, std::size_t i) { acc += 1.0 / (1.0 + i); },
        [](double& total, double& partial) { total += partial; }, 0.0,
        serial);
    ASSERT_NEAR(parallel, reference, 1e-9);
  }
}

// --- Concurrent online phase against one shared model -------------------

class ModelStress : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig data_config;
    data_config.num_users = 120;
    data_config.num_items = 150;
    data_config.min_ratings_per_user = 15;
    data_config.max_ratings_per_user = 60;
    data_config.log_mean = 3.2;

    core::CfsfConfig config;
    config.num_clusters = 8;
    config.top_m_items = 25;
    config.top_k_users = 10;
    config.use_cache = true;
    model_ = std::make_unique<core::CfsfModel>(config);
    model_->Fit(data::GenerateSynthetic(data_config));
  }
  static void TearDownTestSuite() { model_.reset(); }

  static std::unique_ptr<core::CfsfModel> model_;
};

std::unique_ptr<core::CfsfModel> ModelStress::model_;

TEST_F(ModelStress, ConcurrentPredictionsShareTheCache) {
  constexpr int kThreads = 4;
  std::atomic<int> non_finite{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // All threads sweep the same users so the per-user top-K cache sees
    // concurrent misses, fills and hits on identical slots.
    threads.emplace_back([&non_finite] {
      for (matrix::UserId u = 0; u < 40; ++u) {
        for (matrix::ItemId i = 0; i < 30; ++i) {
          if (!std::isfinite(model_->Predict(u, i))) non_finite.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(non_finite.load(), 0);
  EXPECT_GT(model_->CacheSize(), 0u);
}

TEST_F(ModelStress, ConcurrentBatchPredictionAndCacheClearing) {
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  for (matrix::UserId u = 0; u < 60; ++u) {
    for (matrix::ItemId i = 0; i < 10; ++i) queries.emplace_back(u, i);
  }
  std::atomic<bool> stop{false};
  // Antagonist thread: keeps invalidating the cache while two batch
  // predictions (each internally parallel on the shared pool) run.
  std::thread antagonist([&stop] {
    while (!stop.load()) {
      model_->ClearCache();
      std::this_thread::yield();
    }
  });
  std::thread batch_a([&queries] {
    for (int r = 0; r < 3; ++r) {
      const auto out = model_->PredictBatch(queries);
      ASSERT_EQ(out.size(), queries.size());
      for (const double v : out) ASSERT_TRUE(std::isfinite(v));
    }
  });
  std::thread batch_b([&queries] {
    for (int r = 0; r < 3; ++r) {
      const auto out = model_->PredictBatch(queries);
      ASSERT_EQ(out.size(), queries.size());
      for (const double v : out) ASSERT_TRUE(std::isfinite(v));
    }
  });
  batch_a.join();
  batch_b.join();
  stop.store(true);
  antagonist.join();
}

TEST_F(ModelStress, ConcurrentTopNAndSelection) {
  // Serial reference rankings, then an empty cache that the threads
  // refill while each one ranks: every concurrent list must equal the
  // serial one exactly.
  constexpr matrix::UserId kUsers = 48;
  std::vector<std::vector<core::CfsfModel::Recommendation>> expected;
  for (matrix::UserId u = 0; u < kUsers; ++u) {
    expected.push_back(model_->RecommendTopN(u, 5));
  }
  model_->ClearCache();

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &expected] {
      for (matrix::UserId u = static_cast<matrix::UserId>(t); u < kUsers;
           u += 4) {
        const auto selected = model_->SelectTopKUsers(u);
        ASSERT_LE(selected.size(), model_->config().top_k_users);
        const auto recs = model_->RecommendTopN(u, 5);
        ASSERT_EQ(recs.size(), expected[u].size()) << "user " << u;
        for (std::size_t k = 0; k < recs.size(); ++k) {
          ASSERT_EQ(recs[k].item, expected[u][k].item) << "user " << u;
          ASSERT_EQ(recs[k].score, expected[u][k].score) << "user " << u;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Many threads hammer one shared FallbackPredictor while prob:
// failpoints randomly blow up the full and SIR′ rungs underneath them.
// Every call must still produce a finite in-range value (the ladder is
// total), and the registry's counter updates must stay race-free.
TEST_F(ModelStress, FallbackLadderIsTotalUnderConcurrentFaults) {
  auto& registry = obs::FailPointRegistry::Global();
  registry.DisarmAll();
  registry.SetSeed(1234);
  obs::ScopedFailPoint full("cfsf.predict", "prob:0.3");
  obs::ScopedFailPoint sir("cfsf.predict.sir", "prob:0.3");
  robust::FallbackPredictor ladder(*model_);

  constexpr int kThreads = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ladder, &bad, t] {
      for (int round = 0; round < 20; ++round) {
        for (matrix::UserId u = static_cast<matrix::UserId>(t); u < 60;
             u += kThreads) {
          const double v = ladder.Predict(u, (u + round) % 100);
          if (!std::isfinite(v) || v < 1.0 || v > 5.0) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(registry.TripCount("cfsf.predict"), 0u);
  registry.DisarmAll();
}

// Hammer one shared Counter/Gauge/Histogram from many threads at once.
// Sharded counters and relaxed-atomic histograms must come out exact
// (every increment lands in some shard) and TSan must stay silent.
TEST(MetricsStress, ConcurrentRecordingIsExactAndRaceFree) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("stress.count");
  obs::Gauge& gauge = registry.GetGauge("stress.gauge");
  obs::Histogram& histogram =
      registry.GetHistogram("stress.latency_us", obs::LatencyBucketsUs());

  constexpr int kThreads = 8;
  constexpr int kOpsEach = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge, &histogram, t] {
      for (int i = 0; i < kOpsEach; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        // Spread records across the whole bucket ladder.
        histogram.Record(static_cast<double>((t * kOpsEach + i) % 2000000));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  if constexpr (obs::MetricsEnabled()) {
    constexpr std::uint64_t kTotal =
        static_cast<std::uint64_t>(kThreads) * kOpsEach;
    EXPECT_EQ(counter.Value(), kTotal);
    EXPECT_EQ(gauge.Value(), static_cast<double>(kTotal));
    EXPECT_EQ(histogram.Count(), kTotal);
    std::uint64_t bucket_sum = 0;
    for (const auto c : histogram.BucketCounts()) bucket_sum += c;
    EXPECT_EQ(bucket_sum, kTotal);
  }

  // Snapshotting after writers quiesce must be consistent and valid.
  const std::string snapshot = registry.ToJson();
  EXPECT_NE(snapshot.find("stress.count"), std::string::npos);
}

// Concurrent snapshotting WHILE writers are active: the snapshot is
// weakly consistent by design, but it must not race or crash.
TEST(MetricsStress, SnapshotDuringConcurrentWrites) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("live.count");
  obs::Histogram& histogram =
      registry.GetHistogram("live.size", obs::SizeBuckets());

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&counter, &histogram, &stop] {
      while (!stop.load()) {
        counter.Increment();
        histogram.Record(42.0);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(registry.ToJson().empty());
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
}

// The histogram merge path under full contention: writers re-resolve
// their histogram by name on every record (hammering the mutex-guarded
// registration map, not just the lock-free Record fast path) while
// snapshot threads run ToJson/Percentile/BucketCounts against the live
// registry.  Under the tsan preset this keeps the thread-safety
// annotations' claims honest at runtime; the exact-count accounting
// afterwards proves no update was lost in the merge.
TEST(MetricsStress, HistogramMergeHammer) {
  obs::MetricsRegistry registry;
  constexpr int kWriters = 6;
  constexpr int kSnapshotters = 2;
  constexpr int kOpsEach = 8000;
  constexpr int kHistograms = 5;

  const auto name_of = [](int h) { return "merge.h" + std::to_string(h); };

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, &name_of, t] {
      for (int i = 0; i < kOpsEach; ++i) {
        obs::Histogram& histogram = registry.GetHistogram(
            name_of((t + i) % kHistograms), obs::LatencyBucketsUs());
        histogram.Record(static_cast<double>(i % 500000));
      }
    });
  }
  std::vector<std::thread> snapshotters;
  snapshotters.reserve(kSnapshotters);
  for (int s = 0; s < kSnapshotters; ++s) {
    snapshotters.emplace_back([&registry, &name_of, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_FALSE(registry.ToJson().empty());
        obs::Histogram& histogram =
            registry.GetHistogram(name_of(0), obs::LatencyBucketsUs());
        (void)histogram.Percentile(95.0);
        (void)histogram.BucketCounts();
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& snapshotter : snapshotters) snapshotter.join();

  if constexpr (obs::MetricsEnabled()) {
    std::uint64_t total = 0;
    for (int h = 0; h < kHistograms; ++h) {
      obs::Histogram& histogram =
          registry.GetHistogram(name_of(h), obs::LatencyBucketsUs());
      std::uint64_t bucket_sum = 0;
      for (const auto count : histogram.BucketCounts()) bucket_sum += count;
      EXPECT_EQ(bucket_sum, histogram.Count());
      total += histogram.Count();
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kOpsEach);
  }
}

// ------------------------------------------------------------- wal ----
// The WAL's Append/DrainAcked entry points are the sanctioned
// CFSF_BLOCKING boundary on the rate ack path (lint v4's
// blocking-call-on-hot-path / ack-before-durable contracts).  Hammer
// that boundary from concurrent appenders, each of which runs the fsync
// barrier itself (every Append does), racing a drainer and forced
// segment rotations: TSan gets real contention on the log's one mutex,
// the run completing at all exercises the acyclic lock order, and the
// replay at the end proves every acked record survived.
TEST(WalStress, ConcurrentAppendersSyncerAndDrainerLoseNothing) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "cfsf_wal_stress").string();
  fs::remove_all(dir);

  constexpr int kAppenders = 4;
  constexpr int kRecordsEach = 200;
  constexpr std::size_t kTotal =
      static_cast<std::size_t>(kAppenders) * kRecordsEach;
  wal::WalOptions options;
  options.max_segment_bytes = 16 * 1024;  // force rotations mid-hammer

  std::atomic<std::size_t> drained{0};
  {
    wal::WriteAheadLog log(dir, options);
    std::atomic<bool> stop{false};
    std::vector<std::thread> appenders;
    appenders.reserve(kAppenders);
    for (int a = 0; a < kAppenders; ++a) {
      appenders.emplace_back([&log, a] {
        for (int i = 0; i < kRecordsEach; ++i) {
          matrix::RatingTriple record;
          record.user = static_cast<matrix::UserId>(a);
          record.item = static_cast<matrix::ItemId>(i);
          record.value = 3.0F;
          record.timestamp = static_cast<matrix::Timestamp>(i);
          const wal::AppendAck ack = log.Append(record);
          EXPECT_GE(log.durable_lsn(), ack.lsn);
        }
      });
    }
    std::thread drainer([&log, &stop, &drained] {
      std::vector<wal::AckedRecord> out;
      while (!stop.load(std::memory_order_relaxed)) {
        drained.fetch_add(log.DrainAcked(&out));
      }
    });
    for (auto& appender : appenders) appender.join();
    stop.store(true, std::memory_order_relaxed);
    drainer.join();
    // Whatever the drainer had not picked up yet is still waiting.
    std::vector<wal::AckedRecord> rest;
    drained.fetch_add(log.DrainAcked(&rest));
    EXPECT_EQ(drained.load(), kTotal);
    log.Close();
  }

  std::vector<wal::RecoveredRecord> recovered;
  wal::WriteAheadLog reopened(dir, options, &recovered);
  EXPECT_EQ(recovered.size(), kTotal);
  EXPECT_EQ(reopened.durable_lsn(), kTotal);
  reopened.Close();
  fs::remove_all(dir);
}

// Caller-thread serving: 16 threads call ServeSync directly against a
// stack of capacity 4 and watermark 2, so admission, shedding, degrade
// and the in-flight count all run under real contention.
TEST(ServeStress, InlineCallersStayWithinCapacityAndAreCountedOnce) {
  data::SyntheticConfig data_config;
  data_config.num_users = 60;
  data_config.num_items = 80;
  data_config.min_ratings_per_user = 15;
  data_config.max_ratings_per_user = 30;
  core::CfsfConfig config;
  config.num_clusters = 5;
  config.top_m_items = 15;
  config.top_k_users = 8;
  auto model = std::make_unique<core::CfsfModel>(config);
  model->Fit(data::GenerateSynthetic(data_config));
  serve::ModelGeneration models;
  models.Install(std::move(model));

  serve::ServingOptions options;
  options.queue_capacity = 4;
  options.degrade_watermark = 2;
  serve::ServingStack stack(models, options);

  auto& registry = obs::MetricsRegistry::Global();
  const auto counter = [&registry](const char* name) {
    return registry.GetCounter(name).Value();
  };
  const char* const kOutcomes[] = {
      obs::names::kServeOk, obs::names::kServeShed, obs::names::kServeRejected,
      obs::names::kServeErrors, obs::names::kServeRefused};
  std::vector<std::uint64_t> before;
  for (const char* name : kOutcomes) before.push_back(counter(name));
  const std::uint64_t requests_before = counter(obs::names::kServeRequests);

  constexpr int kThreads = 16;
  constexpr int kRequestsEach = 150;
  constexpr std::size_t kBatch = 8;
  // Per-outcome tallies weighted as the serve.* counters weigh them (a
  // batch of N counts N), indexed like kOutcomes.
  std::array<std::atomic<std::uint64_t>, 5> seen{};
  std::atomic<std::uint64_t> weight_issued{0};
  std::atomic<int> non_finite{0};
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int r = 0; r < kRequestsEach; ++r) {
        const auto user = static_cast<matrix::UserId>((t * 7 + r) % 60);
        const auto item = static_cast<matrix::ItemId>((t * 13 + r) % 80);
        serve::Request request = serve::Request::Predict(user, item);
        std::uint64_t weight = 1;
        if (r % 3 == 1) {
          std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
          for (std::size_t q = 0; q < kBatch; ++q) {
            queries.emplace_back(user, static_cast<matrix::ItemId>(
                                           (item + q) % 80));
          }
          request = serve::Request::PredictBatch(std::move(queries));
          weight = kBatch;
        } else if (r % 3 == 2) {
          request = serve::Request::TopN(user, 5);
        }
        const serve::Response response = stack.ServeSync(request);
        weight_issued.fetch_add(weight);
        std::size_t outcome = 4;  // refused: e.g. a degraded top-n
        switch (response.code) {
          case serve::StatusCode::kOk: outcome = 0; break;
          case serve::StatusCode::kShed: outcome = 1; break;
          case serve::StatusCode::kRejected: outcome = 2; break;
          case serve::StatusCode::kInternal: outcome = 3; break;
          default: break;
        }
        seen[outcome].fetch_add(weight);
        for (const serve::Prediction& p : response.predictions) {
          if (!std::isfinite(p.value)) non_finite.fetch_add(1);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();

  EXPECT_LE(stack.MaxDepthSeen(), options.queue_capacity);
  EXPECT_EQ(stack.QueueDepth(), 0u);
  EXPECT_EQ(non_finite.load(), 0);
  std::uint64_t total = 0;
  for (const auto& tally : seen) total += tally.load();
  EXPECT_EQ(total, weight_issued.load());
  EXPECT_GT(seen[0].load(), 0u);
  if (obs::MetricsEnabled()) {
    // Each request lands in exactly one outcome counter, and in the one
    // its caller saw.
    EXPECT_EQ(counter(obs::names::kServeRequests) - requests_before,
              weight_issued.load());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(counter(kOutcomes[i]) - before[i], seen[i].load())
          << kOutcomes[i];
    }
    EXPECT_EQ(registry.GetGauge(obs::names::kServeQueueDepth).Value(), 0.0);
  }
}

}  // namespace
}  // namespace cfsf
