// Micro-benchmarks (google-benchmark) for the hot kernels: pairwise
// similarities, GIS construction, K-means steps, smoothing, user
// selection and single online predictions.
#include <benchmark/benchmark.h>

#include <vector>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "similarity/item_similarity.hpp"
#include "similarity/kernels.hpp"
#include "similarity/user_similarity.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace cfsf;

const matrix::RatingMatrix& World() {
  static const matrix::RatingMatrix m = [] {
    util::SetLogLevel(util::LogLevel::kWarn);
    data::SyntheticConfig config;  // the full 500x1000 paper-scale matrix
    return data::GenerateSynthetic(config);
  }();
  return m;
}

void BM_PearsonSparseUsers(benchmark::State& state) {
  const auto& m = World();
  matrix::UserId a = 0;
  matrix::UserId b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::PearsonSparse(
        m.UserRow(a), m.UserRow(b), m.UserMean(a), m.UserMean(b)));
    b = static_cast<matrix::UserId>((b + 1) % m.num_users());
    if (b == a) b = static_cast<matrix::UserId>(b + 1);
  }
}
BENCHMARK(BM_PearsonSparseUsers);

void BM_PearsonSparseItems(benchmark::State& state) {
  const auto& m = World();
  matrix::ItemId a = 0;
  matrix::ItemId b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::PearsonSparse(
        m.ItemCol(a), m.ItemCol(b), m.ItemMean(a), m.ItemMean(b)));
    b = static_cast<matrix::ItemId>((b + 1) % m.num_items());
    if (b == a) b = static_cast<matrix::ItemId>(b + 1);
  }
}
BENCHMARK(BM_PearsonSparseItems);

void BM_GisBuild(benchmark::State& state) {
  const auto& m = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::GlobalItemSimilarity::Build(m));
  }
}
BENCHMARK(BM_GisBuild)->Unit(benchmark::kMillisecond);

void BM_GisRefreshOneItem(benchmark::State& state) {
  const auto& m = World();
  auto gis = sim::GlobalItemSimilarity::Build(m);
  const matrix::ItemId touched[] = {42};
  for (auto _ : state) {
    gis.RefreshItems(m, touched);
  }
}
BENCHMARK(BM_GisRefreshOneItem)->Unit(benchmark::kMillisecond);

void BM_UserSimilarityBuild(benchmark::State& state) {
  const auto& m = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::UserSimilarityMatrix::Build(m));
  }
}
BENCHMARK(BM_UserSimilarityBuild)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto& m = World();
  cluster::KMeansConfig config;
  config.num_clusters = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::RunKMeans(m, config));
  }
}
BENCHMARK(BM_KMeans)->Arg(10)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_SmoothingBuild(benchmark::State& state) {
  const auto& m = World();
  cluster::KMeansConfig config;
  config.num_clusters = 30;
  const auto kmeans = cluster::RunKMeans(m, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::ClusterModel::Build(m, kmeans.assignments, 30));
  }
}
BENCHMARK(BM_SmoothingBuild)->Unit(benchmark::kMillisecond);

const core::CfsfModel& FittedModel() {
  static const core::CfsfModel& model = []() -> const core::CfsfModel& {
    static core::CfsfModel m;
    m.Fit(World());
    return m;
  }();
  return model;
}

void BM_SelectTopKUsers(benchmark::State& state) {
  const auto& model = FittedModel();
  matrix::UserId user = 0;
  for (auto _ : state) {
    model.ClearCache();
    benchmark::DoNotOptimize(model.SelectTopKUsers(user));
    user = static_cast<matrix::UserId>((user + 1) % model.train().num_users());
  }
}
BENCHMARK(BM_SelectTopKUsers);

void BM_PredictColdCache(benchmark::State& state) {
  const auto& model = FittedModel();
  matrix::UserId user = 0;
  for (auto _ : state) {
    model.ClearCache();
    benchmark::DoNotOptimize(model.Predict(user, 13));
    user = static_cast<matrix::UserId>((user + 1) % model.train().num_users());
  }
}
BENCHMARK(BM_PredictColdCache);

void BM_PredictWarmCache(benchmark::State& state) {
  const auto& model = FittedModel();
  model.Predict(7, 13);  // warm the cache for user 7
  matrix::ItemId item = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(7, item));
    item = static_cast<matrix::ItemId>((item + 1) % model.train().num_items());
  }
}
BENCHMARK(BM_PredictWarmCache);

// One top-n per iteration, rotating over users with every top-K entry
// warm.  n = 1000 exceeds every user's candidate count, so nothing can be
// pruned: it guards the cost of bounding and sorting when all candidates
// are fused anyway.
void BM_RecommendTopN(benchmark::State& state) {
  const auto& model = FittedModel();
  const std::size_t num_users = model.train().num_users();
  for (std::size_t u = 0; u < num_users; ++u) {
    model.SelectTopKUsers(static_cast<matrix::UserId>(u));
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  matrix::UserId user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RecommendTopN(user, n));
    user = static_cast<matrix::UserId>((user + 1) % num_users);
  }
}
BENCHMARK(BM_RecommendTopN)->Arg(10)->Arg(1000)->Unit(benchmark::kMicrosecond);

// One CfsfModel::WithRatings fold per iteration, of a batch of
// state.range(0) ratings shaped like the serving benchmark's ingest
// traffic: users and items uniform, 90 % to cells the user has not rated,
// the rest re-rating a cell they have.  Sixteen batches rotate.
void BM_FoldRatings(benchmark::State& state) {
  const auto& model = FittedModel();
  const auto& train = model.train();
  const auto size = static_cast<std::size_t>(state.range(0));
  util::Rng rng(20091015);
  std::vector<std::vector<matrix::RatingTriple>> batches(16);
  for (auto& batch : batches) {
    for (std::size_t k = 0; k < size; ++k) {
      matrix::RatingTriple t;
      t.user = static_cast<matrix::UserId>(rng.NextBounded(train.num_users()));
      const auto row = train.UserRow(t.user);
      if (rng.NextDouble() >= 0.9 && !row.empty()) {
        t.item = row[rng.NextBounded(row.size())].index;
      } else {
        do {
          t.item = static_cast<matrix::ItemId>(rng.NextBounded(train.num_items()));
        } while (train.HasRating(t.user, t.item));
      }
      t.value = static_cast<matrix::Rating>(1 + rng.NextBounded(5));
      batch.push_back(t);
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.WithRatings(batches[next]));
    next = (next + 1) % batches.size();
  }
}
BENCHMARK(BM_FoldRatings)->Arg(1)->Arg(125)->Unit(benchmark::kMillisecond);

void BM_OfflinePhase(benchmark::State& state) {
  const auto& m = World();
  for (auto _ : state) {
    core::CfsfModel model;
    model.Fit(m);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_OfflinePhase)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
