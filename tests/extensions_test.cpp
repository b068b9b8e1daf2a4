// Tests for the extensions beyond the paper's core evaluation: SlopeOne
// and MF baselines, top-N ranking metrics, model persistence, cold-start
// user registration, and the cosine GIS kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "baselines/means.hpp"
#include "baselines/mf.hpp"
#include "baselines/slope_one.hpp"
#include "core/cfsf.hpp"
#include "core/model_io.hpp"
#include "eval/ranking.hpp"
#include "similarity/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <fstream>
#include <limits>
#include <map>

namespace cfsf {
namespace {

data::EvalSplit SmallSplit(std::size_t given = 8) {
  data::SyntheticConfig config;
  config.num_users = 120;
  config.num_items = 150;
  config.min_ratings_per_user = 20;
  config.log_mean = 3.4;
  const auto base = data::GenerateSynthetic(config);
  data::ProtocolConfig pconfig;
  pconfig.num_train_users = 80;
  pconfig.num_test_users = 40;
  pconfig.given_n = given;
  return data::MakeGivenNSplit(base, pconfig);
}

core::CfsfConfig SmallConfig() {
  core::CfsfConfig config;
  config.num_clusters = 8;
  config.top_m_items = 30;
  config.top_k_users = 10;
  return config;
}

// ------------------------------------------------------------ SlopeOne ----

TEST(SlopeOne, DeviationByHand) {
  //      i0 i1
  // u0    4  2
  // u1    5  1
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 4); b.Add(0, 1, 2);
  b.Add(1, 0, 5); b.Add(1, 1, 1);
  const auto m = b.Build();
  baselines::SlopeOnePredictor s;
  s.Fit(m);
  // dev(i0, i1) = ((4-2)+(5-1))/2 = 3.
  EXPECT_NEAR(s.Deviation(0, 1), 3.0, 1e-6);
  EXPECT_NEAR(s.Deviation(1, 0), -3.0, 1e-6);
  EXPECT_EQ(s.Overlap(0, 1), 2u);
}

TEST(SlopeOne, PredictByHand) {
  matrix::RatingMatrixBuilder b(3, 2);
  b.Add(0, 0, 4); b.Add(0, 1, 2);
  b.Add(1, 0, 5); b.Add(1, 1, 1);
  b.Add(2, 1, 3);  // active user rated only i1
  const auto m = b.Build();
  baselines::SlopeOnePredictor s;
  s.Fit(m);
  // r̂(u2, i0) = dev(i0, i1) + r(u2, i1) = 3 + 3 = 6 (unclamped).
  EXPECT_NEAR(s.Predict(2, 0), 6.0, 1e-6);
}

TEST(SlopeOne, MinOverlapFilters) {
  matrix::RatingMatrixBuilder b(2, 3);
  b.Add(0, 0, 4); b.Add(0, 1, 2);
  b.Add(1, 1, 3); b.Add(1, 2, 5);
  const auto m = b.Build();
  baselines::SlopeOneConfig config;
  config.min_overlap = 2;
  baselines::SlopeOnePredictor s(config);
  s.Fit(m);
  EXPECT_EQ(s.Overlap(0, 1), 0u);  // single co-rater filtered
  // With no usable pair the prediction falls back to the user mean.
  EXPECT_DOUBLE_EQ(s.Predict(1, 0), m.UserMean(1));
}

TEST(SlopeOne, PredictBeforeFitThrows) {
  baselines::SlopeOnePredictor s;
  EXPECT_THROW(s.Predict(0, 0), util::ConfigError);
}

TEST(SlopeOne, BeatsGlobalMean) {
  const auto split = SmallSplit();
  baselines::SlopeOnePredictor s;
  baselines::GlobalMeanPredictor floor;
  EXPECT_LT(eval::Evaluate(s, split).mae, eval::Evaluate(floor, split).mae);
}

// ------------------------------------------------------------------ MF ----

TEST(Mf, RejectsBadConfig) {
  baselines::MfConfig config;
  config.latent_dim = 0;
  EXPECT_THROW(baselines::MfPredictor{config}, util::ConfigError);
  config = baselines::MfConfig{};
  config.learning_rate = 0.0;
  EXPECT_THROW(baselines::MfPredictor{config}, util::ConfigError);
}

TEST(Mf, TrainErrorDecreasesWithEpochs) {
  const auto split = SmallSplit();
  baselines::MfConfig short_run;
  short_run.epochs = 2;
  baselines::MfConfig long_run;
  long_run.epochs = 40;
  baselines::MfPredictor a(short_run);
  a.Fit(split.train);
  baselines::MfPredictor b(long_run);
  b.Fit(split.train);
  EXPECT_LT(b.TrainRmse(), a.TrainRmse());
}

TEST(Mf, DeterministicPerSeed) {
  const auto split = SmallSplit();
  baselines::MfConfig config;
  config.epochs = 5;
  baselines::MfPredictor a(config);
  a.Fit(split.train);
  baselines::MfPredictor b(config);
  b.Fit(split.train);
  EXPECT_DOUBLE_EQ(a.Predict(3, 7), b.Predict(3, 7));
}

TEST(Mf, BeatsGlobalMean) {
  const auto split = SmallSplit();
  baselines::MfPredictor mf;
  baselines::GlobalMeanPredictor floor;
  EXPECT_LT(eval::Evaluate(mf, split).mae, eval::Evaluate(floor, split).mae);
}

TEST(Mf, PredictBeforeFitThrows) {
  baselines::MfPredictor mf;
  EXPECT_THROW(mf.Predict(0, 0), util::ConfigError);
}

// ------------------------------------------------------------- ranking ----

TEST(Ranking, PerfectOracleScoresOne) {
  // A predictor that returns the withheld rating when it exists ranks all
  // relevant items first (given enough list length).
  class Oracle : public eval::Predictor {
   public:
    explicit Oracle(const data::EvalSplit& split) {
      for (const auto& t : split.test) {
        truth_[{t.user, t.item}] = t.actual;
      }
    }
    std::string Name() const override { return "Oracle"; }
    void Fit(const matrix::RatingMatrix&) override {}
    double Predict(matrix::UserId u, matrix::ItemId i) const override {
      const auto it = truth_.find({u, i});
      return it != truth_.end() ? it->second : 0.0;
    }

   private:
    std::map<std::pair<matrix::UserId, matrix::ItemId>, double> truth_;
  };

  const auto split = SmallSplit();
  Oracle oracle(split);
  eval::RankingOptions options;
  options.n = 200;  // longer than any user's relevant set
  options.max_users = 10;
  const auto r = eval::EvaluateTopN(oracle, split, options);
  ASSERT_GT(r.num_users, 0u);
  EXPECT_NEAR(r.recall_at_n, 1.0, 1e-9);
  EXPECT_NEAR(r.ndcg_at_n, 1.0, 1e-9);
  EXPECT_NEAR(r.hit_rate_at_n, 1.0, 1e-9);
}

TEST(Ranking, MetricsBoundedAndConsistent) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  eval::RankingOptions options;
  options.n = 10;
  options.max_users = 15;
  const auto r = eval::EvaluateTopN(model, split, options);
  ASSERT_GT(r.num_users, 0u);
  EXPECT_GE(r.precision_at_n, 0.0);
  EXPECT_LE(r.precision_at_n, 1.0);
  EXPECT_GE(r.recall_at_n, 0.0);
  EXPECT_LE(r.recall_at_n, 1.0);
  EXPECT_GE(r.ndcg_at_n, 0.0);
  EXPECT_LE(r.ndcg_at_n, 1.0 + 1e-9);
  EXPECT_GE(r.hit_rate_at_n, 0.0);
  EXPECT_LE(r.hit_rate_at_n, 1.0);
}

TEST(Ranking, CfsfBeatsRandomScores) {
  class Noise : public eval::Predictor {
   public:
    std::string Name() const override { return "Noise"; }
    void Fit(const matrix::RatingMatrix&) override {}
    double Predict(matrix::UserId u, matrix::ItemId i) const override {
      // Deterministic pseudo-random score, uncorrelated with preferences.
      std::uint64_t s = (static_cast<std::uint64_t>(u) << 32) | i;
      return static_cast<double>(util::SplitMix64(s) % 1000) / 1000.0;
    }
  };
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  Noise noise;
  eval::RankingOptions options;
  options.n = 10;
  options.max_users = 20;
  const auto cfsf = eval::EvaluateTopN(model, split, options);
  const auto rand = eval::EvaluateTopN(noise, split, options);
  EXPECT_GT(cfsf.ndcg_at_n, rand.ndcg_at_n);
}

TEST(Ranking, RejectsZeroN) {
  const auto split = SmallSplit();
  baselines::GlobalMeanPredictor p;
  p.Fit(split.train);
  eval::RankingOptions options;
  options.n = 0;
  EXPECT_THROW(eval::EvaluateTopN(p, split, options), util::ConfigError);
}

// ---------------------------------------------------------- persistence ----

TEST(ModelIo, SaveLoadRoundTripPredictsIdentically) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const std::string path = ::testing::TempDir() + "/cfsf_model_test.bin";
  core::SaveModel(model, path);
  const auto loaded = core::LoadModel(path);
  ASSERT_TRUE(loaded->fitted());
  for (std::size_t k = 0; k < 50 && k < split.test.size(); ++k) {
    EXPECT_DOUBLE_EQ(
        model.Predict(split.test[k].user, split.test[k].item),
        loaded->Predict(split.test[k].user, split.test[k].item))
        << "query " << k;
  }
}

TEST(ModelIo, RoundTripPreservesConfigAndShapes) {
  const auto split = SmallSplit();
  core::CfsfConfig config = SmallConfig();
  config.lambda = 0.65;
  config.epsilon = 0.22;
  config.time_decay = true;
  core::CfsfModel model(config);
  model.Fit(split.train);
  const std::string path = ::testing::TempDir() + "/cfsf_model_cfg.bin";
  core::SaveModel(model, path);
  const auto loaded = core::LoadModel(path);
  EXPECT_DOUBLE_EQ(loaded->config().lambda, 0.65);
  EXPECT_DOUBLE_EQ(loaded->config().epsilon, 0.22);
  EXPECT_TRUE(loaded->config().time_decay);
  EXPECT_EQ(loaded->train().num_ratings(), model.train().num_ratings());
  EXPECT_EQ(loaded->gis().TotalNeighbors(), model.gis().TotalNeighbors());
  EXPECT_EQ(loaded->cluster_model().num_clusters(),
            model.cluster_model().num_clusters());
}

TEST(ModelIo, UnfittedModelRefusesToSave) {
  core::CfsfModel model(SmallConfig());
  EXPECT_THROW(core::SaveModel(model, ::testing::TempDir() + "/nope.bin"),
               util::ConfigError);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(core::LoadModel("/nonexistent/model.bin"), util::IoError);
}

TEST(ModelIo, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/cfsf_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a model", f);
    std::fclose(f);
  }
  EXPECT_THROW(core::LoadModel(path), util::IoError);
}

TEST(ModelIo, VersionMismatchRejected) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const std::string path = ::testing::TempDir() + "/cfsf_badver.bin";
  core::SaveModel(model, path);
  // Patch the version field (bytes 4..7) to an unsupported value.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const std::uint32_t bogus = 999;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW(core::LoadModel(path), util::IoError);
}

TEST(ModelIo, TruncatedFileRejected) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const std::string path = ::testing::TempDir() + "/cfsf_trunc.bin";
  core::SaveModel(model, path);
  // Truncate to the first 100 bytes.
  {
    std::ifstream in(path, std::ios::binary);
    char buffer[100];
    in.read(buffer, sizeof(buffer));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(buffer, in.gcount());
  }
  EXPECT_THROW(core::LoadModel(path), util::IoError);
}

// ------------------------------------------------------------ cold start ----

TEST(WithNewUser, RegistersAndPredicts) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const std::size_t before = model.train().num_users();

  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> ratings{
      {0, 5.0F}, {3, 4.0F}, {7, 1.0F}};
  const auto enrolled = model.WithNewUser(ratings);
  const auto id = static_cast<matrix::UserId>(enrolled->NumUsers() - 1);
  EXPECT_EQ(id, before);
  EXPECT_EQ(enrolled->train().num_users(), before + 1);
  EXPECT_EQ(model.train().num_users(), before) << "WithNewUser mutated its source";
  EXPECT_FLOAT_EQ(*enrolled->train().GetRating(id, 3), 4.0F);

  const double v = enrolled->Predict(id, 20);
  EXPECT_TRUE(std::isfinite(v));
  const auto recs = enrolled->RecommendTopN(id, 5);
  EXPECT_EQ(recs.size(), 5u);
  for (const auto& rec : recs) {
    EXPECT_FALSE(enrolled->train().HasRating(id, rec.item));
  }
}

TEST(WithNewUser, JoinsTheMostAffineCluster) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  // Clone an existing heavy user's ratings: the newcomer should land in a
  // cluster whose deviations correlate with that profile at least as well
  // as every other cluster (ties possible, so compare affinities) — under
  // the model it joined (the rule) and under the model it made.
  const matrix::UserId donor = 0;
  std::vector<std::pair<matrix::ItemId, matrix::Rating>> ratings;
  for (const auto& e : model.train().UserRow(donor)) {
    ratings.emplace_back(e.index, e.value);
  }
  const auto enrolled = model.WithNewUser(ratings);
  const auto id = static_cast<matrix::UserId>(model.NumUsers());
  const auto row = enrolled->train().UserRow(id);
  const double mean = enrolled->train().UserMean(id);
  for (const auto* cm : {&model.cluster_model(), &enrolled->cluster_model()}) {
    const double own = cm->AffinityOf(row, mean, enrolled->cluster_model().ClusterOf(id));
    for (std::size_t c = 0; c < cm->num_clusters(); ++c) {
      EXPECT_GE(own + 1e-9, cm->AffinityOf(row, mean, static_cast<std::uint32_t>(c)));
    }
  }
}

TEST(WithNewUser, ValidatesInput) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  EXPECT_THROW(model.WithNewUser({}), util::ConfigError);
  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> bad{{100000, 3.0F}};
  EXPECT_THROW(model.WithNewUser(bad), util::ConfigError);
  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> nan{
      {1, 3.0F}, {2, std::numeric_limits<matrix::Rating>::quiet_NaN()}};
  EXPECT_THROW(model.WithNewUser(nan), util::DimensionError);
  core::CfsfModel unfitted(SmallConfig());
  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> one{{1, 3.0F}};
  EXPECT_THROW(unfitted.WithNewUser(one), util::ConfigError);

  // A repeated item keeps its last value.
  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> repeated{
      {4, 1.0F}, {6, 2.0F}, {4, 5.0F}};
  const auto enrolled = model.WithNewUser(repeated);
  const auto id = static_cast<matrix::UserId>(model.NumUsers());
  EXPECT_EQ(enrolled->train().UserRatingCount(id), 2u);
  EXPECT_FLOAT_EQ(*enrolled->train().GetRating(id, 4), 5.0F);
}

TEST(WithNewUser, GisStaysConsistentWithRebuild) {
  const auto split = SmallSplit();
  core::CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> ratings{
      {2, 5.0F}, {9, 2.0F}};
  const auto enrolled = model.WithNewUser(ratings);

  core::CfsfModel rebuilt(SmallConfig());
  rebuilt.Fit(enrolled->train());
  for (const matrix::ItemId item : {2u, 9u}) {
    const auto a = enrolled->gis().Neighbors(item);
    const auto b = rebuilt.gis().Neighbors(item);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "GIS row " << item;
  }
}

// -------------------------------------------------------- cosine kernel ----

TEST(CosineGis, MatchesDirectCosine) {
  const auto split = SmallSplit();
  sim::GisConfig config;
  config.kernel = sim::ItemKernel::kCosine;
  const auto gis = sim::GlobalItemSimilarity::Build(split.train, config);
  for (matrix::ItemId i = 0; i < 10; ++i) {
    for (const auto& n : gis.Neighbors(i)) {
      const auto direct =
          sim::CosineSparse(split.train.ItemCol(i), split.train.ItemCol(n.index));
      EXPECT_NEAR(n.similarity, direct.value, 1e-5);
    }
  }
}

TEST(CosineGis, PccBeatsCosineForCfsf) {
  // Section IV-B's claim: PCC captures rating diversity that pure cosine
  // misses.  On the bias-heavy synthetic data PCC-GIS should not lose.
  const auto split = SmallSplit();
  core::CfsfConfig pcc = SmallConfig();
  core::CfsfConfig cos = SmallConfig();
  cos.gis.kernel = sim::ItemKernel::kCosine;
  core::CfsfModel a(pcc);
  core::CfsfModel b(cos);
  const double mae_pcc = eval::Evaluate(a, split).mae;
  const double mae_cos = eval::Evaluate(b, split).mae;
  EXPECT_LE(mae_pcc, mae_cos + 0.005);
}

TEST(GisFromRows, RoundTrip) {
  const auto split = SmallSplit();
  const auto built = sim::GlobalItemSimilarity::Build(split.train);
  std::vector<std::vector<sim::Neighbor>> rows(built.num_items());
  for (std::size_t i = 0; i < built.num_items(); ++i) {
    const auto row = built.Neighbors(static_cast<matrix::ItemId>(i));
    rows[i].assign(row.begin(), row.end());
  }
  const auto restored =
      sim::GlobalItemSimilarity::FromRows(std::move(rows), built.config());
  EXPECT_EQ(restored.TotalNeighbors(), built.TotalNeighbors());
  EXPECT_FLOAT_EQ(restored.Similarity(0, 1), built.Similarity(0, 1));
}

TEST(GisFromRows, RejectsOutOfRangeIndex) {
  std::vector<std::vector<sim::Neighbor>> rows(2);
  rows[0].push_back(sim::Neighbor{7, 0.5F});
  EXPECT_THROW(sim::GlobalItemSimilarity::FromRows(std::move(rows), {}),
               util::ConfigError);
}

// RefreshItems merges fresh entries into stored rows, which is exact only
// for rows in row order; a bundle row out of that order is refused at
// load, naming the row.
TEST(GisFromRows, RejectsUnsortedRow) {
  for (const auto& bad : std::vector<std::vector<sim::Neighbor>>{
           {{1, 0.2F}, {2, 0.9F}},    // ascending similarity
           {{2, 0.5F}, {1, 0.5F}},    // tie not broken by ascending id
           {{1, 0.5F}, {1, 0.5F}}}) { // repeated neighbour
    std::vector<std::vector<sim::Neighbor>> rows(3);
    rows[0] = {{2, 0.7F}};
    rows[2] = bad;
    try {
      sim::GlobalItemSimilarity::FromRows(std::move(rows), {});
      ADD_FAILURE() << "unsorted row accepted";
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("GIS row 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(GisFromRows, RejectsSelfNeighbour) {
  std::vector<std::vector<sim::Neighbor>> rows(2);
  rows[1] = {{1, 0.5F}};
  try {
    sim::GlobalItemSimilarity::FromRows(std::move(rows), {});
    ADD_FAILURE() << "self-neighbour accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("GIS row 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cfsf
