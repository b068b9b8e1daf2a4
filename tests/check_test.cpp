// Tests for the correctness-tooling layer: the CFSF_CHECK macro family
// (util/check.hpp) and the DebugValidate() sweeps on the core data
// structures.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "core/cfsf_model.hpp"
#include "data/synthetic.hpp"
#include "matrix/rating_matrix.hpp"
#include "similarity/item_similarity.hpp"
#include "util/check.hpp"

namespace cfsf {
namespace {

data::SyntheticConfig SmallWorld() {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.min_ratings_per_user = 10;
  config.max_ratings_per_user = 40;
  config.log_mean = 3.0;
  return config;
}

// --- CFSF_VALIDATE / InvariantError (always compiled in) ----------------

TEST(Validate, PassesOnTrueCondition) {
  EXPECT_NO_THROW(CFSF_VALIDATE(1 + 1 == 2, "arithmetic"));
}

TEST(Validate, ThrowsInvariantErrorWithContext) {
  try {
    CFSF_VALIDATE(1 + 1 == 3, "the message");
    FAIL() << "CFSF_VALIDATE did not throw";
  } catch (const util::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("the message"), std::string::npos) << what;
  }
}

TEST(Validate, InvariantErrorIsACfsfError) {
  EXPECT_THROW(CFSF_VALIDATE(false, "x"), util::Error);
}

// --- CFSF_CHECK family (active only under CFSF_ENABLE_CHECKS) -----------

TEST(Check, PassingChecksAreSilent) {
  CFSF_CHECK(true, "never fires");
  CFSF_CHECK_FINITE(1.5, "finite");
  CFSF_DCHECK(true, "never fires");
}

TEST(Check, ChecksEnabledMatchesBuildFlag) {
#if defined(CFSF_ENABLE_CHECKS)
  EXPECT_TRUE(util::ChecksEnabled());
#else
  EXPECT_FALSE(util::ChecksEnabled());
#endif
}

TEST(Check, DisabledChecksDoNotEvaluateTheCondition) {
  // In checks-off builds the condition must never run; in checks-on
  // builds it runs but passes.  Either way `calls` tells a consistent
  // story with ChecksEnabled().
  int calls = 0;
  auto count = [&calls] {
    ++calls;
    return true;
  };
  CFSF_CHECK(count(), "side-effect probe");
  EXPECT_EQ(calls, util::ChecksEnabled() ? 1 : 0);
}

// Death tests re-execute the binary, which misbehaves under TSan's
// runtime; the sanitizer tiers exercise the passing paths instead.
#if defined(CFSF_ENABLE_CHECKS) && !defined(__SANITIZE_THREAD__)
TEST(CheckDeath, FailedCheckAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(CFSF_CHECK(1 > 2, "impossible ordering"),
               "CFSF_CHECK failed.*1 > 2.*impossible ordering");
}

TEST(CheckDeath, NonFiniteValueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const double bad = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CFSF_CHECK_FINITE(bad, "smoothed rating"), "smoothed rating");
}
#endif

// --- RatingMatrix::DebugValidate ----------------------------------------

TEST(RatingMatrixValidate, FreshlyBuiltMatrixPasses) {
  const auto matrix = data::GenerateSynthetic(SmallWorld());
  EXPECT_NO_THROW(matrix.DebugValidate());
}

TEST(RatingMatrixValidate, EmptyMatrixPasses) {
  matrix::RatingMatrixBuilder builder(5, 7);
  const auto matrix = builder.Build();
  EXPECT_NO_THROW(matrix.DebugValidate());
}

TEST(RatingMatrixValidate, SurvivesInsertionAndPrefix) {
  const auto base = data::GenerateSynthetic(SmallWorld());
  EXPECT_NO_THROW(base.WithRating(3, 9, 4.0F).DebugValidate());
  EXPECT_NO_THROW(base.KeepUserPrefix(20).DebugValidate());
}

// --- GlobalItemSimilarity::DebugValidate --------------------------------

TEST(GisValidate, FreshlyBuiltGisPasses) {
  const auto matrix = data::GenerateSynthetic(SmallWorld());
  const auto gis = sim::GlobalItemSimilarity::Build(matrix);
  EXPECT_NO_THROW(gis.DebugValidate());
}

TEST(GisValidate, SurvivesRefreshItems) {
  const auto matrix = data::GenerateSynthetic(SmallWorld());
  auto gis = sim::GlobalItemSimilarity::Build(matrix);
  const auto updated = matrix.WithRating(1, 2, 5.0F);
  const std::vector<matrix::ItemId> touched = {2};
  gis.RefreshItems(updated, touched);
  EXPECT_NO_THROW(gis.DebugValidate());
}

// Unsorted rows and self-neighbours never reach DebugValidate: FromRows
// refuses them at load (extensions_test, GisFromRows.*).

TEST(GisValidate, RejectsOutOfRangeSimilarity) {
  std::vector<std::vector<sim::Neighbor>> rows(2);
  rows[0] = {{1, 1.5F}};
  const auto gis = sim::GlobalItemSimilarity::FromRows(std::move(rows), {});
  EXPECT_THROW(gis.DebugValidate(), util::InvariantError);
}

TEST(GisValidate, RejectsAsymmetricPairValues) {
  std::vector<std::vector<sim::Neighbor>> rows(2);
  rows[0] = {{1, 0.8F}};
  rows[1] = {{0, 0.3F}};  // reciprocal entry disagrees
  const auto gis = sim::GlobalItemSimilarity::FromRows(std::move(rows), {});
  EXPECT_THROW(gis.DebugValidate(), util::InvariantError);
}

// One kernel computes both directions of a pair, so they must agree to
// the last bit and neither may be missing.
TEST(GisValidate, RejectsOneUlpAsymmetry) {
  std::vector<std::vector<sim::Neighbor>> rows(2);
  rows[0] = {{1, 0.5F}};
  rows[1] = {{0, std::nextafter(0.5F, 1.0F)}};
  const auto gis = sim::GlobalItemSimilarity::FromRows(std::move(rows), {});
  EXPECT_THROW(gis.DebugValidate(), util::InvariantError);
}

TEST(GisValidate, RejectsMissingReciprocal) {
  std::vector<std::vector<sim::Neighbor>> rows(3);
  rows[0] = {{1, 0.5F}, {2, 0.25F}};
  rows[1] = {{0, 0.5F}};  // row 2 lacks item 0
  const auto gis = sim::GlobalItemSimilarity::FromRows(std::move(rows), {});
  EXPECT_THROW(gis.DebugValidate(), util::InvariantError);
}

// --- ClusterModel::DebugValidate ----------------------------------------

TEST(ClusterModelValidate, FreshlyBuiltModelPasses) {
  const auto matrix = data::GenerateSynthetic(SmallWorld());
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = 6;
  const auto kmeans = cluster::RunKMeans(matrix, kconfig);
  const auto model =
      cluster::ClusterModel::Build(matrix, kmeans.assignments, 6);
  EXPECT_NO_THROW(model.DebugValidate(matrix));
}

TEST(ClusterModelValidate, DetectsMatrixMismatch) {
  const auto matrix = data::GenerateSynthetic(SmallWorld());
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = 4;
  const auto kmeans = cluster::RunKMeans(matrix, kconfig);
  const auto model =
      cluster::ClusterModel::Build(matrix, kmeans.assignments, 4);
  const auto other = matrix.KeepUserPrefix(10);
  EXPECT_THROW(model.DebugValidate(other), util::InvariantError);
}

// --- End-to-end: a fitted CFSF model validates everywhere ---------------

TEST(ModelValidate, FittedModelPassesAllSweeps) {
  core::CfsfConfig config;
  config.num_clusters = 6;
  config.top_m_items = 20;
  config.top_k_users = 8;
  core::CfsfModel model(config);
  const auto matrix = data::GenerateSynthetic(SmallWorld());
  model.Fit(matrix);
  EXPECT_NO_THROW(model.train().DebugValidate());
  EXPECT_NO_THROW(model.gis().DebugValidate());
  EXPECT_NO_THROW(model.cluster_model().DebugValidate(model.train()));
  // Predictions stay finite (the CFSF_CHECK_FINITE tripwire in the
  // fusion path would abort first under the checks flag).
  for (matrix::UserId u = 0; u < 10; ++u) {
    for (matrix::ItemId i = 0; i < 10; ++i) {
      EXPECT_TRUE(std::isfinite(model.Predict(u, i)));
    }
  }
}

TEST(ModelValidate, SweepsPassAfterIncrementalUpdates) {
  core::CfsfConfig config;
  config.num_clusters = 5;
  config.top_m_items = 15;
  config.top_k_users = 6;
  core::CfsfModel model(config);
  model.Fit(data::GenerateSynthetic(SmallWorld()));
  model.InsertRating(2, 3, 5.0F);
  const std::vector<std::pair<matrix::ItemId, matrix::Rating>> ratings = {
      {1, 4.0F}, {5, 3.0F}, {9, 5.0F}};
  model.AddUser(ratings);
  EXPECT_NO_THROW(model.train().DebugValidate());
  EXPECT_NO_THROW(model.gis().DebugValidate());
  EXPECT_NO_THROW(model.cluster_model().DebugValidate(model.train()));
}

}  // namespace
}  // namespace cfsf
