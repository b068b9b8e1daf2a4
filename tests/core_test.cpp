// Unit tests for cfsf::core — config validation, the offline artefacts,
// online prediction mechanics (Eqs. 10–14), caching, batching, top-N and
// incremental updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "core/cfsf.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "similarity/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cfsf::core {
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

CfsfConfig SmallConfig() {
  CfsfConfig config;
  config.num_clusters = 8;
  config.top_m_items = 30;
  config.top_k_users = 10;
  return config;
}

// A seeded fold batch of `size` ratings with nonzero timestamps: fresh
// cells, every fourth record an overwrite of an existing rating, and, for
// size > 1, the first cell rated again as the last record.
std::vector<matrix::RatingTriple> SeededFoldBatch(const matrix::RatingMatrix& train,
                                                  std::size_t size,
                                                  std::uint64_t seed) {
  util::Rng rng(seed);
  const auto existing = train.ToTriples();
  std::vector<matrix::RatingTriple> batch;
  for (std::size_t k = 0; k < size; ++k) {
    matrix::RatingTriple t;
    if (k % 4 == 1) {
      t = existing[rng.NextBounded(existing.size())];
      t.value = t.value == 5.0F ? 1.0F : t.value + 1.0F;
    } else {
      do {
        t.user = static_cast<matrix::UserId>(rng.NextBounded(train.num_users()));
        t.item = static_cast<matrix::ItemId>(rng.NextBounded(train.num_items()));
      } while (train.HasRating(t.user, t.item));
      t.value = static_cast<matrix::Rating>(1 + rng.NextBounded(5));
    }
    t.timestamp = static_cast<matrix::Timestamp>(1600000000 + k);
    batch.push_back(t);
  }
  if (size > 1) {
    batch.back() = batch.front();
    batch.back().value = batch.front().value == 3.0F ? 4.0F : 3.0F;
    batch.back().timestamp = static_cast<matrix::Timestamp>(1600000000 + size);
  }
  return batch;
}

// -------------------------------------------------------------- config ----

TEST(Config, PaperDefaults) {
  const CfsfConfig config;
  EXPECT_EQ(config.num_clusters, 30u);
  EXPECT_EQ(config.top_m_items, 95u);
  EXPECT_EQ(config.top_k_users, 25u);
  EXPECT_DOUBLE_EQ(config.lambda, 0.8);
  EXPECT_DOUBLE_EQ(config.delta, 0.1);
  EXPECT_DOUBLE_EQ(config.epsilon, 0.35);
  config.Validate();
}

// Constructing the model with a bad config must throw ConfigError whose
// message names the offending field — the constructor is the one place
// validation runs, so this exercises every rejection branch through it.
void ExpectRejected(const CfsfConfig& config, const std::string& field) {
  try {
    CfsfModel model(config);
    FAIL() << "expected ConfigError naming " << field;
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name " << field << ": " << e.what();
  }
}

TEST(Config, EachRejectionBranchNamesTheField) {
  CfsfConfig config;
  config.num_clusters = 0;
  ExpectRejected(config, "num_clusters");

  config = CfsfConfig{};
  config.top_m_items = 0;
  ExpectRejected(config, "top_m_items");

  config = CfsfConfig{};
  config.top_k_users = 0;
  ExpectRejected(config, "top_k_users");

  config = CfsfConfig{};
  config.lambda = 1.5;
  ExpectRejected(config, "lambda");
  config.lambda = -0.1;
  ExpectRejected(config, "lambda");

  config = CfsfConfig{};
  config.delta = -0.1;
  ExpectRejected(config, "delta");
  config.delta = 1.1;
  ExpectRejected(config, "delta");

  config = CfsfConfig{};
  config.epsilon = 7.0;
  ExpectRejected(config, "epsilon");
  config.epsilon = -1.0;
  ExpectRejected(config, "epsilon");

  config = CfsfConfig{};
  config.candidate_pool_factor = 0;
  ExpectRejected(config, "candidate_pool_factor");

  config = CfsfConfig{};
  config.use_sir = config.use_sur = config.use_suir = false;
  ExpectRejected(config, "use_sir");

  config = CfsfConfig{};
  config.time_decay = true;
  config.time_half_life_days = 0.0;
  ExpectRejected(config, "time_half_life_days");
  config.time_half_life_days = -5.0;
  ExpectRejected(config, "time_half_life_days");
}

TEST(Config, OutOfRangeValueIsEchoedInTheMessage) {
  CfsfConfig config;
  config.lambda = 1.5;
  try {
    CfsfModel model(config);
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("1.5"), std::string::npos)
        << e.what();
  }
}

TEST(Config, ConstructorValidates) {
  CfsfConfig config;
  config.epsilon = 7.0;
  EXPECT_THROW(CfsfModel{config}, util::ConfigError);
}

// ------------------------------------------------------------- offline ----

TEST(Fit, BuildsAllArtifacts) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  EXPECT_FALSE(model.fitted());
  model.Fit(split.train);
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.gis().num_items(), split.train.num_items());
  EXPECT_EQ(model.cluster_model().num_clusters(), 8u);
  EXPECT_GT(model.gis().TotalNeighbors(), 0u);
}

TEST(Fit, EmptyMatrixThrows) {
  CfsfModel model;
  matrix::RatingMatrixBuilder b(0, 0);
  EXPECT_THROW(model.Fit(b.Build()), util::ConfigError);
}

TEST(Fit, PredictBeforeFitThrows) {
  CfsfModel model;
  EXPECT_THROW(model.Predict(0, 0), util::ConfigError);
  EXPECT_THROW(model.SelectTopKUsers(0), util::ConfigError);
  EXPECT_THROW(model.RecommendTopN(0, 5), util::ConfigError);
}

TEST(Fit, ClustersCapAtUserCount) {
  matrix::RatingMatrixBuilder b(3, 4);
  b.Add(0, 0, 5); b.Add(0, 1, 3);
  b.Add(1, 1, 4); b.Add(1, 2, 2);
  b.Add(2, 2, 1); b.Add(2, 3, 5);
  CfsfConfig config;
  config.num_clusters = 30;
  CfsfModel model(config);
  model.Fit(b.Build());
  EXPECT_LE(model.cluster_model().num_clusters(), 3u);
}

TEST(Fit, RefitReplacesState) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const double before = model.Predict(split.test[0].user, split.test[0].item);
  model.Fit(split.train);  // same data → same result
  EXPECT_DOUBLE_EQ(model.Predict(split.test[0].user, split.test[0].item),
                   before);
}

// ------------------------------------------------------ user selection ----

TEST(Selection, TopKRespectsKAndExcludesSelf) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  for (const auto user : {split.active_users[0], split.active_users[5]}) {
    const auto selected = model.SelectTopKUsers(user);
    EXPECT_LE(selected.size(), 10u);
    EXPECT_GE(selected.size(), 1u);
    for (const auto& s : selected) {
      EXPECT_NE(s.user, user);
      EXPECT_GT(s.similarity, 0.0);
    }
    for (std::size_t k = 1; k < selected.size(); ++k) {
      EXPECT_GE(selected[k - 1].similarity, selected[k].similarity);
    }
  }
}

TEST(Selection, SimilaritiesMatchEq10) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto user = split.active_users[0];
  const auto selected = model.SelectTopKUsers(user);
  ASSERT_FALSE(selected.empty());
  const auto& cm = model.cluster_model();
  for (const auto& s : selected) {
    const double expected = sim::SmoothingAwarePcc(
        split.train.UserRow(user), split.train.UserMean(user),
        cm.SmoothedProfile(s.user), cm.OriginalMask(s.user),
        cm.UserMean(s.user), model.config().epsilon);
    EXPECT_EQ(s.similarity, expected);
  }
}

// The top-K selection computed from the dense smoothed rows, as the
// reference: pool whole clusters in iCluster order until the pool holds
// K × candidate_pool_factor users, score each candidate with
// sim::SmoothingAwarePcc on its smoothed row and provenance mask, then
// rank with the same partial sort.
std::vector<SelectedUser> ReferenceTopKUsers(const CfsfModel& model,
                                             matrix::UserId user) {
  const auto& config = model.config();
  const auto& train = model.train();
  const auto& cm = model.cluster_model();
  const std::size_t want_pool = config.top_k_users * config.candidate_pool_factor;
  std::vector<SelectedUser> scored;
  std::size_t pooled = 0;
  for (const auto& affinity : cm.IClusterOf(user)) {
    for (matrix::UserId v = 0; v < train.num_users(); ++v) {
      if (cm.ClusterOf(v) != affinity.cluster || v == user) continue;
      ++pooled;
      const double s = sim::SmoothingAwarePcc(
          train.UserRow(user), train.UserMean(user), cm.SmoothedProfile(v),
          cm.OriginalMask(v), cm.UserMean(v), config.epsilon);
      if (s > 0.0) scored.push_back(SelectedUser{v, s});
    }
    if (pooled >= want_pool) break;
  }
  const std::size_t k = std::min(config.top_k_users, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const SelectedUser& a, const SelectedUser& b) {
                      if (a.similarity != b.similarity) return a.similarity > b.similarity;
                      return a.user < b.user;
                    });
  scored.resize(k);
  return scored;
}

void ExpectReferenceSelection(const CfsfModel& model) {
  for (matrix::UserId u = 0; u < model.NumUsers(); ++u) {
    const auto got = model.SelectTopKUsers(u);
    const auto want = ReferenceTopKUsers(model, u);
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].user, want[k].user) << "user " << u << ", rank " << k;
      ASSERT_EQ(got[k].similarity, want[k].similarity) << "user " << u << ", rank " << k;
    }
  }
}

TEST(Selection, MatchesReferenceForEveryUser) {
  // The cluster-sliced Eq. 10 kernel must reproduce the dense-row kernel
  // bit for bit: ids and similarities, for every user, before and after a
  // fold.
  const auto split = SmallSplit();
  for (const double epsilon : {0.0, 0.35, 1.0}) {
    for (const std::size_t pool_factor : {1U, 3U, 8U}) {
      SCOPED_TRACE(::testing::Message() << "epsilon " << epsilon << ", pool factor "
                                        << pool_factor);
      CfsfConfig config = SmallConfig();
      config.epsilon = epsilon;
      config.candidate_pool_factor = pool_factor;
      CfsfModel model(config);
      model.Fit(split.train);
      ExpectReferenceSelection(model);
      const auto folded = model.WithRatings(SeededFoldBatch(model.train(), 125, 77));
      ExpectReferenceSelection(*folded);
    }
  }
  SCOPED_TRACE("paper scale, default config");
  CfsfModel model;
  model.Fit(data::GenerateSynthetic({}));
  ExpectReferenceSelection(model);
  const auto folded = model.WithRatings(SeededFoldBatch(model.train(), 125, 78));
  ExpectReferenceSelection(*folded);
}

TEST(Selection, DistinctUsers) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto selected = model.SelectTopKUsers(split.active_users[0]);
  std::set<matrix::UserId> unique;
  for (const auto& s : selected) unique.insert(s.user);
  EXPECT_EQ(unique.size(), selected.size());
}

// ------------------------------------------------------------- predict ----

TEST(Predict, FiniteForEveryQuery) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  for (const auto& t : split.test) {
    const double v = model.Predict(t.user, t.item);
    ASSERT_TRUE(std::isfinite(v));
    EXPECT_GT(v, -5.0);
    EXPECT_LT(v, 15.0);
  }
}

TEST(Predict, OutOfRangeThrows) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  EXPECT_THROW(model.Predict(100000, 0), util::ConfigError);
  EXPECT_THROW(model.Predict(0, 100000), util::ConfigError);
}

TEST(Predict, DetailedBreakdownFusesPerEq14) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto& config = model.config();
  std::size_t checked = 0;
  for (const auto& t : split.test) {
    const auto parts = model.PredictDetailed(t.user, t.item);
    if (!(parts.sir && parts.sur && parts.suir)) continue;
    const double expected = (1.0 - config.delta) * (1.0 - config.lambda) * *parts.sir +
                            (1.0 - config.delta) * config.lambda * *parts.sur +
                            config.delta * *parts.suir;
    EXPECT_NEAR(parts.fused, expected, 1e-9);
    if (++checked == 25) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Predict, FallsBackToUserMeanWithNoEvidence) {
  // A matrix where the GIS is empty (no co-rated pairs) and nobody else
  // shares the active user's items.
  matrix::RatingMatrixBuilder b(3, 3);
  b.Add(0, 0, 5);
  b.Add(1, 1, 3);
  b.Add(2, 2, 1);
  CfsfConfig config;
  config.num_clusters = 2;
  config.top_m_items = 3;
  config.top_k_users = 2;
  CfsfModel model(config);
  model.Fit(b.Build());
  const double v = model.Predict(0, 1);
  EXPECT_TRUE(std::isfinite(v));
}

TEST(Predict, AblationSwitchesChangeComponents) {
  const auto split = SmallSplit();
  CfsfConfig config = SmallConfig();
  config.use_sir = false;
  config.use_suir = false;
  CfsfModel sur_only(config);
  sur_only.Fit(split.train);
  const auto parts = sur_only.PredictDetailed(split.test[0].user,
                                              split.test[0].item);
  EXPECT_FALSE(parts.sir.has_value());
  EXPECT_FALSE(parts.suir.has_value());
  EXPECT_TRUE(parts.sur.has_value());
  EXPECT_DOUBLE_EQ(parts.fused, *parts.sur);  // renormalised to SUR' alone
}

TEST(Predict, SmoothedDataFlagsChangeEstimates) {
  const auto split = SmallSplit();
  CfsfConfig plain = SmallConfig();
  CfsfConfig alt = SmallConfig();
  alt.local_matrix_smoothed = true;
  alt.sur_uses_smoothed = false;
  CfsfModel a(plain);
  a.Fit(split.train);
  CfsfModel b(alt);
  b.Fit(split.train);
  bool any_diff = false;
  for (std::size_t k = 0; k < 30 && k < split.test.size(); ++k) {
    if (std::abs(a.Predict(split.test[k].user, split.test[k].item) -
                 b.Predict(split.test[k].user, split.test[k].item)) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Predict, CenterOnItemMeansChangesEstimates) {
  const auto split = SmallSplit();
  CfsfConfig centered = SmallConfig();
  CfsfConfig verbatim = SmallConfig();
  verbatim.center_on_item_means = false;
  CfsfModel a(centered);
  a.Fit(split.train);
  CfsfModel b(verbatim);
  b.Fit(split.train);
  bool any_diff = false;
  for (std::size_t k = 0; k < 20 && k < split.test.size(); ++k) {
    if (std::abs(a.Predict(split.test[k].user, split.test[k].item) -
                 b.Predict(split.test[k].user, split.test[k].item)) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Predict, EpsilonAffectsPredictions) {
  const auto split = SmallSplit();
  CfsfConfig lo = SmallConfig();
  lo.epsilon = 0.05;
  CfsfConfig hi = SmallConfig();
  hi.epsilon = 0.95;
  CfsfModel a(lo);
  a.Fit(split.train);
  CfsfModel b(hi);
  b.Fit(split.train);
  bool any_diff = false;
  for (std::size_t k = 0; k < 20 && k < split.test.size(); ++k) {
    if (std::abs(a.Predict(split.test[k].user, split.test[k].item) -
                 b.Predict(split.test[k].user, split.test[k].item)) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// --------------------------------------------------------------- cache ----

TEST(Cache, GrowsAndClears) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  EXPECT_EQ(model.CacheSize(), 0u);
  model.Predict(split.test[0].user, split.test[0].item);
  EXPECT_EQ(model.CacheSize(), 1u);
  model.Predict(split.test[0].user, split.test[0].item);
  EXPECT_EQ(model.CacheSize(), 1u);  // same user, no growth
  model.ClearCache();
  EXPECT_EQ(model.CacheSize(), 0u);
}

TEST(Cache, DisabledCacheStaysEmpty) {
  const auto split = SmallSplit();
  CfsfConfig config = SmallConfig();
  config.use_cache = false;
  CfsfModel model(config);
  model.Fit(split.train);
  model.Predict(split.test[0].user, split.test[0].item);
  EXPECT_EQ(model.CacheSize(), 0u);
}

TEST(Cache, CachedAndUncachedAgree) {
  const auto split = SmallSplit();
  CfsfConfig cached = SmallConfig();
  CfsfConfig uncached = SmallConfig();
  uncached.use_cache = false;
  CfsfModel a(cached);
  a.Fit(split.train);
  CfsfModel b(uncached);
  b.Fit(split.train);
  for (std::size_t k = 0; k < 30 && k < split.test.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.Predict(split.test[k].user, split.test[k].item),
                     b.Predict(split.test[k].user, split.test[k].item));
  }
}

// --------------------------------------------------------------- batch ----

TEST(Batch, MatchesPointwisePredictions) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  for (const auto& t : split.test) queries.emplace_back(t.user, t.item);
  const auto batch = model.PredictBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t k = 0; k < queries.size(); ++k) {
    EXPECT_DOUBLE_EQ(batch[k],
                     model.Predict(queries[k].first, queries[k].second));
  }
}

TEST(Batch, EmptyQueriesOk) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  EXPECT_TRUE(model.PredictBatch({}).empty());
}

// --------------------------------------------------------------- top-N ----

TEST(TopN, ExcludesRatedAndSortsDescending) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto user = split.active_users[0];
  const auto recs = model.RecommendTopN(user, 10);
  ASSERT_EQ(recs.size(), 10u);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_FALSE(split.train.HasRating(user, recs[k].item));
    if (k > 0) {
      EXPECT_GE(recs[k - 1].score, recs[k].score);
    }
  }
}

TEST(TopN, RequestingMoreThanAvailableTruncates) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto user = split.active_users[0];
  const std::size_t unrated =
      split.train.num_items() - split.train.UserRatingCount(user);
  const auto recs = model.RecommendTopN(user, 100000);
  EXPECT_EQ(recs.size(), unrated);
}

TEST(TopN, ScoresMatchPredict) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto user = split.active_users[1];
  for (const auto& rec : model.RecommendTopN(user, 5)) {
    EXPECT_EQ(rec.score, model.Predict(user, rec.item));
  }
}

// The ranking RecommendTopN must reproduce: Predict on every unrated
// item, score descending, then item id ascending.
std::vector<CfsfModel::Recommendation> ExhaustiveRanking(
    const CfsfModel& model, matrix::UserId user) {
  std::vector<CfsfModel::Recommendation> all;
  for (std::size_t i = 0; i < model.train().num_items(); ++i) {
    const auto item = static_cast<matrix::ItemId>(i);
    if (model.train().HasRating(user, item)) continue;
    all.push_back({item, model.Predict(user, item)});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  });
  return all;
}

// Every user, n in {0, 1, 2, 10, 50, all candidates}: same items, same
// order, and scores equal exactly (not within ULPs).
void ExpectTopNIsExhaustive(const CfsfModel& model) {
  for (std::size_t u = 0; u < model.train().num_users(); ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    const auto want = ExhaustiveRanking(model, user);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{10}, std::size_t{50}, want.size()}) {
      const auto got = model.RecommendTopN(user, n);
      ASSERT_EQ(got.size(), std::min(n, want.size())) << "user " << u;
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].item, want[k].item)
            << "user " << u << " n " << n << " rank " << k;
        ASSERT_EQ(got[k].score, want[k].score)
            << "user " << u << " n " << n << " rank " << k;
      }
    }
  }
}

TEST(TopN, PrunedRankingEqualsExhaustiveUnderEveryConfig) {
  const auto split = SmallSplit();
  ASSERT_TRUE(split.train.has_timestamps());
  std::vector<std::pair<std::string, CfsfConfig>> configs;
  configs.emplace_back("default", SmallConfig());
  configs.emplace_back("local_matrix_smoothed", SmallConfig());
  configs.back().second.local_matrix_smoothed = true;
  configs.emplace_back("uncentred", SmallConfig());
  configs.back().second.center_on_item_means = false;
  configs.emplace_back("time_decay", SmallConfig());
  configs.back().second.time_decay = true;
  configs.back().second.time_half_life_days = 30.0;
  configs.emplace_back("no_suir", SmallConfig());
  configs.back().second.use_suir = false;
  configs.emplace_back("epsilon_1", SmallConfig());
  configs.back().second.epsilon = 1.0;
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    CfsfModel model(config);
    model.Fit(split.train);
    ExpectTopNIsExhaustive(model);
  }
}

TEST(TopN, TiedScoresRankByItemId) {
  // w = 1 weighs every original rating at zero and SUR′ reads originals
  // only, so no component produces a value: every candidate falls back
  // to the same user mean, and only the item-id tie-break orders them.
  const auto split = SmallSplit();
  CfsfConfig config = SmallConfig();
  config.epsilon = 1.0;
  config.sur_uses_smoothed = false;
  CfsfModel model(config);
  model.Fit(split.train);
  const auto user = split.active_users[0];
  const auto recs = model.RecommendTopN(user, 10);
  ASSERT_EQ(recs.size(), 10u);
  for (std::size_t k = 1; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].score, recs[0].score);
    EXPECT_LT(recs[k - 1].item, recs[k].item);
  }
  ExpectTopNIsExhaustive(model);
}

TEST(TopN, PruningCountersShowTheSkippedFusions) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  auto& registry = obs::MetricsRegistry::Global();
  const auto& candidates = registry.GetCounter(obs::names::kCfsfTopnCandidates);
  const auto& fused = registry.GetCounter(obs::names::kCfsfTopnFused);
  // Candidates and fusions summed over every user for one n.
  const auto sweep = [&](std::size_t n) {
    const auto candidates_before = candidates.Value();
    const auto fused_before = fused.Value();
    for (std::size_t u = 0; u < model.train().num_users(); ++u) {
      model.RecommendTopN(static_cast<matrix::UserId>(u), n);
    }
    return std::pair{candidates.Value() - candidates_before,
                     fused.Value() - fused_before};
  };
  const auto [all_candidates, all_fused] = sweep(model.train().num_items());
  EXPECT_GT(all_candidates, 0u);
  EXPECT_EQ(all_fused, all_candidates);
  const auto [top10_candidates, top10_fused] = sweep(10);
  EXPECT_EQ(top10_candidates, all_candidates);
  EXPECT_LT(top10_fused, top10_candidates);
}

// --------------------------------------------------------- incremental ----

TEST(Incremental, InsertChangesPredictionTowardEvidence) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto& probe = split.test[0];
  // Feed the model the actual rating itself; afterwards the user's own
  // rating exists, so SIR'/SUR' see it as original data.
  model.InsertRating(probe.user, probe.item, probe.actual);
  EXPECT_FLOAT_EQ(*model.train().GetRating(probe.user, probe.item),
                  probe.actual);
}

TEST(Incremental, CacheInvalidated) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  model.Predict(split.test[0].user, split.test[0].item);
  EXPECT_GT(model.CacheSize(), 0u);
  model.InsertRating(split.test[0].user, split.test[0].item, 4.0F);
  EXPECT_EQ(model.CacheSize(), 0u);
}

TEST(Incremental, GisRowMatchesRebuild) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  const auto& probe = split.test[0];
  model.InsertRating(probe.user, probe.item, 5.0F);

  CfsfModel rebuilt(SmallConfig());
  rebuilt.Fit(model.train());
  const auto a = model.gis().Neighbors(probe.item);
  const auto b = rebuilt.gis().Neighbors(probe.item);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(Incremental, RejectsBadIds) {
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  EXPECT_THROW(model.InsertRating(100000, 0, 3.0F), util::ConfigError);
  const std::vector<matrix::RatingTriple> batch{{0, 0, 3.0F, 0}, {0, 100000, 3.0F, 0}};
  EXPECT_THROW(model.WithRatings(batch), util::ConfigError);
}

// A fold batch: fresh cells, an overwrite of an existing rating, and one
// cell rated twice (the later triple must win), all with nonzero
// timestamps.  `final_values` receives what each cell must read back.
std::vector<matrix::RatingTriple> FoldBatch(
    const matrix::RatingMatrix& train,
    std::map<std::pair<matrix::UserId, matrix::ItemId>, matrix::Rating>*
        final_values) {
  std::vector<matrix::RatingTriple> batch;
  const matrix::RatingTriple existing = train.ToTriples()[10];
  batch.push_back({existing.user, existing.item,
                   existing.value == 1.0F ? 5.0F : 1.0F, 1500000000});
  for (std::uint32_t k = 0; k < 12; ++k) {
    batch.push_back({static_cast<matrix::UserId>((k * 7 + 1) % train.num_users()),
                     static_cast<matrix::ItemId>((k * 13 + 5) % train.num_items()),
                     static_cast<matrix::Rating>(1 + k % 5),
                     static_cast<matrix::Timestamp>(1500000100 + k)});
  }
  matrix::RatingTriple again = batch[4];
  again.value = again.value == 2.0F ? 4.0F : 2.0F;
  again.timestamp += 1000;
  batch.push_back(again);
  for (const auto& r : batch) (*final_values)[{r.user, r.item}] = r.value;
  return batch;
}

TEST(Incremental, BatchFoldEqualsOneRecordAtATime) {
  // Every offline artefact is a function of the merged matrix under fixed
  // cluster assignments, so one WithRatings call must equal the same
  // records inserted one call at a time.
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);
  std::map<std::pair<matrix::UserId, matrix::ItemId>, matrix::Rating> want;
  const auto batch = FoldBatch(model.train(), &want);

  const auto before = model.train().ToTriples();
  const std::unique_ptr<CfsfModel> batched = model.WithRatings(batch);
  ASSERT_EQ(model.train().ToTriples(), before) << "WithRatings mutated its source";
  for (const auto& r : batch) {
    model.InsertRating(r.user, r.item, r.value, r.timestamp);
  }

  for (const auto& [cell, value] : want) {
    EXPECT_EQ(*batched->train().GetRating(cell.first, cell.second), value);
  }
  EXPECT_EQ(batched->train().ToTriples(), model.train().ToTriples());
  for (matrix::ItemId i = 0; i < model.NumItems(); ++i) {
    const auto a = batched->gis().Neighbors(i);
    const auto b = model.gis().Neighbors(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "GIS row " << i;
  }
  for (matrix::UserId u = 0; u < model.NumUsers(); ++u) {
    for (matrix::ItemId i = 0; i < model.NumItems(); ++i) {
      ASSERT_EQ(batched->Predict(u, i), model.Predict(u, i))
          << "user " << u << ", item " << i;
    }
  }
}

void ExpectSameModel(const CfsfModel& got, const CfsfModel& want) {
  ASSERT_EQ(got.train().ToTriples(), want.train().ToTriples());
  for (matrix::ItemId i = 0; i < want.NumItems(); ++i) {
    const auto a = got.gis().Neighbors(i);
    const auto b = want.gis().Neighbors(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "GIS row " << i;
  }
  const auto& gc = got.cluster_model();
  const auto& wc = want.cluster_model();
  for (matrix::UserId u = 0; u < want.NumUsers(); ++u) {
    const auto gs = gc.SmoothedProfile(u);
    const auto ws = wc.SmoothedProfile(u);
    ASSERT_TRUE(std::equal(gs.begin(), gs.end(), ws.begin(), ws.end()))
        << "smoothed row " << u;
    const auto gm = gc.OriginalMask(u);
    const auto wm = wc.OriginalMask(u);
    ASSERT_TRUE(std::equal(gm.begin(), gm.end(), wm.begin(), wm.end()))
        << "provenance row " << u;
    const auto gi = gc.IClusterOf(u);
    const auto wi = wc.IClusterOf(u);
    ASSERT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
        << "iCluster list " << u;
  }
  ASSERT_EQ(gc.num_clusters(), wc.num_clusters());
  for (std::uint32_t c = 0; c < wc.num_clusters(); ++c) {
    const auto gm = gc.Members(c);
    const auto wm = wc.Members(c);
    ASSERT_TRUE(std::equal(gm.begin(), gm.end(), wm.begin(), wm.end()))
        << "members of cluster " << c;
    for (matrix::ItemId i = 0; i < want.NumItems(); ++i) {
      const auto gcol = gc.ClusterColumn(c, i);
      const auto wcol = wc.ClusterColumn(c, i);
      ASSERT_TRUE(std::equal(gcol.begin(), gcol.end(), wcol.begin(), wcol.end()))
          << "column of cluster " << c << ", item " << i;
    }
  }
  for (matrix::UserId u = 0; u < want.NumUsers(); ++u) {
    for (matrix::ItemId i = 0; i < want.NumItems(); ++i) {
      ASSERT_EQ(got.Predict(u, i), want.Predict(u, i)) << "user " << u << ", item " << i;
    }
  }
}

TEST(Incremental, FoldEqualsRefit) {
  // A fold is a refit under the same cluster assignments: Build's Eq. 5
  // kernel also refreshes the touched GIS rows, and smoothing and iCluster
  // are functions of the merged matrix and the assignments.
  const auto split = SmallSplit();
  for (const bool parallel : {false, true}) {
    CfsfConfig config = SmallConfig();
    config.parallel = parallel;
    CfsfModel model(config);
    model.Fit(split.train);
    for (const std::size_t size : {1U, 5U, 125U}) {
      SCOPED_TRACE(::testing::Message() << "parallel " << parallel << ", batch " << size);
      const auto batch = SeededFoldBatch(model.train(), size, 1000 + size);
      const std::unique_ptr<CfsfModel> folded = model.WithRatings(batch);
      matrix::RatingMatrix merged = model.train().WithRatings(batch);
      auto gis = sim::GlobalItemSimilarity::Build(merged, config.gis);
      const std::unique_ptr<CfsfModel> refit = CfsfModel::Restore(
          config, std::move(merged), std::move(gis), model.cluster_model().assignments());
      ExpectSameModel(*folded, *refit);
    }
  }
}

// ---------------------------------------------------------- time decay ----

TEST(TimeDecay, ChangesPredictionsOnTimestampedData) {
  const auto split = SmallSplit();
  ASSERT_TRUE(split.train.has_timestamps());
  CfsfConfig plain = SmallConfig();
  CfsfConfig decayed = SmallConfig();
  decayed.time_decay = true;
  decayed.time_half_life_days = 30.0;
  CfsfModel a(plain);
  a.Fit(split.train);
  CfsfModel b(decayed);
  b.Fit(split.train);
  bool any_diff = false;
  for (std::size_t k = 0; k < 50 && k < split.test.size(); ++k) {
    if (std::abs(a.Predict(split.test[k].user, split.test[k].item) -
                 b.Predict(split.test[k].user, split.test[k].item)) > 1e-12) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(TimeDecay, NoopWithoutTimestamps) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 60;
  dconfig.num_items = 80;
  dconfig.min_ratings_per_user = 12;
  dconfig.log_mean = 3.0;
  dconfig.with_timestamps = false;
  const auto base = data::GenerateSynthetic(dconfig);
  data::ProtocolConfig pconfig;
  pconfig.num_train_users = 40;
  pconfig.num_test_users = 20;
  pconfig.given_n = 5;
  const auto split = data::MakeGivenNSplit(base, pconfig);
  CfsfConfig plain = SmallConfig();
  CfsfConfig decayed = SmallConfig();
  decayed.time_decay = true;
  CfsfModel a(plain);
  a.Fit(split.train);
  CfsfModel b(decayed);
  b.Fit(split.train);
  for (std::size_t k = 0; k < 20 && k < split.test.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.Predict(split.test[k].user, split.test[k].item),
                     b.Predict(split.test[k].user, split.test[k].item));
  }
}

// ------------------------------------------------------------ parallel ----

TEST(Parallelism, ConcurrentPredictsAreSafeAndConsistent) {
  // A fitted model is shared by concurrent request threads in a serving
  // process; Predict is const and the neighbour cache is mutex-guarded.
  const auto split = SmallSplit();
  CfsfModel model(SmallConfig());
  model.Fit(split.train);

  // Serial reference.
  std::vector<double> expected(split.test.size());
  for (std::size_t k = 0; k < split.test.size(); ++k) {
    expected[k] = model.Predict(split.test[k].user, split.test[k].item);
  }
  model.ClearCache();

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(kThreads,
                                           std::vector<double>(split.test.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < split.test.size(); ++k) {
        results[t][k] = model.Predict(split.test[k].user, split.test[k].item);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < split.test.size(); ++k) {
      ASSERT_DOUBLE_EQ(results[t][k], expected[k])
          << "thread " << t << " query " << k;
    }
  }
}

TEST(Parallelism, SerialAndParallelFitsAgree) {
  // The paper-scale matrix at the paper's defaults: the parallel offline
  // phase must reproduce the serial one bit for bit.
  const auto train = data::GenerateSynthetic({});
  CfsfConfig serial;
  serial.parallel = false;
  CfsfModel a(serial);
  a.Fit(train);
  CfsfModel b;
  b.Fit(train);
  for (matrix::ItemId i = 0; i < train.num_items(); ++i) {
    const auto x = a.gis().Neighbors(i);
    const auto y = b.gis().Neighbors(i);
    ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end())) << "GIS row " << i;
  }
  ASSERT_EQ(a.cluster_model().assignments(), b.cluster_model().assignments());
  util::Rng rng(20091017);
  for (int k = 0; k < 300; ++k) {
    const auto user = static_cast<matrix::UserId>(rng.NextBounded(train.num_users()));
    const auto item = static_cast<matrix::ItemId>(rng.NextBounded(train.num_items()));
    ASSERT_EQ(a.Predict(user, item), b.Predict(user, item))
        << "user " << user << ", item " << item;
  }
}

}  // namespace
}  // namespace cfsf::core
