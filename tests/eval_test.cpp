// Unit tests for cfsf::eval — metrics (Eq. 15) and the evaluation driver.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <utility>
#include <vector>

#include "baselines/means.hpp"
#include "baselines/sir.hpp"
#include "baselines/sur.hpp"
#include "core/cfsf_model.hpp"
#include "data/catalogue.hpp"
#include "data/protocol.hpp"
#include "data/synthetic.hpp"
#include "eval/evaluate.hpp"
#include "eval/metrics.hpp"
#include "util/error.hpp"

namespace cfsf::eval {
namespace {

TEST(Metrics, MaeByHand) {
  const std::vector<double> predicted{3.0, 4.0, 1.0};
  const std::vector<double> actual{4.0, 4.0, 3.0};
  EXPECT_DOUBLE_EQ(Mae(predicted, actual), (1.0 + 0.0 + 2.0) / 3.0);
}

TEST(Metrics, RmseByHand) {
  const std::vector<double> predicted{3.0, 5.0};
  const std::vector<double> actual{4.0, 3.0};
  EXPECT_DOUBLE_EQ(Rmse(predicted, actual), std::sqrt((1.0 + 4.0) / 2.0));
}

TEST(Metrics, RmseDominatesMae) {
  // RMSE >= MAE always (Jensen).
  const std::vector<double> predicted{1.0, 2.0, 5.0, 3.3};
  const std::vector<double> actual{2.0, 2.0, 1.0, 3.0};
  EXPECT_GE(Rmse(predicted, actual), Mae(predicted, actual));
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(Mae(a, b), util::ConfigError);
  EXPECT_THROW(Rmse(a, b), util::ConfigError);
}

TEST(Metrics, AccumulatorEmptyIsZero) {
  ErrorAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.Mae(), 0.0);
  EXPECT_DOUBLE_EQ(acc.Rmse(), 0.0);
}

TEST(Metrics, AccumulatorMatchesBatch) {
  ErrorAccumulator acc;
  const std::vector<double> predicted{3.1, 4.2, 0.9, 2.5};
  const std::vector<double> actual{3.0, 4.0, 2.0, 2.0};
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    acc.Add(predicted[i], actual[i]);
  }
  EXPECT_DOUBLE_EQ(acc.Mae(), Mae(predicted, actual));
  EXPECT_DOUBLE_EQ(acc.Rmse(), Rmse(predicted, actual));
  EXPECT_EQ(acc.count(), 4u);
}

TEST(Metrics, ErrorIsSymmetric) {
  ErrorAccumulator over;
  over.Add(5.0, 3.0);
  ErrorAccumulator under;
  under.Add(1.0, 3.0);
  EXPECT_DOUBLE_EQ(over.Mae(), under.Mae());
}

class ConstantPredictor : public Predictor {
 public:
  explicit ConstantPredictor(double value) : value_(value) {}
  std::string Name() const override { return "Constant"; }
  void Fit(const matrix::RatingMatrix&) override { fitted_ = true; }
  double Predict(matrix::UserId, matrix::ItemId) const override {
    return value_;
  }
  bool fitted_ = false;

 private:
  double value_;
};

data::EvalSplit SmallSplit() {
  data::SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto base = data::GenerateSynthetic(config);
  data::ProtocolConfig pconfig;
  pconfig.num_train_users = 25;
  pconfig.num_test_users = 15;
  pconfig.given_n = 5;
  return data::MakeGivenNSplit(base, pconfig);
}

TEST(Evaluate, FitsThenScores) {
  const auto split = SmallSplit();
  ConstantPredictor predictor(3.5);
  const auto result = Evaluate(predictor, split);
  EXPECT_TRUE(predictor.fitted_);
  EXPECT_EQ(result.num_predictions, split.test.size());
  EXPECT_GT(result.mae, 0.0);
  EXPECT_GE(result.rmse, result.mae);
  EXPECT_GE(result.fit_seconds, 0.0);
  EXPECT_GE(result.predict_seconds, 0.0);
}

TEST(Evaluate, ClampingImprovesWildPredictions) {
  const auto split = SmallSplit();
  ConstantPredictor wild(42.0);
  EvalOptions clamped;  // default [1,5]
  const auto with_clamp = Evaluate(wild, split, clamped);
  EvalOptions open;
  open.clamp_low = 1.0;
  open.clamp_high = 0.0;  // low > high disables clamping
  const auto without = Evaluate(wild, split, open);
  EXPECT_LT(with_clamp.mae, without.mae);
  EXPECT_LE(with_clamp.mae, 4.0);   // clamped to 5, actuals in [1,5]
  EXPECT_GT(without.mae, 35.0);
}

TEST(Evaluate, GlobalMeanBeatsArbitraryConstant) {
  const auto split = SmallSplit();
  baselines::GlobalMeanPredictor mean;
  ConstantPredictor low(1.0);
  EXPECT_LT(Evaluate(mean, split).mae, Evaluate(low, split).mae);
}

TEST(EvaluateFitted, MatchesEvaluate) {
  const auto split = SmallSplit();
  ConstantPredictor predictor(3.0);
  const auto full = Evaluate(predictor, split);
  const auto fitted_only = EvaluateFitted(predictor, split.test);
  EXPECT_DOUBLE_EQ(full.mae, fitted_only.mae);
  EXPECT_DOUBLE_EQ(full.rmse, fitted_only.rmse);
  EXPECT_DOUBLE_EQ(fitted_only.fit_seconds, 0.0);
}

TEST(EvaluateFitted, EmptyTestSetIsZero) {
  ConstantPredictor predictor(3.0);
  const std::vector<data::TestRating> empty;
  const auto result = EvaluateFitted(predictor, empty);
  EXPECT_EQ(result.num_predictions, 0u);
  EXPECT_DOUBLE_EQ(result.mae, 0.0);
}

// The batch API contract: PredictBatch must be positionally aligned with
// its queries and agree with per-query Predict — for the default
// implementation (baselines) and for CFSF's parallel override alike.
// Since eval::Evaluate scores everything through PredictBatch, this is
// what keeps every reported MAE identical to the per-query path.
TEST(PredictBatch, AgreesWithPerQueryPredict) {
  const auto split = SmallSplit();

  core::CfsfConfig config;
  config.num_clusters = 6;
  config.top_m_items = 20;
  config.top_k_users = 8;
  core::CfsfModel cfsf(config);
  baselines::GlobalMeanPredictor mean;

  for (Predictor* predictor :
       std::initializer_list<Predictor*>{&cfsf, &mean}) {
    predictor->Fit(split.train);
    std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
    for (const auto& t : split.test) queries.emplace_back(t.user, t.item);

    const auto batch = predictor->PredictBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch[i],
                       predictor->Predict(queries[i].first,
                                          queries[i].second))
          << predictor->Name() << " query " << i;
    }
  }
}

// Golden MAE: the Table II ML_300 Given10 cell (GivenN protocol of Breese
// et al.) on the default catalogue, at the paper's defaults, pinned to the
// last bit.  A change that moves any of these values changes the model's
// results and must say so.
const data::EvalSplit& Ml300Given10() {
  static const data::EvalSplit split = data::Catalogue{}.Split(300, 10);
  return split;
}

TEST(GoldenMae, CfsfMl300Given10) {
  core::CfsfModel cfsf;
  EXPECT_EQ(Evaluate(cfsf, Ml300Given10()).mae, 0.69519586968621305);
}

TEST(GoldenMae, SurMl300Given10) {
  baselines::SurPredictor sur;
  EXPECT_EQ(Evaluate(sur, Ml300Given10()).mae, 0.81938785675897297);
}

TEST(GoldenMae, SirMl300Given10) {
  baselines::SirPredictor sir;
  EXPECT_EQ(Evaluate(sir, Ml300Given10()).mae, 0.83450005893866364);
}

}  // namespace
}  // namespace cfsf::eval
