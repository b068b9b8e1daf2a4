// Cold start: a brand-new user signs up, rates a handful of movies, and
// gets recommendations immediately — without re-running the offline phase.
//
// Demonstrates CfsfModel::WithNewUser (a new model with the newcomer in
// their most affine cluster by Eq. 9, the touched GIS rows refreshed) and
// how recommendation quality grows as the newcomer keeps rating: each
// step's ratings fold in as one WithRatings batch.
//
//   ./cold_start [--ratings=5]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "core/cfsf.hpp"
#include "util/args.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) try {
  using namespace cfsf;
  util::ArgParser args(argc, argv);
  const auto initial = static_cast<std::size_t>(args.GetInt("ratings", 5));
  args.RejectUnknown();

  // Train on the full catalogue matrix; hold one user's taste profile
  // aside to play the newcomer (we reuse an active user's hidden ratings
  // as "what they would actually think").
  const data::Catalogue catalogue;
  const data::EvalSplit split = catalogue.Split(300, 20);
  auto model = std::make_unique<core::CfsfModel>();
  model->Fit(split.train);

  // The newcomer's ground truth: an active user's withheld ratings.
  const auto donor = split.active_users.front();
  std::vector<std::pair<matrix::ItemId, matrix::Rating>> truth;
  for (const auto& t : split.test) {
    if (t.user == donor) truth.emplace_back(t.item, t.actual);
  }
  std::printf("newcomer ground truth: %zu hidden opinions\n", truth.size());

  // Sign-up: rate the first few items.
  std::vector<std::pair<matrix::ItemId, matrix::Rating>> first(
      truth.begin(), truth.begin() + std::min(initial, truth.size()));
  util::Stopwatch signup;
  const auto user = static_cast<matrix::UserId>(model->NumUsers());
  model = model->WithNewUser(first);
  std::printf("registered user %u with %zu ratings in %.0f ms (cluster %u)\n",
              user, first.size(), signup.ElapsedMillis(),
              model->cluster_model().ClusterOf(user));

  // Measure MAE on the remaining hidden opinions as the user rates more.
  auto measure = [&](const char* tag) {
    eval::ErrorAccumulator acc;
    for (std::size_t k = first.size(); k < truth.size(); ++k) {
      const double p = std::clamp(model->Predict(user, truth[k].first), 1.0, 5.0);
      acc.Add(p, truth[k].second);
    }
    std::printf("  %-18s MAE %.3f over %zu items\n", tag, acc.Mae(), acc.count());
  };
  measure("after sign-up");

  // The user rates a few more movies during the first week.
  std::size_t fed = first.size();
  for (std::size_t step = 0; step < 2; ++step) {
    const std::size_t count = std::min<std::size_t>(5, truth.size() - fed);
    std::vector<matrix::RatingTriple> batch;
    for (std::size_t k = 0; k < count; ++k, ++fed) {
      batch.push_back({user, truth[fed].first, truth[fed].second, 0});
    }
    model = model->WithRatings(batch);
    char tag[32];
    std::snprintf(tag, sizeof(tag), "after %zu ratings", fed);
    // Only score items never fed to the model.
    eval::ErrorAccumulator acc;
    for (std::size_t k = fed; k < truth.size(); ++k) {
      const double p = std::clamp(model->Predict(user, truth[k].first), 1.0, 5.0);
      acc.Add(p, truth[k].second);
    }
    std::printf("  %-18s MAE %.3f over %zu items\n", tag, acc.Mae(), acc.count());
  }

  std::printf("\ntop-5 recommendations for the newcomer:\n");
  for (const auto& rec : model->RecommendTopN(user, 5)) {
    std::printf("  item %-5u predicted %.2f\n", rec.item, rec.score);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
