// Incremental updates: the paper's "keep GIS up-to-date" future-work item.
//
// A live recommender keeps receiving ratings.  This example folds a batch
// of new ratings into a fitted model with one WithRatings call, showing
// that (a) the result is a new model whose touched GIS rows are refreshed,
// (b) its predictions react to the new evidence, and (c) it starts with
// empty per-user caches — all without re-running K-means or rebuilding
// the full GIS.
//
//   ./incremental_updates
#include <cstdio>
#include <exception>
#include <vector>

#include "core/cfsf.hpp"
#include "util/stopwatch.hpp"

int main() try {
  using namespace cfsf;
  const data::Catalogue catalogue;
  const data::EvalSplit split = catalogue.Split(300, 10);

  core::CfsfModel model;
  util::Stopwatch fit_watch;
  model.Fit(split.train);
  std::printf("full offline phase: %.2fs\n", fit_watch.ElapsedSeconds());

  // Take an active user and one of their withheld ratings.
  const auto& probe = split.test.front();
  const double before = model.Predict(probe.user, probe.item);
  std::printf("\nuser %u, item %u: actual %.0f, predicted %.3f\n", probe.user,
              probe.item, static_cast<double>(probe.actual), before);

  // The user now tells us some of their real opinions: fold the next few
  // withheld ratings (except the probe itself) into a new model.
  std::vector<matrix::RatingTriple> batch;
  for (const auto& t : split.test) {
    if (t.user != probe.user || t.item == probe.item) continue;
    batch.push_back({t.user, t.item, t.actual, 0});
    if (batch.size() == 5) break;
  }
  util::Stopwatch update_watch;
  const auto updated = model.WithRatings(batch);
  std::printf("folded %zu ratings in %.2fs (incremental path: GIS row "
              "refresh + re-smoothing, no re-clustering)\n",
              batch.size(), update_watch.ElapsedSeconds());

  const double after = updated->Predict(probe.user, probe.item);
  std::printf("prediction after updates: %.3f (was %.3f, actual %.0f)\n",
              after, before, static_cast<double>(probe.actual));
  std::printf("|error| before %.3f -> after %.3f\n",
              std::abs(before - probe.actual), std::abs(after - probe.actual));

  // Compare against the cost of the sledgehammer alternative.
  util::Stopwatch refit_watch;
  model.Fit(updated->train());
  std::printf("\nfull refit for comparison: %.2fs\n",
              refit_watch.ElapsedSeconds());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
