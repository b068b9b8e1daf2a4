// SCBPCC — Scalable Cluster-Based smoothing CF [Xue et al., SIGIR 2005].
//
// The approach CFSF's smoothing strategy is modelled on (the paper cites
// it as reference [7] and reuses its Eq. 7/8 smoothing).  Offline: K-means
// user clusters + cluster smoothing.  Online: the active user's similarity
// to *every* training user is computed over the smoothed profiles with the
// provenance weights of Eq. 11, the top-K are selected, and the prediction
// is a mean-centred weighted average of their (smoothed) ratings of the
// active item.
//
// Neighbour search: by default every training user is scanned for each
// prediction (`preselect_clusters = 0`).  That matches the CFSF paper's
// characterisation of SCBPCC — it "identifies the similar items over the
// entire item-user matrix each time" and its measured ~2.4× response-time
// gap in Fig. 5 — and it is the accuracy-conservative reading (a full
// scan sees a superset of any pre-selection).  Xue et al. also describe a
// cluster pre-selection optimisation; set `preselect_clusters > 0` for
// that variant (compared in bench/ablation_components).  Either way
// SCBPCC has no sorted GIS and no per-user neighbour cache: the search
// re-runs for every prediction.
#pragma once

#include <cstdint>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "eval/predictor.hpp"

namespace cfsf::baselines {

struct ScbpccConfig {
  std::size_t num_clusters = 30;
  std::size_t top_k_users = 25;
  /// Number of most-affine clusters whose members are scanned for the
  /// top-K selection (Xue et al.'s cluster pre-selection optimisation).
  /// 0 (default) = scan all users; see the header comment.
  std::size_t preselect_clusters = 0;
  double epsilon = 0.35;  // Eq. 11 smoothed-rating weight (originals get 1-ε)
  std::size_t kmeans_max_iterations = 25;
  std::uint64_t seed = 7;
  bool parallel = true;
  /// Same Eq. 8 knob as CfsfConfig::deviation_shrinkage, so the
  /// SCBPCC/CFSF comparison isolates the algorithmic differences rather
  /// than the deviation estimator.
  double deviation_shrinkage = 0.0;
};

class ScbpccPredictor : public eval::Predictor {
 public:
  explicit ScbpccPredictor(const ScbpccConfig& config = {});

  std::string Name() const override { return "SCBPCC"; }
  void Fit(const matrix::RatingMatrix& train) override;
  double Predict(matrix::UserId user, matrix::ItemId item) const override;

  const cluster::ClusterModel& cluster_model() const { return clusters_; }

 private:
  ScbpccConfig config_;
  matrix::RatingMatrix train_;
  cluster::ClusterModel clusters_;
};

}  // namespace cfsf::baselines
