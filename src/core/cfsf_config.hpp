// Configuration for the CFSF model — every symbol the paper names plus
// the engineering and ablation knobs this implementation adds.
#pragma once

#include <cstdint>
#include <string>

#include "similarity/item_similarity.hpp"
#include "util/error.hpp"

namespace cfsf::core {

struct CfsfConfig {
  // --- The paper's parameters (Section V-C defaults for MovieLens) -----
  std::size_t num_clusters = 30;  // C
  std::size_t top_m_items = 95;   // M
  std::size_t top_k_users = 25;   // K
  double lambda = 0.8;            // λ: SUR′ vs SIR′ balance (Eq. 14)
  double delta = 0.1;             // δ: SUIR′ weight (Eq. 14)
  /// w of Eq. 11 ("w = 0.35" in the paper): the weight of a smoothed
  /// rating; originals carry 1 - w.  See sim::ProvenanceWeight for why w
  /// is read as the smoothed-rating weight.
  double epsilon = 0.35;

  // --- Offline phase ----------------------------------------------------
  /// Eq. 5 thresholds.  CFSF demands a slightly larger co-rating overlap
  /// than the generic GIS default (at ~9 % density a 2-user overlap PCC is
  /// pure noise) and shrinks low-overlap similarities (significance
  /// weighting) — the top-M ordering that drives SIR′/SUIR′ is sensitive
  /// to both.
  sim::GisConfig gis{.min_similarity = 0.0, .min_overlap = 4,
                     .significance_weighting = true,
                     .significance_cutoff = 20};
  std::size_t kmeans_max_iterations = 25;
  std::uint64_t seed = 7;                 // K-means initialisation
  /// Pseudo-count shrinking Eq. 8's cluster deviation toward the item's
  /// global deviation (0 = Eq. 8 verbatim; see ClusterModel::Build).
  /// Ablations showed the raw Eq. 8 estimate wins despite its variance —
  /// the cluster-specific signal outweighs the estimation noise — so the
  /// default stays faithful to the paper.
  double deviation_shrinkage = 0.0;

  // --- Online phase ------------------------------------------------------
  /// The candidate pool drawn from the iCluster order contains at least
  /// `candidate_pool_factor` × K users (more clusters are pulled in until
  /// that is met or all clusters are used) — "to cover user preferences as
  /// much as possible" (Section IV-E2).
  std::size_t candidate_pool_factor = 8;
  /// Cache the selected top-K like-minded users per active user ("caching
  /// intermediate results", Section V-D).
  bool use_cache = true;

  // --- Engineering -------------------------------------------------------
  bool parallel = true;

  // --- Ablation switches (bench/ablation_components) ---------------------
  bool use_sir = true;
  bool use_sur = true;
  bool use_suir = true;
  /// SUR′ reads smoothed values for neighbours who did not rate the
  /// active item (weighted by Eq. 11's w).  False restricts SUR′ to
  /// original raters among the top-K.
  bool sur_uses_smoothed = true;
  /// When true, SIR′/SUIR′ also read smoothed cells (at weight w) instead
  /// of only the original ratings extracted into the local matrix.
  /// Section IV-E fills the local M×K matrix "from the original item-user
  /// matrix", and only the original-only reading reproduces Fig. 2's
  /// starvation of SIR′ at small M — so the default is false.
  bool local_matrix_smoothed = false;
  /// Item-mean anchoring for SIR′ and SUIR′: rating contributions enter as
  /// deviations from their item's mean and the estimate is re-anchored at
  /// the active item's mean.  Eq. 12 prints the raw weighted average; the
  /// anchored form is the item-side analogue of the mean-centring Eq. 12's
  /// own SUR′ already applies on the user side, and it is what makes the
  /// λ/δ fusion profitable (see bench/ablation_components).  Set false for
  /// Eq. 12 verbatim.
  bool center_on_item_means = true;

  // --- Time-aware extension (off by default; future-work item) -----------
  bool time_decay = false;
  double time_half_life_days = 180.0;

  /// Throws ConfigError naming the offending field on out-of-range or
  /// inconsistent values.  CfsfModel runs this exactly once, at
  /// construction — callers never invoke it themselves.
  void Validate() const {
    CFSF_REQUIRE(num_clusters > 0,
                 "CfsfConfig.num_clusters: C must be positive");
    CFSF_REQUIRE(top_m_items > 0,
                 "CfsfConfig.top_m_items: M must be positive");
    CFSF_REQUIRE(top_k_users > 0,
                 "CfsfConfig.top_k_users: K must be positive");
    CFSF_REQUIRE(lambda >= 0.0 && lambda <= 1.0,
                 "CfsfConfig.lambda: must be in [0,1] (got " +
                     std::to_string(lambda) + ")");
    CFSF_REQUIRE(delta >= 0.0 && delta <= 1.0,
                 "CfsfConfig.delta: must be in [0,1] (got " +
                     std::to_string(delta) + ")");
    CFSF_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0,
                 "CfsfConfig.epsilon: must be in [0,1] (got " +
                     std::to_string(epsilon) + ")");
    CFSF_REQUIRE(candidate_pool_factor >= 1,
                 "CfsfConfig.candidate_pool_factor: must be >= 1");
    CFSF_REQUIRE(use_sir || use_sur || use_suir,
                 "CfsfConfig.use_sir/use_sur/use_suir: at least one fusion "
                 "component must be enabled");
    CFSF_REQUIRE(!time_decay || time_half_life_days > 0.0,
                 "CfsfConfig.time_half_life_days: must be positive when "
                 "time_decay is on (got " +
                     std::to_string(time_half_life_days) + ")");
  }
};

}  // namespace cfsf::core
