// Global Item Similarity matrix — the paper's GIS (Section IV-B).
//
// One Eq. 5 kernel computes every item–item Pearson correlation, in two
// steps per item a.  Accumulate walks a's raters in ascending user order
// and adds each rater's deviation products into a dense length-Q array
// keyed by partner item, holding (dot, sq_self, sq_other, count) per
// partner.  Finish turns each slot into the PCC, applies significance
// weighting and the min_overlap/min_similarity filters, and casts to
// float.  Build runs it for every a against partners b > a and mirrors
// each kept pair; RefreshItems runs it for each touched item against
// every b.  A pair's sums always run over its co-raters in ascending user
// order, so a refreshed row equals a rebuilt one bit for bit.  The whole
// build costs Σ_u |I{u}|(|I{u}|−1)/2 pair updates, ~2.6 M for the paper's
// 500×1000 matrix, with O(Q) working memory.
//
// Per the paper, rows are sorted in descending similarity and thresholds
// filter "less important items" so "the size of GIS [is] greatly reduced".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matrix/rating_matrix.hpp"

namespace cfsf::sim {

/// One neighbour in a similarity list.
struct Neighbor {
  std::uint32_t index = 0;       // item id in GIS rows, user id in user lists
  float similarity = 0.0F;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Similarity function for the all-pairs build.  The paper selects PCC
/// over Pure Cosine Similarity "because PCS does not consider the
/// diversity in item ratings" (Section IV-B); kCosine exists to measure
/// that claim (bench/ablation_components).
enum class ItemKernel { kPearson, kCosine };

struct GisConfig {
  ItemKernel kernel = ItemKernel::kPearson;
  /// Keep only pairs with similarity strictly greater than this (the
  /// paper's Eq. 5 threshold).  GIS rows feed the top-M selection, where
  /// negative correlations would produce negative fusion weights.
  double min_similarity = 0.0;
  /// Pairs with fewer co-raters than this are discarded (PCC over one
  /// common rating is meaningless).
  std::size_t min_overlap = 2;
  /// Multiply each similarity by min(overlap, cutoff)/cutoff.
  bool significance_weighting = false;
  std::size_t significance_cutoff = 50;
};

class GlobalItemSimilarity {
 public:
  GlobalItemSimilarity() = default;

  static GlobalItemSimilarity Build(const matrix::RatingMatrix& matrix,
                                    const GisConfig& config = {});

  /// Reconstructs a GIS from previously built rows (model persistence).
  /// Throws ConfigError naming the first row that references an item
  /// outside the matrix, lists its own item, or is out of row order
  /// (similarity-descending, ascending id on ties): RefreshItems merges
  /// fresh entries into the stored rows and is exact only for rows in
  /// that order.
  static GlobalItemSimilarity FromRows(std::vector<std::vector<Neighbor>> rows,
                                       const GisConfig& config);

  std::size_t num_items() const { return rows_.size(); }

  /// Neighbours of `item`, sorted by descending similarity (ties broken by
  /// ascending item id for determinism).  Never contains `item` itself.
  std::span<const Neighbor> Neighbors(matrix::ItemId item) const;

  /// The top-M prefix of Neighbors(item) (fewer if the row is short).
  std::span<const Neighbor> TopM(matrix::ItemId item, std::size_t m) const;

  /// Linear lookup (test/diagnostic use); 0 if `other` was filtered out.
  double Similarity(matrix::ItemId item, matrix::ItemId other) const;

  /// Total stored neighbour entries (size of the reduced GIS).
  std::size_t TotalNeighbors() const;

  /// Incremental maintenance (the paper's "keep GIS up-to-date" future
  /// work): recompute the rows of `items` — and their appearance in other
  /// rows — against the given (updated) matrix with Build's Eq. 5 kernel.
  /// Every other row drops its stale entries and merges the fresh ones
  /// in.  If this GIS equals Build(old) and `matrix` differs from old only
  /// in the columns of `items`, the result equals Build(matrix) bit for
  /// bit.
  void RefreshItems(const matrix::RatingMatrix& matrix,
                    std::span<const matrix::ItemId> items);

  /// Structural validation sweep: every row similarity-descending with
  /// ascending-id tie-breaks, similarities finite, inside [-1, 1] and
  /// above the Eq. 5 threshold, neighbour ids in range, no
  /// self-neighbours, and every pair stored in both rows with equal
  /// values.  Throws util::InvariantError on violation.
  void DebugValidate() const;

  const GisConfig& config() const { return config_; }

 private:
  std::vector<std::vector<Neighbor>> rows_;
  GisConfig config_;
};

}  // namespace cfsf::sim
