#include "similarity/item_similarity.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "similarity/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace cfsf::sim {

namespace {

/// Eq. 5 sums for one (item, partner) pair over their co-raters.
struct PairSums {
  double dot = 0.0;
  double sq_self = 0.0;   // Σ dev_item² over co-raters
  double sq_other = 0.0;  // Σ dev_partner² over co-raters
  std::uint32_t count = 0;
};

/// Row order: descending similarity, ascending item id on ties.  Ids are
/// unique within a row, so this is a strict total order on its entries.
constexpr auto RowOrder = [](const Neighbor& x, const Neighbor& y) {
  if (x.similarity != y.similarity) return x.similarity > y.similarity;
  return x.index < y.index;
};

// Sorts through raw pointers: over vector iterators GCC 12's -fanalyzer
// loses track of the introsort bounds in this file and reports them
// uninitialized (the ci_check.sh analyzer tier).
void SortRow(std::vector<Neighbor>& row) {
  std::sort(row.data(), row.data() + row.size(), RowOrder);
}

/// What Eq. 5 subtracts from each rating of item i: r̄_i under PCC, 0
/// under the cosine (PCS) kernel, whose "deviation" is the raw rating.
std::vector<double> DeviationOrigins(const matrix::RatingMatrix& matrix,
                                     ItemKernel kernel) {
  std::vector<double> origin(matrix.num_items(), 0.0);
  if (kernel == ItemKernel::kPearson) {
    for (std::size_t i = 0; i < origin.size(); ++i) {
      origin[i] = matrix.ItemMean(static_cast<matrix::ItemId>(i));
    }
  }
  return origin;
}

/// Accumulate step of the Eq. 5 kernel: walks the raters of `item` in
/// ascending user order and adds each one's deviation products with every
/// partner b >= first_partner they rated into sums[b].  Every pair thus
/// sums its co-raters in ascending user order, whichever item of the pair
/// the walk starts from, so Build and RefreshItems produce the same bits.
void AccumulatePairs(const matrix::RatingMatrix& matrix,
                     std::span<const double> origin, matrix::ItemId item,
                     matrix::ItemId first_partner, std::vector<PairSums>& sums) {
  for (const auto& rater : matrix.ItemCol(item)) {
    const double dev_self = rater.value - origin[item];
    const auto row = matrix.UserRow(rater.index);
    const auto* it = std::lower_bound(
        row.data(), row.data() + row.size(), first_partner,
        [](const matrix::Entry& e, matrix::ItemId id) { return e.index < id; });
    for (; it != row.data() + row.size(); ++it) {
      const double dev_other = it->value - origin[it->index];
      PairSums& pair = sums[it->index];
      pair.dot += dev_self * dev_other;
      pair.sq_self += dev_self * dev_self;
      pair.sq_other += dev_other * dev_other;
      ++pair.count;
    }
  }
}

/// Finish step: turns sums[first_partner..Q) into Eq. 5 similarities
/// (significance-weighted when configured), calls emit(partner, sim) for
/// each pair that passes min_overlap and min_similarity, and zeroes every
/// slot for the next item.  The item's own slot is never emitted.
template <typename Emit>
void FinishPairs(const GisConfig& config, matrix::ItemId item,
                 matrix::ItemId first_partner, std::vector<PairSums>& sums,
                 Emit&& emit) {
  for (std::size_t b = first_partner; b < sums.size(); ++b) {
    if (sums[b].count == 0) continue;
    const PairSums pair = std::exchange(sums[b], PairSums{});
    if (b == item) continue;
    const double denom = std::sqrt(pair.sq_self) * std::sqrt(pair.sq_other);
    if (denom <= 0.0) continue;
    double sim = pair.dot / denom;
    if (config.significance_weighting) {
      sim = SignificanceWeight(sim, pair.count, config.significance_cutoff);
    }
    if (pair.count < config.min_overlap || !(sim > config.min_similarity)) continue;
    emit(static_cast<matrix::ItemId>(b), static_cast<float>(sim));
  }
}

}  // namespace

GlobalItemSimilarity GlobalItemSimilarity::Build(
    const matrix::RatingMatrix& matrix, const GisConfig& config) {
  const std::size_t q = matrix.num_items();
  GlobalItemSimilarity gis;
  gis.config_ = config;
  gis.rows_.assign(q, {});

  // Each pair (a, b), a < b, is computed once from a and mirrored into b.
  const auto origin = DeviationOrigins(matrix, config.kernel);
  std::vector<PairSums> sums(q);
  for (matrix::ItemId a = 0; a < q; ++a) {
    AccumulatePairs(matrix, origin, a, a + 1, sums);
    FinishPairs(config, a, a + 1, sums, [&](matrix::ItemId b, float sim) {
      gis.rows_[a].push_back(Neighbor{b, sim});
      gis.rows_[b].push_back(Neighbor{a, sim});
    });
  }
  for (auto& row : gis.rows_) {
    SortRow(row);
    row.shrink_to_fit();
  }
  return gis;
}

GlobalItemSimilarity GlobalItemSimilarity::FromRows(
    std::vector<std::vector<Neighbor>> rows, const GisConfig& config) {
  GlobalItemSimilarity gis;
  gis.config_ = config;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    for (std::size_t k = 0; k < row.size(); ++k) {
      CFSF_REQUIRE(row[k].index < rows.size(),
                   "GIS row " + std::to_string(i) +
                       " references an item outside the matrix");
      CFSF_REQUIRE(row[k].index != i,
                   "GIS row " + std::to_string(i) + " lists the item itself");
      // RefreshItems merges fresh entries into the stored rows, which
      // equals a re-sort only for rows already in row order.
      CFSF_REQUIRE(k == 0 || RowOrder(row[k - 1], row[k]),
                   "GIS row " + std::to_string(i) +
                       " is not similarity-descending with ascending-id "
                       "tie-breaks");
    }
  }
  gis.rows_ = std::move(rows);
  return gis;
}

std::span<const Neighbor> GlobalItemSimilarity::Neighbors(
    matrix::ItemId item) const {
  CFSF_ASSERT(item < rows_.size(), "item id out of range");
  return rows_[item];
}

std::span<const Neighbor> GlobalItemSimilarity::TopM(matrix::ItemId item,
                                                     std::size_t m) const {
  const auto row = Neighbors(item);
  return row.subspan(0, std::min(m, row.size()));
}

double GlobalItemSimilarity::Similarity(matrix::ItemId item,
                                        matrix::ItemId other) const {
  for (const auto& n : Neighbors(item)) {
    if (n.index == other) return n.similarity;
  }
  return 0.0;
}

std::size_t GlobalItemSimilarity::TotalNeighbors() const {
  std::size_t total = 0;
  for (const auto& row : rows_) total += row.size();
  return total;
}

void GlobalItemSimilarity::RefreshItems(const matrix::RatingMatrix& matrix,
                                        std::span<const matrix::ItemId> items) {
  CFSF_REQUIRE(matrix.num_items() == rows_.size(),
               "RefreshItems matrix shape mismatch");
  if (items.empty()) return;
  const std::size_t q = rows_.size();

  // Dense membership flags; `affected` lists each touched item once.
  std::vector<std::uint8_t> is_affected(q, 0);
  std::vector<matrix::ItemId> affected;
  for (const auto item : items) {
    CFSF_REQUIRE(item < q, "RefreshItems item id out of range");
    if (is_affected[item] == 0) {
      is_affected[item] = 1;
      affected.push_back(item);
    }
  }

  // Recompute each affected item against every other item with Build's
  // Eq. 5 kernel.
  const auto origin = DeviationOrigins(matrix, config_.kernel);
  std::vector<PairSums> sums(q);
  std::vector<std::vector<Neighbor>> fresh(q);  // fresh[j] = new entries into row j
  for (const auto item : affected) {
    auto& own_row = rows_[item];
    own_row.clear();
    AccumulatePairs(matrix, origin, item, 0, sums);
    FinishPairs(config_, item, 0, sums, [&](matrix::ItemId b, float sim) {
      own_row.push_back(Neighbor{b, sim});
      if (is_affected[b] == 0) fresh[b].push_back(Neighbor{item, sim});
    });
    SortRow(own_row);
  }

  // Splice the affected items into every other row.  Dropping the stale
  // entries leaves a row in row order, so only the fresh entries need a
  // sort before one merge; RowOrder is a strict total order within a row,
  // so the merge equals a full re-sort.
  for (std::size_t j = 0; j < q; ++j) {
    if (is_affected[j] != 0) continue;
    auto& row = rows_[j];
    auto& add = fresh[j];
    const auto stale = std::remove_if(
        row.begin(), row.end(),
        [&is_affected](const Neighbor& n) { return is_affected[n.index] != 0; });
    if (stale == row.end() && add.empty()) continue;
    row.erase(stale, row.end());
    SortRow(add);
    std::vector<Neighbor> merged;
    merged.reserve(row.size() + add.size());
    std::merge(row.begin(), row.end(), add.begin(), add.end(),
               std::back_inserter(merged), RowOrder);
    row = std::move(merged);
  }
}

void GlobalItemSimilarity::DebugValidate() const {
  const std::size_t q = rows_.size();
  for (std::size_t i = 0; i < q; ++i) {
    const auto& row = rows_[i];
    for (std::size_t k = 0; k < row.size(); ++k) {
      CFSF_VALIDATE(row[k].index < q, "GIS neighbour id out of range");
      CFSF_VALIDATE(row[k].index != i, "GIS row contains the item itself");
      CFSF_VALIDATE(std::isfinite(row[k].similarity),
                    "GIS similarity must be finite");
      CFSF_VALIDATE(row[k].similarity >= -1.0F - 1e-5F &&
                        row[k].similarity <= 1.0F + 1e-5F,
                    "GIS similarity outside [-1, 1]");
      CFSF_VALIDATE(static_cast<double>(row[k].similarity) > config_.min_similarity,
                    "GIS similarity at or below the Eq. 5 threshold");
      if (k > 0) {
        const bool descending =
            row[k - 1].similarity > row[k].similarity ||
            (row[k - 1].similarity == row[k].similarity &&
             row[k - 1].index < row[k].index);
        CFSF_VALIDATE(descending,
                      "GIS row must be similarity-descending with "
                      "ascending-id tie-breaks");
      }
    }
  }

  // Build and RefreshItems compute a pair with one kernel whose sums run
  // in the same order from either end, and store it in both rows, so every
  // pair appears in both directions with equal bits.
  std::vector<std::unordered_map<std::uint32_t, float>> by_index(q);
  for (std::size_t i = 0; i < q; ++i) {
    by_index[i].reserve(rows_[i].size());
    for (const auto& n : rows_[i]) by_index[i].emplace(n.index, n.similarity);
  }
  for (std::size_t i = 0; i < q; ++i) {
    for (const auto& n : rows_[i]) {
      const auto it = by_index[n.index].find(static_cast<std::uint32_t>(i));
      CFSF_VALIDATE(it != by_index[n.index].end(),
                    "GIS pair stored in one direction only");
      CFSF_VALIDATE(it->second == n.similarity,
                    "GIS must be value-symmetric");
    }
  }
}

}  // namespace cfsf::sim
