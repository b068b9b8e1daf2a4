#include "similarity/item_similarity.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "similarity/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace cfsf::sim {

namespace {

/// Accumulators for one item pair restricted to co-rating users.
struct PairAcc {
  double dot = 0.0;
  double sq_a = 0.0;  // Σ dev_a² over co-raters (a = smaller item id)
  double sq_b = 0.0;
  std::uint32_t count = 0;
};

std::size_t TriSize(std::size_t n) { return n * (n - 1) / 2; }

/// Index of pair (a, b) with a < b in a row-major upper triangle.
inline std::size_t TriIndex(std::size_t n, std::size_t a, std::size_t b) {
  return a * n - a * (a + 1) / 2 + (b - a - 1);
}

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

bool PassesFilters(const GisConfig& config, double sim, std::size_t overlap) {
  return overlap >= config.min_overlap && sim > config.min_similarity;
}

double ApplySignificance(const GisConfig& config, double sim, std::size_t overlap) {
  if (!config.significance_weighting) return sim;
  return SignificanceWeight(sim, overlap, config.significance_cutoff);
}

}  // namespace

GlobalItemSimilarity GlobalItemSimilarity::Build(
    const matrix::RatingMatrix& matrix, const GisConfig& config) {
  const std::size_t q = matrix.num_items();
  const std::size_t p = matrix.num_users();

  GlobalItemSimilarity gis;
  gis.config_ = config;
  gis.rows_.assign(q, {});
  if (q < 2) return gis;

  // Cache item means once; the deviations in Eq. 5 are from r̄_i over all
  // raters of i.  Under the cosine (PCS) kernel the "deviation" is the
  // raw rating — the same accumulation then yields the cosine.
  std::vector<double> item_mean(q, 0.0);
  if (config.kernel == ItemKernel::kPearson) {
    for (std::size_t i = 0; i < q; ++i) {
      item_mean[i] = matrix.ItemMean(static_cast<matrix::ItemId>(i));
    }
  }

  using AccVector = std::vector<PairAcc>;
  par::ForOptions options;
  options.serial = !config.parallel;
  // Each partial holds the full triangle (~16 MB at Q=1000); bound the
  // number of partials instead of letting the chunk count scale with the
  // thread count.
  options.grain = std::max<std::size_t>(1, p / 4);

  auto fold_user = [&](AccVector& acc, std::size_t u) {
    const auto row = matrix.UserRow(static_cast<matrix::UserId>(u));
    for (std::size_t x = 0; x < row.size(); ++x) {
      const std::size_t a = row[x].index;
      const double dev_a = row[x].value - item_mean[a];
      for (std::size_t y = x + 1; y < row.size(); ++y) {
        const std::size_t b = row[y].index;
        const double dev_b = row[y].value - item_mean[b];
        PairAcc& pair = acc[TriIndex(q, a, b)];
        pair.dot += dev_a * dev_b;
        pair.sq_a += dev_a * dev_a;
        pair.sq_b += dev_b * dev_b;
        ++pair.count;
      }
    }
  };

  const AccVector totals = par::ParallelReduce<AccVector>(
      0, p,
      [&] { return AccVector(TriSize(q)); },
      fold_user,
      [](AccVector& total, AccVector& partial) {
        if (total.empty()) {
          total = std::move(partial);
          return;
        }
        for (std::size_t k = 0; k < total.size(); ++k) {
          total[k].dot += partial[k].dot;
          total[k].sq_a += partial[k].sq_a;
          total[k].sq_b += partial[k].sq_b;
          total[k].count += partial[k].count;
        }
      },
      AccVector{}, options);

  // Materialise filtered, sorted neighbour rows.
  for (std::size_t a = 0; a < q; ++a) {
    for (std::size_t b = a + 1; b < q; ++b) {
      const PairAcc& pair = totals[TriIndex(q, a, b)];
      if (pair.count == 0) continue;
      const double denom = std::sqrt(pair.sq_a) * std::sqrt(pair.sq_b);
      if (denom <= 0.0) continue;
      double sim = pair.dot / denom;
      sim = ApplySignificance(config, sim, pair.count);
      if (!PassesFilters(config, sim, pair.count)) continue;
      gis.rows_[a].push_back(
          Neighbor{static_cast<std::uint32_t>(b), static_cast<float>(sim)});
      gis.rows_[b].push_back(
          Neighbor{static_cast<std::uint32_t>(a), static_cast<float>(sim)});
    }
  }
  for (auto& row : gis.rows_) {
    SortRow(row);
    if (config.max_neighbors != 0 && row.size() > config.max_neighbors) {
      row.resize(config.max_neighbors);
    }
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

  // Recompute similarities of each affected item against every other item
  // with the direct column-merge kernel.
  std::vector<std::vector<Neighbor>> fresh(q);  // fresh[j] = new entries into row j
  for (const auto item : affected) {
    const auto col_a = matrix.ItemCol(item);
    const double mean_a = matrix.ItemMean(item);
    auto& own_row = rows_[item];
    own_row.clear();
    for (std::size_t b = 0; b < q; ++b) {
      if (b == item) continue;
      const auto col_b = matrix.ItemCol(static_cast<matrix::ItemId>(b));
      const auto result =
          config_.kernel == ItemKernel::kPearson
              ? PearsonSparse(col_a, col_b, mean_a,
                              matrix.ItemMean(static_cast<matrix::ItemId>(b)))
              : CosineSparse(col_a, col_b);
      double sim = ApplySignificance(config_, result.value, result.overlap);
      if (!PassesFilters(config_, sim, result.overlap)) continue;
      own_row.push_back(
          Neighbor{static_cast<std::uint32_t>(b), static_cast<float>(sim)});
      if (is_affected[b] == 0) {
        fresh[b].push_back(Neighbor{item, static_cast<float>(sim)});
      }
    }
    SortRow(own_row);
    if (config_.max_neighbors != 0 && own_row.size() > config_.max_neighbors) {
      own_row.resize(config_.max_neighbors);
    }
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
    if (config_.max_neighbors != 0 && merged.size() > config_.max_neighbors) {
      merged.resize(config_.max_neighbors);
    }
    row = std::move(merged);
  }
}

void GlobalItemSimilarity::DebugValidate() const {
  const std::size_t q = rows_.size();
  for (std::size_t i = 0; i < q; ++i) {
    const auto& row = rows_[i];
    CFSF_VALIDATE(config_.max_neighbors == 0 || row.size() <= config_.max_neighbors,
                  "GIS row exceeds the max_neighbors cap");
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

  // PCC is symmetric, so wherever both directions of a pair survived the
  // thresholds their stored values must agree.  (A missing reciprocal is
  // legal: max_neighbors truncates rows independently.)  The tolerance
  // absorbs float rounding between the all-pairs build and the
  // RefreshItems recomputation path.
  std::vector<std::unordered_map<std::uint32_t, float>> by_index(q);
  for (std::size_t i = 0; i < q; ++i) {
    by_index[i].reserve(rows_[i].size());
    for (const auto& n : rows_[i]) by_index[i].emplace(n.index, n.similarity);
  }
  for (std::size_t i = 0; i < q; ++i) {
    for (const auto& n : rows_[i]) {
      const auto it = by_index[n.index].find(static_cast<std::uint32_t>(i));
      if (it == by_index[n.index].end()) continue;
      CFSF_VALIDATE(std::fabs(it->second - n.similarity) <= 1e-4F,
                    "GIS must be value-symmetric where both directions exist");
    }
  }
}

}  // namespace cfsf::sim
