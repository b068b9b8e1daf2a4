#include "core/cfsf_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "obs/failpoint.hpp"
#include "obs/names.hpp"
#include "similarity/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cfsf::core {
namespace {

// The model's instrumentation points, resolved against the global
// registry once (thread-safe static init) and shared by every CfsfModel
// instance.  Names are documented in docs/OBSERVABILITY.md.
struct CfsfMetrics {
  obs::Counter& fit_count;
  obs::Gauge& fit_cum_seconds;
  obs::Counter& predict_count;
  obs::Histogram& predict_latency_us;
  obs::Counter& batch_count;
  obs::Histogram& batch_size;
  obs::Counter& sir_used;
  obs::Counter& sur_used;
  obs::Counter& suir_used;
  obs::Counter& cache_hit;
  obs::Counter& cache_miss;
  obs::Histogram& topk_pool_size;
  obs::Counter& topn_candidates;
  obs::Counter& topn_fused;

  static const CfsfMetrics& Get() {
    static const CfsfMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return CfsfMetrics{
          registry.GetCounter(obs::names::kCfsfFitCount),
          registry.GetGauge(obs::names::kCfsfFitCumSeconds),
          registry.GetCounter(obs::names::kCfsfPredictCount),
          registry.GetHistogram(obs::names::kCfsfPredictLatencyUs,
                                obs::LatencyBucketsUs()),
          registry.GetCounter(obs::names::kCfsfPredictBatchCount),
          registry.GetHistogram(obs::names::kCfsfPredictBatchSize, obs::SizeBuckets()),
          registry.GetCounter(obs::names::kCfsfComponentSir),
          registry.GetCounter(obs::names::kCfsfComponentSur),
          registry.GetCounter(obs::names::kCfsfComponentSuir),
          registry.GetCounter(obs::names::kCfsfTopkCacheHit),
          registry.GetCounter(obs::names::kCfsfTopkCacheMiss),
          registry.GetHistogram(obs::names::kCfsfTopkPoolSize, obs::SizeBuckets()),
          registry.GetCounter(obs::names::kCfsfTopnCandidates),
          registry.GetCounter(obs::names::kCfsfTopnFused),
      };
    }();
    return metrics;
  }
};

}  // namespace

CfsfModel::CfsfModel(const CfsfConfig& config) : config_(config) {
  config_.Validate();
}

void CfsfModel::Fit(const matrix::RatingMatrix& train) {
  CFSF_REQUIRE(train.num_users() > 0 && train.num_items() > 0,
               "cannot fit CFSF on an empty matrix");
  CFSF_FAILPOINT("cfsf.fit");
  train_ = train;

  obs::PhaseProfiler profiler;

  // Step 1: GIS (Eq. 5), thresholded and similarity-descending.
  profiler.Begin("gis");
  gis_ = sim::GlobalItemSimilarity::Build(train_, config_.gis);

  // Step 2: K-means user clusters (Eq. 6).
  profiler.Begin("kmeans");
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = std::min(config_.num_clusters, train_.num_users());
  kconfig.max_iterations = config_.kmeans_max_iterations;
  kconfig.seed = config_.seed;
  kconfig.parallel = config_.parallel;
  const auto kmeans = cluster::RunKMeans(train_, kconfig);
  profiler.End();

  // Step 3: smoothing (Eq. 7–8) and iCluster lists (Eq. 9) — recorded as
  // the "smoothing" and "icluster" phases by ClusterModel::Build itself.
  BuildClusters(kmeans.assignments, kconfig.num_clusters, &profiler);
  if constexpr (util::ChecksEnabled()) {
    train_.DebugValidate();
    gis_.DebugValidate();
    clusters_.DebugValidate(train_);
  }
  fitted_ = true;

  const auto& metrics = CfsfMetrics::Get();
  metrics.fit_count.Increment();
  profiler.CommitTo(obs::MetricsRegistry::Global(), "cfsf.fit");
  metrics.fit_cum_seconds.Add(profiler.TotalSeconds());

  CFSF_LOG_INFO << "CFSF fitted: " << train_.num_users() << " users, "
                << train_.num_items() << " items, GIS entries "
                << gis_.TotalNeighbors() << ", C=" << kconfig.num_clusters;
}

std::unique_ptr<CfsfModel> CfsfModel::Restore(
    const CfsfConfig& config, matrix::RatingMatrix train,
    sim::GlobalItemSimilarity gis, std::vector<std::uint32_t> assignments) {
  CFSF_REQUIRE(assignments.size() == train.num_users(),
               "Restore: assignments size must equal the user count");
  CFSF_REQUIRE(gis.num_items() == train.num_items(),
               "Restore: GIS shape must match the matrix");
  std::size_t num_clusters = 0;
  for (const auto a : assignments) {
    num_clusters = std::max<std::size_t>(num_clusters, a + 1);
  }
  CFSF_REQUIRE(num_clusters > 0, "Restore: empty assignment vector");

  auto model = std::make_unique<CfsfModel>(config);
  model->train_ = std::move(train);
  model->gis_ = std::move(gis);
  model->BuildClusters(assignments, num_clusters);
  model->fitted_ = true;
  return model;
}

void CfsfModel::BuildClusters(std::span<const std::uint32_t> assignments,
                              std::size_t num_clusters,
                              obs::PhaseProfiler* profiler) {
  clusters_ = cluster::ClusterModel::Build(train_, assignments, num_clusters,
                                           config_.parallel,
                                           config_.deviation_shrinkage,
                                           profiler);

  latest_timestamp_ = 0;
  if (train_.has_timestamps()) {
    for (std::size_t u = 0; u < train_.num_users(); ++u) {
      for (const auto ts : train_.UserRowTimestamps(static_cast<matrix::UserId>(u))) {
        latest_timestamp_ = std::max(latest_timestamp_, ts);
      }
    }
  }

  util::MutexLock lock(&cache_mutex_);
  cache_.assign(train_.num_users(), nullptr);
}

std::vector<SelectedUser> CfsfModel::ComputeTopKUsers(matrix::UserId user) const {
  // Section IV-E2: walk the iCluster order, pooling whole clusters until
  // the pool can support the top-K selection, then rank by Eq. 10.
  //
  // Eq. 10 runs one pooled cluster at a time, off the Eq. 8 table and the
  // cluster's rating columns rather than the dense smoothed rows.  For
  // each active item in ascending order, every member's term is first set
  // from its smoothed cell, dc = (r̄_v + Δ_{c,i}) − r̄_v at weight w (the
  // expression Build stores; in floating point it is not Δ), then the
  // members in the item's column are overwritten with dc = r − r̄_v at
  // weight 1 − w.  Each candidate so adds exactly the terms
  // sim::SmoothingAwarePcc adds, in the same order, and every similarity
  // is bit-identical to it.
  const auto active_row = train_.UserRow(user);
  const double active_mean = train_.UserMean(user);
  const std::size_t want_pool =
      std::max<std::size_t>(config_.top_k_users,
                            config_.top_k_users * config_.candidate_pool_factor);
  const double w_smoothed = sim::ProvenanceWeight(false, config_.epsilon);
  const double w_original = sim::ProvenanceWeight(true, config_.epsilon);

  std::vector<double> da(active_row.size());
  double sq_active = 0.0;
  for (std::size_t k = 0; k < active_row.size(); ++k) {
    da[k] = active_row[k].value - active_mean;
    sq_active += da[k] * da[k];
  }

  // Per member of the cluster at hand: r̄_v, the current item's w·dc and
  // w²·dc², and the two Eq. 10 sums.
  std::vector<double> mean;
  std::vector<double> term;
  std::vector<double> square;
  std::vector<double> num;
  std::vector<double> sq;
  std::vector<SelectedUser> scored;
  scored.reserve(want_pool + 64);
  std::size_t pooled = 0;
  for (const auto& affinity : clusters_.IClusterOf(user)) {
    const auto members = clusters_.Members(affinity.cluster);
    const std::size_t n = members.size();
    mean.resize(n);
    term.resize(n);
    square.resize(n);
    num.assign(n, 0.0);
    sq.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) mean[j] = clusters_.UserMean(members[j]);
    for (std::size_t k = 0; k < active_row.size(); ++k) {
      const matrix::ItemId item = active_row[k].index;
      const double dev = clusters_.ClusterDeviation(affinity.cluster, item);
      for (std::size_t j = 0; j < n; ++j) {
        const double dc = (mean[j] + dev) - mean[j];
        term[j] = w_smoothed * dc;
        square[j] = w_smoothed * w_smoothed * dc * dc;
      }
      for (const auto& r : clusters_.ClusterColumn(affinity.cluster, item)) {
        const double dc = r.value - mean[r.member];
        term[r.member] = w_original * dc;
        square[r.member] = w_original * w_original * dc * dc;
      }
      for (std::size_t j = 0; j < n; ++j) {
        num[j] += term[j] * da[k];
        sq[j] += square[j];
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (members[j] == user) continue;
      ++pooled;
      const double denom = std::sqrt(sq[j]) * std::sqrt(sq_active);
      const double similarity = denom > 0.0 ? num[j] / denom : 0.0;
      if (similarity > 0.0) scored.push_back(SelectedUser{members[j], similarity});
    }
    if (pooled >= want_pool) break;
  }
  CfsfMetrics::Get().topk_pool_size.Record(static_cast<double>(pooled));

  const std::size_t k = std::min(config_.top_k_users, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const SelectedUser& a, const SelectedUser& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.user < b.user;
                    });
  scored.resize(k);
  return scored;
}

std::shared_ptr<const std::vector<SelectedUser>> CfsfModel::TopKUsersCached(
    matrix::UserId user) const {
  const auto& metrics = CfsfMetrics::Get();
  if (!config_.use_cache) {
    metrics.cache_miss.Increment();
    return std::make_shared<const std::vector<SelectedUser>>(
        ComputeTopKUsers(user));
  }
  {
    util::MutexLock lock(&cache_mutex_);
    if (cache_[user]) {
      metrics.cache_hit.Increment();
      return cache_[user];
    }
  }
  metrics.cache_miss.Increment();
  auto computed = std::make_shared<const std::vector<SelectedUser>>(
      ComputeTopKUsers(user));
  util::MutexLock lock(&cache_mutex_);
  if (!cache_[user]) cache_[user] = computed;
  return cache_[user];
}

std::vector<SelectedUser> CfsfModel::SelectTopKUsers(matrix::UserId user) const {
  CFSF_REQUIRE(fitted_, "SelectTopKUsers before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  return *TopKUsersCached(user);
}

double CfsfModel::TimeDecayWeight(matrix::UserId user, matrix::ItemId item) const {
  if (!config_.time_decay || !train_.has_timestamps()) return 1.0;
  const auto row = train_.UserRow(user);
  const auto ts = train_.UserRowTimestamps(user);
  const auto it = std::lower_bound(
      row.begin(), row.end(), item,
      [](const matrix::Entry& e, matrix::ItemId target) {
        return e.index < target;
      });
  if (it == row.end() || it->index != item) return 1.0;
  const auto stamp = ts[static_cast<std::size_t>(it - row.begin())];
  if (stamp == 0) return 1.0;
  const double age_days =
      static_cast<double>(latest_timestamp_ - stamp) / 86400.0;
  return std::exp2(-std::max(age_days, 0.0) / config_.time_half_life_days);
}

// --- SIR′: the active user's ratings on the top-M similar items
// (Eq. 12, first line; item-mean anchored by default, see
// CfsfConfig::center_on_item_means).  The local matrix is filled from
// the original ratings; smoothed cells only participate (at weight w)
// when local_matrix_smoothed is set.  Shared between the full fusion
// path and the degraded SIR′-only serving path.
std::optional<double> CfsfModel::SirEstimate(
    matrix::UserId user, matrix::ItemId item,
    std::span<const sim::Neighbor> top_items) const {
  const auto active_mask = clusters_.OriginalMask(user);
  const auto active_profile = clusters_.SmoothedProfile(user);
  const bool center = config_.center_on_item_means;

  double num = 0.0;
  double den = 0.0;
  for (const auto& n : top_items) {
    const bool original = active_mask[n.index] != 0;
    if (!original && !config_.local_matrix_smoothed) continue;
    double w = sim::ProvenanceWeight(original, config_.epsilon);
    if (original) w *= TimeDecayWeight(user, n.index);
    const double value = center ? active_profile[n.index] -
                                      train_.ItemMean(n.index)
                                : active_profile[n.index];
    num += w * n.similarity * value;
    den += w * n.similarity;
  }
  if (den <= 0.0) return std::nullopt;
  const double item_anchor = center ? train_.ItemMean(item) : 0.0;
  return item_anchor + num / den;
}

std::optional<double> CfsfModel::PredictSirOnly(matrix::UserId user,
                                                matrix::ItemId item) const {
  CFSF_REQUIRE(fitted_, "PredictSirOnly before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  CFSF_REQUIRE(item < train_.num_items(), "item id out of range");
  CFSF_FAILPOINT("cfsf.predict.sir");
  return SirEstimate(user, item, gis_.TopM(item, config_.top_m_items));
}

// --- Step 1: SIR′, and SUR′ — the mean-centred ratings of the top-K
// like-minded users on the active item (Eq. 12, second line).
FusionBreakdown CfsfModel::SirSurEstimates(
    matrix::UserId user, matrix::ItemId item,
    std::span<const sim::Neighbor> top_items,
    std::span<const SelectedUser> neighbors) const {
  FusionBreakdown result;
  if (config_.use_sir) {
    result.sir = SirEstimate(user, item, top_items);
  }
  if (config_.use_sur) {
    double num = 0.0;
    double den = 0.0;
    for (const auto& t : neighbors) {
      const bool original = clusters_.OriginalMask(t.user)[item] != 0;
      if (!original && !config_.sur_uses_smoothed) continue;
      double w = sim::ProvenanceWeight(original, config_.epsilon);
      if (original) w *= TimeDecayWeight(t.user, item);
      const double value = clusters_.SmoothedProfile(t.user)[item];
      num += w * t.similarity * (value - clusters_.UserMean(t.user));
      den += w * t.similarity;
    }
    if (den > 0.0) result.sur = train_.UserMean(user) + num / den;
  }
  return result;
}

// --- Step 2: SUIR′, the like-minded users' ratings on the similar items
// weighted by the Eq. 13 cross similarity (Eq. 12, third line).  A mean
// of value terms under non-negative weights, so it never exceeds the
// item anchor plus SuirTermBound — the bound RecommendTopN prunes with.
std::optional<double> CfsfModel::SuirEstimate(
    matrix::ItemId item, std::span<const sim::Neighbor> top_items,
    std::span<const SelectedUser> neighbors) const {
  const bool center = config_.center_on_item_means;
  double num = 0.0;
  double den = 0.0;
  const double w_original = 1.0 - config_.epsilon;
  const double w_smoothed = config_.epsilon;
  for (const auto& t : neighbors) {
    const auto profile = clusters_.SmoothedProfile(t.user);
    const auto mask = clusters_.OriginalMask(t.user);
    const double user_sim = t.similarity;
    const double user_sim_sq = user_sim * user_sim;
    for (const auto& s : top_items) {
      const bool original = mask[s.index] != 0;
      if (!original && !config_.local_matrix_smoothed) continue;
      // Eq. 13 inlined with the per-neighbour square hoisted out.
      const double item_sim = s.similarity;
      const double sum_sq = item_sim * item_sim + user_sim_sq;
      if (sum_sq <= 0.0) continue;
      const double cross = item_sim * user_sim / std::sqrt(sum_sq);
      if (cross <= 0.0) continue;
      double w = original ? w_original : w_smoothed;
      if (original && config_.time_decay) w *= TimeDecayWeight(t.user, s.index);
      const double value = center ? profile[s.index] -
                                        train_.ItemMean(s.index)
                                  : profile[s.index];
      num += w * cross * value;
      den += w * cross;
    }
  }
  if (!(den > 0.0)) return std::nullopt;
  const double item_anchor = center ? train_.ItemMean(item) : 0.0;
  return item_anchor + num / den;
}

// --- Step 3: Eq. 14, renormalised over the components that produced a
// value.  Non-decreasing in SUIR′ (δ ≥ 0), rounding included.
double CfsfModel::Blend(const FusionBreakdown& parts, double user_mean) const {
  double weight_sum = 0.0;
  double value = 0.0;
  if (parts.sir) {
    const double w = (1.0 - config_.delta) * (1.0 - config_.lambda);
    value += w * *parts.sir;
    weight_sum += w;
  }
  if (parts.sur) {
    const double w = (1.0 - config_.delta) * config_.lambda;
    value += w * *parts.sur;
    weight_sum += w;
  }
  if (parts.suir) {
    value += config_.delta * *parts.suir;
    weight_sum += config_.delta;
  }
  return weight_sum > 0.0 ? value / weight_sum : user_mean;
}

void CfsfModel::CompleteFusion(matrix::UserId user, matrix::ItemId item,
                               std::span<const sim::Neighbor> top_items,
                               std::span<const SelectedUser> neighbors,
                               FusionBreakdown& parts) const {
  CFSF_FAILPOINT("cfsf.predict");
  if (config_.use_suir) {
    parts.suir = SuirEstimate(item, top_items, neighbors);
  }
  parts.fused = Blend(parts, train_.UserMean(user));
  CFSF_CHECK_FINITE(parts.fused, "Eq. 14 fused prediction");

  const auto& metrics = CfsfMetrics::Get();
  if (parts.sir) metrics.sir_used.Increment();
  if (parts.sur) metrics.sur_used.Increment();
  if (parts.suir) metrics.suir_used.Increment();
}

FusionBreakdown CfsfModel::PredictWithNeighbors(
    matrix::UserId user, matrix::ItemId item,
    std::span<const SelectedUser> neighbors) const {
  const auto top_items = gis_.TopM(item, config_.top_m_items);
  FusionBreakdown result = SirSurEstimates(user, item, top_items, neighbors);
  CompleteFusion(user, item, top_items, neighbors, result);
  return result;
}

std::optional<double> CfsfModel::SuirTermBound(
    std::span<const SelectedUser> neighbors) const {
  const bool center = config_.center_on_item_means;
  std::optional<double> bound;
  for (const auto& t : neighbors) {
    const auto profile = clusters_.SmoothedProfile(t.user);
    const auto mask = clusters_.OriginalMask(t.user);
    for (std::size_t j = 0; j < profile.size(); ++j) {
      if (!mask[j] && !config_.local_matrix_smoothed) continue;
      const double value =
          center ? profile[j] - train_.ItemMean(static_cast<matrix::ItemId>(j))
                 : profile[j];
      if (!bound || value > *bound) bound = value;
    }
  }
  return bound;
}

double CfsfModel::Predict(matrix::UserId user, matrix::ItemId item) const {
  return PredictDetailed(user, item).fused;
}

FusionBreakdown CfsfModel::PredictDetailed(matrix::UserId user,
                                           matrix::ItemId item) const {
  CFSF_REQUIRE(fitted_, "Predict before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  CFSF_REQUIRE(item < train_.num_items(), "item id out of range");
  const auto& metrics = CfsfMetrics::Get();
  metrics.predict_count.Increment();
  obs::ScopedTimer timer(metrics.predict_latency_us);
  const auto neighbors = TopKUsersCached(user);
  return PredictWithNeighbors(user, item, *neighbors);
}

std::vector<double> CfsfModel::PredictBatch(
    std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries) const {
  CFSF_REQUIRE(fitted_, "PredictBatch before Fit");
  const auto& metrics = CfsfMetrics::Get();
  metrics.batch_count.Increment();
  metrics.batch_size.Record(static_cast<double>(queries.size()));
  metrics.predict_count.Increment(queries.size());
  std::vector<double> out(queries.size(), 0.0);

  // Group query indices by user so each worker selects a user's top-K
  // exactly once.
  std::map<matrix::UserId, std::vector<std::size_t>> by_user;
  for (std::size_t idx = 0; idx < queries.size(); ++idx) {
    by_user[queries[idx].first].push_back(idx);
  }
  std::vector<std::pair<matrix::UserId, std::vector<std::size_t>>> groups(
      by_user.begin(), by_user.end());

  par::ForOptions options;
  options.serial = !config_.parallel;
  options.schedule = par::Schedule::kDynamic;
  par::ParallelFor(
      0, groups.size(),
      [&](std::size_t g) {
        const auto neighbors = TopKUsersCached(groups[g].first);
        for (const std::size_t idx : groups[g].second) {
          obs::ScopedTimer timer(metrics.predict_latency_us);
          out[idx] = PredictWithNeighbors(queries[idx].first,
                                          queries[idx].second, *neighbors)
                         .fused;
        }
      },
      options);
  return out;
}

std::vector<CfsfModel::Recommendation> CfsfModel::RecommendTopN(
    matrix::UserId user, std::size_t n) const {
  CFSF_REQUIRE(fitted_, "RecommendTopN before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  if (n == 0) return {};
  const auto selected = TopKUsersCached(user);
  const std::span<const SelectedUser> neighbors = *selected;
  const auto mask = clusters_.OriginalMask(user);
  const double user_mean = train_.UserMean(user);

  // Covers the rounding of SUIR′'s K×M weighted mean (~1e-12 on the 1–5
  // scale) with room to spare.
  constexpr double kSlack = 1e-9;
  const std::optional<double> term_bound =
      config_.use_suir ? SuirTermBound(neighbors) : std::nullopt;

  // Step 1 for every unrated item, and an upper bound on its fused score:
  // the blend without SUIR′, or with SUIR′ at its ceiling, whichever is
  // larger (the blend never decreases as SUIR′ grows).
  struct Candidate {
    double bound;
    matrix::ItemId item;
    std::uint32_t slot;  // into `parts`
  };
  std::vector<FusionBreakdown> parts;
  std::vector<Candidate> candidates;
  parts.reserve(train_.num_items());
  candidates.reserve(train_.num_items());
  for (std::size_t i = 0; i < train_.num_items(); ++i) {
    if (mask[i]) continue;  // already rated
    const auto item = static_cast<matrix::ItemId>(i);
    const FusionBreakdown& estimates = parts.emplace_back(SirSurEstimates(
        user, item, gis_.TopM(item, config_.top_m_items), neighbors));
    double bound = Blend(estimates, user_mean);
    if (term_bound) {
      const double item_anchor =
          config_.center_on_item_means ? train_.ItemMean(item) : 0.0;
      FusionBreakdown ceiling = estimates;
      ceiling.suir = item_anchor + *term_bound + kSlack;
      bound = std::max(bound, Blend(ceiling, user_mean));
    }
    candidates.push_back(
        Candidate{bound, item, static_cast<std::uint32_t>(parts.size() - 1)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.item < b.item;
            });

  // Steps 2–3 in bound order, keeping the n best in a heap whose front is
  // the worst kept.  Once a bound falls strictly below the n-th score, no
  // later candidate can enter or tie into the list.
  const auto better = [](const Recommendation& a, const Recommendation& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  };
  std::vector<Recommendation> top;
  top.reserve(std::min(n, candidates.size()));
  std::size_t fused = 0;
  for (const Candidate& candidate : candidates) {
    if (top.size() == n && candidate.bound < top.front().score) break;
    FusionBreakdown& estimates = parts[candidate.slot];
    CompleteFusion(user, candidate.item,
                   gis_.TopM(candidate.item, config_.top_m_items), neighbors,
                   estimates);
    ++fused;
    const Recommendation next{candidate.item, estimates.fused};
    if (top.size() < n) {
      top.push_back(next);
      std::push_heap(top.begin(), top.end(), better);
    } else if (better(next, top.front())) {
      std::pop_heap(top.begin(), top.end(), better);
      top.back() = next;
      std::push_heap(top.begin(), top.end(), better);
    }
  }
  const auto& metrics = CfsfMetrics::Get();
  metrics.topn_candidates.Increment(candidates.size());
  metrics.topn_fused.Increment(fused);
  std::sort_heap(top.begin(), top.end(), better);
  return top;
}

std::unique_ptr<CfsfModel> CfsfModel::WithRatings(
    std::span<const matrix::RatingTriple> ratings) const {
  CFSF_REQUIRE(fitted_, "WithRatings before Fit");
  return Spliced(ratings, train_.WithRatings(ratings), clusters_.assignments());
}

std::unique_ptr<CfsfModel> CfsfModel::WithNewUser(
    std::span<const std::pair<matrix::ItemId, matrix::Rating>> ratings) const {
  CFSF_REQUIRE(fitted_, "WithNewUser before Fit");
  CFSF_REQUIRE(!ratings.empty(), "WithNewUser needs at least one rating");
  const auto user = static_cast<matrix::UserId>(NumUsers());
  std::vector<matrix::RatingTriple> batch;
  batch.reserve(ratings.size());
  for (const auto& [item, value] : ratings) {
    CFSF_REQUIRE(item < NumItems(), "WithNewUser item id out of range");
    batch.push_back(matrix::RatingTriple{user, item, value, 0});
  }
  matrix::RatingMatrix train = train_.WithRatings(batch, NumUsers() + 1);

  // The newcomer joins their most affine cluster (Eq. 9) against this
  // model's deviations; on a tie the lowest cluster id wins.
  const auto row = train.UserRow(user);
  const double mean = train.UserMean(user);
  std::uint32_t best_cluster = 0;
  double best_affinity = -std::numeric_limits<double>::infinity();
  for (std::uint32_t c = 0; c < clusters_.num_clusters(); ++c) {
    const double affinity = clusters_.AffinityOf(row, mean, c);
    if (affinity > best_affinity) {
      best_affinity = affinity;
      best_cluster = c;
    }
  }
  std::vector<std::uint32_t> assignments = clusters_.assignments();
  assignments.push_back(best_cluster);
  return Spliced(batch, std::move(train), std::move(assignments));
}

std::unique_ptr<CfsfModel> CfsfModel::Spliced(
    std::span<const matrix::RatingTriple> ratings, matrix::RatingMatrix train,
    std::vector<std::uint32_t> assignments) const {
  // Refresh the touched GIS rows together (future-work extension).
  std::vector<matrix::ItemId> touched;
  touched.reserve(ratings.size());
  for (const auto& r : ratings) touched.push_back(r.item);
  sim::GlobalItemSimilarity gis = gis_;
  gis.RefreshItems(train, touched);

  // Re-smooth under `assignments`; K-means itself is not re-run (a full
  // Fit() does that).
  return Restore(config_, std::move(train), std::move(gis),
                 std::move(assignments));
}

void CfsfModel::InsertRating(matrix::UserId user, matrix::ItemId item,
                             matrix::Rating value, matrix::Timestamp timestamp) {
  const matrix::RatingTriple rating{user, item, value, timestamp};
  std::unique_ptr<CfsfModel> next = WithRatings({&rating, 1});
  train_ = std::move(next->train_);
  gis_ = std::move(next->gis_);
  clusters_ = std::move(next->clusters_);
  latest_timestamp_ = next->latest_timestamp_;
  ClearCache();
}

std::size_t CfsfModel::CacheSize() const {
  util::MutexLock lock(&cache_mutex_);
  std::size_t alive = 0;
  for (const auto& entry : cache_) {
    if (entry) ++alive;
  }
  return alive;
}

void CfsfModel::ClearCache() const {
  util::MutexLock lock(&cache_mutex_);
  for (auto& entry : cache_) entry = nullptr;
}

}  // namespace cfsf::core
