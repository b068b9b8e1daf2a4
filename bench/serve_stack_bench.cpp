// Serving-stack bench — throughput and tail latency of the resilient
// online serving layer (src/serve/) in two regimes:
//
//   calm   — no failpoints armed; measures the happy-path overhead of
//            admission control + breaker accounting on top of the ladder
//   chaos  — the standard chaos-soak schedule (cfsf.predict and friends
//            armed probabilistically) with a fold publish mid-traffic;
//            measures degraded throughput and verifies the resilience
//            invariants under the same load
//
// Reported per regime: outcome tallies, per-rung request counts, queue
// high-water mark, breaker trips/recoveries, wall time, throughput, and
// serve.latency_us percentiles (full-fusion and SIR' rungs).  The JSON
// report additionally snapshots the whole metrics registry.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "serve/soak.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"

int main(int argc, char** argv) try {
  using namespace cfsf;
  util::ArgParser args(argc, argv);
  auto ctx = bench::MakeContext(args, "serve_stack");
  serve::SoakOptions soak;
  soak.num_clients = static_cast<std::size_t>(args.GetInt("clients", 8));
  soak.requests_per_client = static_cast<std::size_t>(
      args.GetInt("requests", ctx.smoke ? 50 : 500));
  soak.request_budget =
      std::chrono::microseconds(args.GetInt("budget-us", 500));
  soak.seed = static_cast<std::uint64_t>(args.GetInt("soak-seed", 0x50AC));
  args.RejectUnknown();

  data::SyntheticConfig dconfig;
  dconfig.num_users = ctx.smoke ? 60 : 200;
  dconfig.num_items = ctx.smoke ? 80 : 400;
  dconfig.min_ratings_per_user = 15;
  core::CfsfConfig config;
  config.num_clusters = ctx.smoke ? 5 : 10;
  config.top_m_items = ctx.smoke ? 15 : 40;
  config.top_k_users = ctx.smoke ? 8 : 15;

  serve::ModelGeneration models;
  {
    auto model = std::make_unique<core::CfsfModel>(config);
    model->Fit(data::GenerateSynthetic(dconfig));
    models.Install(std::move(model));
  }

  serve::ServingOptions options;
  options.queue_capacity = 64;
  options.degrade_watermark = 48;
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  options.breaker.cooldown = std::chrono::milliseconds(2);
  options.breaker.probe_count = 2;

  auto& registry = obs::MetricsRegistry::Global();
  util::Table table({"Regime", "Metric", "Value"});
  auto run_regime = [&](const std::string& regime, bool chaos) {
    registry.GetHistogram(obs::names::kServeLatencyFull, obs::LatencyBucketsUs())
        .Reset();
    registry.GetHistogram(obs::names::kServeLatencySir, obs::LatencyBucketsUs())
        .Reset();
    serve::ServingStack stack(models, options);
    serve::SoakOptions regime_soak = soak;
    if (chaos) {
      regime_soak.chaos = {
          {"cfsf.predict", 0.5},
          {"serve.worker", 0.05},
          {"serve.admit", 0.02},
      };
      // The publish a DeltaFolder performs: the active model folded
      // with a small rating batch.
      regime_soak.mid_traffic = [&models] {
        const std::vector<matrix::RatingTriple> batch = {
            {0, 0, 5.0F, 0}, {1, 1, 4.0F, 0}, {2, 2, 3.0F, 0}};
        models.Install(models.Active()->model().WithRatings(batch));
      };
    }
    util::Stopwatch watch;
    const serve::SoakReport report = serve::RunSoak(stack, regime_soak);
    const double seconds = watch.ElapsedSeconds();
    std::printf("%s: %s\n", regime.c_str(), report.Summary().c_str());

    auto row = [&](const std::string& metric, const std::string& value) {
      table.AddRow({regime, metric, value});
    };
    row("issued", std::to_string(report.issued));
    row("ok", std::to_string(report.ok));
    row("shed", std::to_string(report.shed));
    row("rejected", std::to_string(report.rejected));
    row("errors", std::to_string(report.errors));
    row("deadline overruns", std::to_string(report.overruns));
    row("rung: full fusion", std::to_string(report.by_rung[0]));
    row("rung: SIR'", std::to_string(report.by_rung[1]));
    row("rung: user mean", std::to_string(report.by_rung[2]));
    row("rung: global mean", std::to_string(report.by_rung[3]));
    row("queue high-water mark", std::to_string(report.max_depth_seen));
    row("breaker trips", std::to_string(report.breaker_trips));
    row("breaker recoveries", std::to_string(report.breaker_recoveries));
    row("wall time (s)", util::FormatFixed(seconds, 3));
    row("throughput (req/s)",
        util::FormatFixed(
            seconds > 0 ? static_cast<double>(report.issued) / seconds : 0.0,
            0));
    const auto& full =
        registry.GetHistogram(obs::names::kServeLatencyFull, obs::LatencyBucketsUs());
    row("full-rung p50 (us)", util::FormatFixed(full.Percentile(50), 1));
    row("full-rung p95 (us)", util::FormatFixed(full.Percentile(95), 1));
    const auto& sir =
        registry.GetHistogram(obs::names::kServeLatencySir, obs::LatencyBucketsUs());
    row("SIR'-rung p95 (us)",
        util::FormatFixed(sir.Count() > 0 ? sir.Percentile(95) : 0.0, 1));

    const auto failures = report.InvariantFailures(options.queue_capacity);
    for (const auto& failure : failures) {
      std::fprintf(stderr, "serve_stack_bench: INVARIANT VIOLATED (%s): %s\n",
                   regime.c_str(), failure.c_str());
    }
    return failures.empty();
  };

  bool ok = run_regime("calm", /*chaos=*/false);
  ok = run_regime("chaos", /*chaos=*/true) && ok;

  bench::EmitReport(ctx, table);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "serve_stack_bench: %s\n", e.what());
  return 1;
}
