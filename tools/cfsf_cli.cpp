// cfsf_cli — end-to-end command-line front door for the library.
//
//   cfsf_cli generate  --out=u.data [--users=500 --items=1000 --seed=N]
//   cfsf_cli stats     --data=u.data
//   cfsf_cli fit       --data=u.data --model=model.bin [--clusters=30
//                      --m=95 --k=25 --lambda=0.8 --delta=0.1 --w=0.35]
//   cfsf_cli predict   --model=model.bin --user=U --item=I
//   cfsf_cli recommend --model=model.bin --user=U [--n=10]
//   cfsf_cli add-user  --model=model.bin --ratings=ITEM:R,ITEM:R,...
//                      [--save=model2.bin] [--n=10]
//                      (enrols a new user, id = the model's user count,
//                      in their most affine cluster; prints the id, the
//                      cluster and the top-n; --save writes the new model)
//   cfsf_cli evaluate  --data=u.data [--train=300 --given=10]
//   cfsf_cli verify-model --model=model.bin
//   cfsf_cli json-check --file=out.json
//   cfsf_cli serve-bench [--smoke] [--clients=8 --requests=300
//                        --capacity=64 --budget-us=500
//                        --seed=N --chaos=true --swap-file=PATH]
//   cfsf_cli serve     [--model=model.bin] [--bind=127.0.0.1 --port=0
//                      --workers=4 --max-connections=32 --capacity=64
//                      --duration-ms=0] [--wal-dir=DIR]
//                      [--ckpt-dir=DIR --ckpt-interval-ms=5000
//                       --ckpt-keep=2]
//   cfsf_cli wal-dump  --dir=DIR [--limit=N]
//   cfsf_cli ckpt-ls   --dir=DIR
//   cfsf_cli list-failpoints [--markdown]
//
// Without --data, `fit`/`evaluate` fall back to the synthetic MovieLens
// substitute (same data every bench uses).  Every command accepts
// --stats: after the command finishes, the process-wide metrics registry
// (counters, gauges, latency histograms) is dumped to stdout as JSON.
//
// Robustness flags: commands that read --data accept --lenient (skip and
// count malformed dataset lines instead of failing); `predict` and
// `evaluate` accept --deadline-ms=N and --degradation=<throw|fallback>
// to serve through robust::FallbackPredictor's degradation ladder.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recover.hpp"
#include "core/cfsf.hpp"
#include "core/model_io.hpp"
#include "obs/failpoint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "robust/fallback.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "serve/delta_folder.hpp"
#include "serve/serving_stack.hpp"
#include "serve/soak.hpp"
#include "wal/log.hpp"
#include "wal/replay.hpp"
#include "util/args.hpp"
#include "util/backoff.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace cfsf;

matrix::RatingMatrix LoadData(util::ArgParser& args) {
  const std::string path = args.GetString("data", "");
  if (path.empty()) {
    data::SyntheticConfig config;
    config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 20090101));
    return data::GenerateSynthetic(config);
  }
  data::MovieLensOptions options;
  options.min_ratings_per_user =
      static_cast<std::size_t>(args.GetInt("min-ratings", 0));
  options.max_users = static_cast<std::size_t>(args.GetInt("max-users", 0));
  options.lenient = args.GetBool("lenient", false);
  auto loaded = data::LoadUData(path, options);
  if (loaded.quarantined_lines > 0) {
    std::fprintf(stderr, "note: quarantined %zu malformed line(s) in %s\n",
                 loaded.quarantined_lines, path.c_str());
  }
  return loaded.matrix;
}

// --deadline-ms / --degradation: nullopt when neither flag is present
// (serve through the model directly, today's behaviour).
std::optional<robust::FallbackOptions> FallbackFromFlags(
    util::ArgParser& args) {
  const auto deadline_ms = args.GetInt("deadline-ms", 0);
  const std::string degradation = args.GetString("degradation", "");
  if (deadline_ms <= 0 && degradation.empty()) return std::nullopt;
  robust::FallbackOptions options;
  if (degradation == "throw") {
    options.policy = robust::DegradationPolicy::kThrow;
  } else if (degradation.empty() || degradation == "fallback") {
    options.policy = robust::DegradationPolicy::kFallback;
  } else {
    throw util::ConfigError("--degradation must be 'throw' or 'fallback', got '" +
                            degradation + "'");
  }
  if (deadline_ms > 0) {
    options.budget = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::milliseconds(deadline_ms));
  }
  return options;
}

core::CfsfConfig ConfigFromFlags(util::ArgParser& args) {
  core::CfsfConfig config;
  config.num_clusters = static_cast<std::size_t>(
      args.GetInt("clusters", static_cast<std::int64_t>(config.num_clusters)));
  config.top_m_items = static_cast<std::size_t>(
      args.GetInt("m", static_cast<std::int64_t>(config.top_m_items)));
  config.top_k_users = static_cast<std::size_t>(
      args.GetInt("k", static_cast<std::int64_t>(config.top_k_users)));
  config.lambda = args.GetDouble("lambda", config.lambda);
  config.delta = args.GetDouble("delta", config.delta);
  config.epsilon = args.GetDouble("w", config.epsilon);
  // No Validate() call here: CfsfModel's constructor validates exactly
  // once and reports the offending field.
  return config;
}

int CmdGenerate(util::ArgParser& args) {
  data::SyntheticConfig config;
  config.num_users = static_cast<std::size_t>(args.GetInt("users", 500));
  config.num_items = static_cast<std::size_t>(args.GetInt("items", 1000));
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 20090101));
  const std::string out = args.GetString("out", "u.data");
  args.RejectUnknown();
  const auto m = data::GenerateSynthetic(config);
  data::SaveUData(m, out);
  std::printf("wrote %zu ratings (%zu users x %zu items) to %s\n",
              m.num_ratings(), m.num_users(), m.num_items(), out.c_str());
  return 0;
}

int CmdStats(util::ArgParser& args) {
  const auto m = LoadData(args);
  args.RejectUnknown();
  std::printf("%s", matrix::FormatStats(matrix::ComputeStats(m)).c_str());
  return 0;
}

int CmdFit(util::ArgParser& args) {
  const auto m = LoadData(args);
  const auto config = ConfigFromFlags(args);
  const std::string model_path = args.GetString("model", "model.bin");
  args.RejectUnknown();
  core::CfsfModel model(config);
  util::Stopwatch watch;
  model.Fit(m);
  core::SaveModel(model, model_path);
  std::printf("fitted in %.2fs (GIS entries %zu, C=%zu); saved to %s\n",
              watch.ElapsedSeconds(), model.gis().TotalNeighbors(),
              model.cluster_model().num_clusters(), model_path.c_str());
  return 0;
}

int CmdPredict(util::ArgParser& args) {
  const std::string model_path = args.GetString("model", "model.bin");
  const auto user = static_cast<matrix::UserId>(args.GetInt("user", 0));
  const auto item = static_cast<matrix::ItemId>(args.GetInt("item", 0));
  const auto fallback = FallbackFromFlags(args);
  args.RejectUnknown();
  const auto model = core::LoadModel(model_path);
  if (fallback) {
    robust::FallbackPredictor predictor(*model, *fallback);
    const auto deadline = fallback->budget.count() > 0
                              ? robust::Deadline::After(fallback->budget)
                              : robust::Deadline();
    const auto result = predictor.PredictWithLadder(user, item, deadline);
    std::printf("user %u, item %u -> %.3f (rung %s%s)\n", user, item,
                result.value, robust::ToString(result.rung),
                result.deadline_overrun ? ", deadline overrun" : "");
    return 0;
  }
  const auto parts = model->PredictDetailed(user, item);
  std::printf("user %u, item %u -> %.3f\n", user, item, parts.fused);
  if (parts.sir) std::printf("  SIR'  = %.3f\n", *parts.sir);
  if (parts.sur) std::printf("  SUR'  = %.3f\n", *parts.sur);
  if (parts.suir) std::printf("  SUIR' = %.3f\n", *parts.suir);
  return 0;
}

int CmdRecommend(util::ArgParser& args) {
  const std::string model_path = args.GetString("model", "model.bin");
  const auto user = static_cast<matrix::UserId>(args.GetInt("user", 0));
  const auto n = static_cast<std::size_t>(args.GetInt("n", 10));
  args.RejectUnknown();
  const auto model = core::LoadModel(model_path);
  for (const auto& rec : model->RecommendTopN(user, n)) {
    std::printf("item %-6u score %.3f\n", rec.item, rec.score);
  }
  return 0;
}

std::vector<std::pair<matrix::ItemId, matrix::Rating>> ParseRatings(
    const std::string& spec) {
  std::vector<std::pair<matrix::ItemId, matrix::Rating>> ratings;
  for (const auto& field : util::Split(spec, ',')) {
    const auto parts = util::Split(field, ':');
    if (parts.size() != 2) {
      throw util::ConfigError("--ratings expects ITEM:RATING pairs, got '" +
                              field + "'");
    }
    ratings.emplace_back(
        static_cast<matrix::ItemId>(util::ParseInt(parts[0])),
        static_cast<matrix::Rating>(util::ParseDouble(parts[1])));
  }
  return ratings;
}

int CmdEnrolUser(util::ArgParser& args) {
  const std::string model_path = args.GetString("model", "model.bin");
  const std::string spec = args.GetString("ratings", "");
  const std::string save_path = args.GetString("save", "");
  const auto n = static_cast<std::size_t>(args.GetInt("n", 10));
  args.RejectUnknown();
  if (spec.empty()) {
    std::fprintf(stderr, "add-user requires --ratings=ITEM:R,ITEM:R,...\n");
    return 2;
  }
  const auto model = core::LoadModel(model_path)->WithNewUser(ParseRatings(spec));
  const auto user = static_cast<matrix::UserId>(model->NumUsers() - 1);
  std::printf("registered user %u (cluster %u)\n", user,
              model->cluster_model().ClusterOf(user));
  for (const auto& rec : model->RecommendTopN(user, n)) {
    std::printf("item %-6u score %.3f\n", rec.item, rec.score);
  }
  if (!save_path.empty()) {
    core::SaveModel(*model, save_path);
    std::printf("updated model saved to %s\n", save_path.c_str());
  }
  return 0;
}

int CmdEvaluate(util::ArgParser& args) {
  const auto base = LoadData(args);
  const auto config = ConfigFromFlags(args);
  const std::string protocol = args.GetString("protocol", "given");
  const auto train = static_cast<std::size_t>(args.GetInt("train", 300));
  const auto test = static_cast<std::size_t>(args.GetInt("test", 200));
  const auto given = static_cast<std::size_t>(args.GetInt("given", 10));
  const auto holdout = static_cast<std::size_t>(args.GetInt("holdout", 1));
  const auto fallback = FallbackFromFlags(args);
  args.RejectUnknown();

  data::EvalSplit split;
  std::string label;
  if (protocol == "given") {
    data::ProtocolConfig pconfig;
    pconfig.num_train_users = train;
    pconfig.num_test_users = test;
    pconfig.given_n = given;
    split = data::MakeGivenNSplit(base, pconfig);
    label = data::GivenLabel(given);
  } else if (protocol == "allbutn") {
    data::AllButNConfig pconfig;
    pconfig.num_train_users = train;
    pconfig.num_test_users = test;
    pconfig.hold_out = holdout;
    split = data::MakeAllButNSplit(base, pconfig);
    label = "AllBut" + std::to_string(holdout);
  } else {
    std::fprintf(stderr, "unknown --protocol=%s (use given or allbutn)\n",
                 protocol.c_str());
    return 2;
  }
  core::CfsfModel model(config);
  robust::FallbackPredictor ladder(model, fallback.value_or(
                                              robust::FallbackOptions{}));
  eval::Predictor& predictor =
      fallback ? static_cast<eval::Predictor&>(ladder)
               : static_cast<eval::Predictor&>(model);
  const auto result = eval::Evaluate(predictor, split);
  std::printf("%s/%s: MAE %.4f, RMSE %.4f (%zu predictions; fit %.2fs, "
              "predict %.2fs)\n",
              data::TrainSetLabel(train).c_str(), label.c_str(), result.mae,
              result.rmse, result.num_predictions, result.fit_seconds,
              result.predict_seconds);
  return 0;
}

int CmdVerifyModel(util::ArgParser& args) {
  const std::string model_path = args.GetString("model", "model.bin");
  args.RejectUnknown();
  // VerifyModel throws IoError on any structural or checksum failure;
  // main's catch turns that into a nonzero exit with the message.
  const auto report = core::VerifyModel(model_path);
  std::printf("%s: OK (format v%u, %llu bytes)\n", model_path.c_str(),
              report.version,
              static_cast<unsigned long long>(report.file_bytes));
  for (const auto& section : report.sections) {
    std::printf("  section %-12s %10llu bytes  crc32 %08x\n",
                section.name.c_str(),
                static_cast<unsigned long long>(section.payload_bytes),
                section.crc);
  }
  if (report.sections.empty()) {
    std::printf("  (v1 bundle: no checksums, structural parse only)\n");
  }
  return 0;
}

int CmdJsonCheck(util::ArgParser& args) {
  const std::string path = args.GetString("file", "");
  args.RejectUnknown();
  if (path.empty()) {
    std::fprintf(stderr, "json-check requires --file=PATH\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "json-check: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::string error;
  if (!obs::ValidateJson(text, &error)) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: valid JSON (%zu bytes)\n", path.c_str(), text.size());
  return 0;
}

// Chaos-soak smoke for the resilient serving layer: fit a model, stand up
// a ServingStack, drive calm -> chaos -> recovery traffic (serve/soak),
// hot-swap the model mid-traffic, then require the resilience invariants
// AND a full breaker round-trip (trip + recovery back to full fusion).
// Exit 0 only when everything held — tools/ci_check.sh runs this under
// ASan as the chaos-soak smoke tier.
int CmdServeBench(util::ArgParser& args) {
  const bool smoke = args.GetBool("smoke", false);
  serve::SoakOptions soak;
  soak.num_clients =
      static_cast<std::size_t>(args.GetInt("clients", 8));
  soak.requests_per_client =
      static_cast<std::size_t>(args.GetInt("requests", smoke ? 50 : 300));
  soak.request_budget =
      std::chrono::microseconds(args.GetInt("budget-us", 500));
  soak.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0xC405));
  const bool chaos = args.GetBool("chaos", true);
  serve::ServingOptions options;
  options.queue_capacity =
      static_cast<std::size_t>(args.GetInt("capacity", 64));
  options.degrade_watermark = options.queue_capacity * 3 / 4;
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  options.breaker.cooldown = std::chrono::milliseconds(2);
  options.breaker.probe_count = 2;
  std::string swap_file = args.GetString("swap-file", "");
  args.RejectUnknown();
  if (swap_file.empty()) {
    swap_file = (std::filesystem::temp_directory_path() /
                 "cfsf_serve_bench_swap.bin")
                    .string();
  }

  data::SyntheticConfig dconfig;
  dconfig.num_users = smoke ? 60 : 200;
  dconfig.num_items = smoke ? 80 : 400;
  dconfig.min_ratings_per_user = 15;
  core::CfsfConfig config;
  config.num_clusters = smoke ? 5 : 10;
  config.top_m_items = smoke ? 15 : 40;
  config.top_k_users = smoke ? 8 : 15;
  const auto train = data::GenerateSynthetic(dconfig);

  util::Stopwatch watch;
  serve::ModelGeneration models;
  {
    auto model = std::make_unique<core::CfsfModel>(config);
    model->Fit(train);
    core::SaveModel(*model, swap_file);
    models.Install(std::move(model));
  }
  std::printf("serve-bench: fitted + installed generation 1 in %.2fs\n",
              watch.ElapsedSeconds());

  serve::ServingStack stack(models, options);
  if (chaos) {
    soak.chaos = {
        {"cfsf.predict", 0.5},
        {"serve.worker", 0.05},
        {"serve.admit", 0.02},
    };
  }
  core::LoadRetryOptions retry;
  retry.initial_backoff = std::chrono::milliseconds(1);
  soak.mid_traffic = [&] { models.LoadAndSwap(swap_file, retry); };

  const serve::SoakReport report = serve::RunSoak(stack, soak);
  std::printf("%s\n", report.Summary().c_str());

  // Calm traffic until the breaker has climbed back to full fusion.
  for (int i = 0; i < 20000 && stack.breaker().level() != 0; ++i) {
    stack.ServeSync(serve::Request::Predict(0, 0));
    if (i % 200 == 199) util::SleepFor(std::chrono::milliseconds(1));
  }

  auto failures = report.InvariantFailures(options.queue_capacity);
  if (chaos && report.breaker_trips == 0) {
    failures.push_back("chaos phase never tripped the breaker");
  }
  if (chaos && stack.breaker().recoveries() == 0) {
    failures.push_back("breaker never recovered after the chaos phase");
  }
  if (chaos && stack.breaker().level() != 0) {
    failures.push_back("breaker did not climb back to full fusion");
  }
  for (const auto& failure : failures) {
    std::fprintf(stderr, "serve-bench: INVARIANT VIOLATED: %s\n",
                 failure.c_str());
  }
  if (failures.empty()) {
    std::printf("serve-bench: all invariants held (trips=%llu, "
                "recoveries=%llu, generation=%llu)\n",
                static_cast<unsigned long long>(stack.breaker().trips()),
                static_cast<unsigned long long>(
                    stack.breaker().recoveries()),
                static_cast<unsigned long long>(models.ActiveGeneration()));
  }
  return failures.empty() ? 0 : 1;
}

// `serve`: run the HTTP front end (src/net) over a fitted model.  With
// --model the generation is loaded from disk; without it a synthetic
// model is fitted in-process (same data every bench uses).  The server
// binds loopback by default; --port=0 picks an ephemeral port, printed
// after start so scripts can scrape it.  --duration-ms bounds the run
// (0 = serve until stdin reaches EOF, i.e. Ctrl-D or a closed pipe).
//
// --wal-dir=DIR makes ingestion durable: startup runs ckpt::Recover
// (newest valid checkpoint, or the seed model, plus the WAL suffix past
// its watermark), POST /v1/rate acks 202 only after fsync, and a
// DeltaFolder folds acked records into fresh generations in the
// background.  --ckpt-dir=DIR additionally checkpoints the folded model
// every --ckpt-interval-ms (keeping --ckpt-keep bundles) and compacts
// WAL segments below the retained watermarks, so restart replay stays
// bounded no matter how long the process ingests.
int CmdServe(util::ArgParser& args) {
  const std::string model_path = args.GetString("model", "");
  const std::string wal_dir = args.GetString("wal-dir", "");
  const std::string ckpt_dir = args.GetString("ckpt-dir", "");
  const auto ckpt_interval_ms = args.GetInt("ckpt-interval-ms", 5000);
  const auto ckpt_keep = args.GetInt("ckpt-keep", 2);
  net::ServerOptions server_options;
  server_options.bind_address = args.GetString("bind", "127.0.0.1");
  server_options.port =
      static_cast<std::uint16_t>(args.GetInt("port", 0));
  server_options.num_workers =
      static_cast<std::size_t>(args.GetInt("workers", 4));
  server_options.max_connections =
      static_cast<std::size_t>(args.GetInt("max-connections", 32));
  serve::ServingOptions serving_options;
  serving_options.queue_capacity =
      static_cast<std::size_t>(args.GetInt("capacity", 64));
  serving_options.degrade_watermark = serving_options.queue_capacity * 3 / 4;
  const auto duration_ms = args.GetInt("duration-ms", 0);
  args.RejectUnknown();
  if (!ckpt_dir.empty() && wal_dir.empty()) {
    std::fprintf(stderr, "serve: --ckpt-dir requires --wal-dir\n");
    return 2;
  }

  serve::ModelGeneration models;
  util::Stopwatch watch;
  auto make_seed = [&]() {
    std::unique_ptr<core::CfsfModel> model;
    if (model_path.empty()) {
      data::SyntheticConfig dconfig;
      dconfig.num_users = 200;
      dconfig.num_items = 400;
      dconfig.min_ratings_per_user = 15;
      core::CfsfConfig config;
      config.num_clusters = 10;
      config.top_m_items = 40;
      config.top_k_users = 15;
      model = std::make_unique<core::CfsfModel>(config);
      model->Fit(data::GenerateSynthetic(dconfig));
      std::printf("serve: fitted synthetic generation 1 in %.2fs\n",
                  watch.ElapsedSeconds());
    } else {
      model = core::LoadModel(model_path);
      std::printf("serve: loaded %s in %.2fs\n", model_path.c_str(),
                  watch.ElapsedSeconds());
    }
    return model;
  };

  std::unique_ptr<core::CfsfModel> model;
  std::unique_ptr<wal::WriteAheadLog> rating_log;
  ckpt::RecoveryInfo recovery_info;
  bool have_recovery = false;
  if (wal_dir.empty()) {
    model = make_seed();
  } else {
    ckpt::RecoverOptions recover_options;
    recover_options.ckpt_dir = ckpt_dir;
    recover_options.wal_dir = wal_dir;
    recover_options.seed_model = make_seed;
    ckpt::RecoveryResult recovered = ckpt::Recover(recover_options);
    model = std::move(recovered.model);
    rating_log = std::move(recovered.log);
    recovery_info = recovered.info;
    have_recovery = true;
    serving_options.rating_log = rating_log.get();
    std::printf(
        "serve: recovered from %s (checkpoint %llu, watermark %llu) — "
        "replayed %zu record(s), skipped %zu, %zu fallback(s), next lsn "
        "%llu%s\n",
        recovery_info.source.c_str(),
        static_cast<unsigned long long>(recovery_info.checkpoint_id),
        static_cast<unsigned long long>(recovery_info.watermark),
        recovery_info.replayed_records, recovery_info.skipped_records,
        recovery_info.fallbacks,
        static_cast<unsigned long long>(rating_log->next_lsn()),
        recovery_info.degraded_history ? "  [DEGRADED: compacted history]"
                                       : "");
  }

  std::unique_ptr<serve::DeltaFolder> folder;
  std::unique_ptr<ckpt::CheckpointManager> checkpoints;
  if (rating_log != nullptr) {
    serve::DeltaFolderOptions folder_options;
    // Everything the log replayed is already folded into (or recorded
    // as unfoldable against) the recovered model.
    folder_options.initial_watermark = rating_log->next_lsn() - 1;
    folder = std::make_unique<serve::DeltaFolder>(*rating_log, models,
                                                  std::move(model),
                                                  folder_options);
    folder->PublishNow();
    folder->Start();
    if (!ckpt_dir.empty()) {
      ckpt::CheckpointOptions ckpt_options;
      ckpt_options.dir = ckpt_dir;
      ckpt_options.keep_last = static_cast<std::size_t>(
          ckpt_keep > 0 ? ckpt_keep : 1);
      ckpt_options.interval = std::chrono::milliseconds(
          ckpt_interval_ms > 0 ? ckpt_interval_ms : 5000);
      checkpoints = std::make_unique<ckpt::CheckpointManager>(
          *folder, *rating_log, ckpt_options);
      checkpoints->Start();
      std::printf("serve: checkpointing to %s every %lldms (keep %zu)\n",
                  ckpt_dir.c_str(),
                  static_cast<long long>(ckpt_options.interval.count()),
                  ckpt_options.keep_last);
    }
  } else {
    models.Install(std::move(model));
  }

  serve::ServingStack stack(models, serving_options);
  net::ServiceOptions service_options;
  if (have_recovery) service_options.recovery = &recovery_info;
  service_options.checkpoints = checkpoints.get();
  service_options.folder = folder.get();
  net::ServingService service(stack, service_options);
  net::HttpServer server(service, server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  std::printf("serve: listening on %s:%u (workers=%zu)\n",
              server_options.bind_address.c_str(), server.port(),
              server_options.num_workers);
  std::printf("serve: routes: POST /v1/predict  POST /v1/predict-batch  "
              "POST /v1/rate  GET /v1/top-n  GET /healthz  GET /metrics\n");
  if (duration_ms > 0) {
    util::SleepFor(std::chrono::milliseconds(duration_ms));
  } else {
    // Block until stdin closes; serving happens on the server's threads.
    for (int c = std::getchar(); c != EOF; c = std::getchar()) {
    }
  }
  server.Stop();
  if (checkpoints != nullptr) checkpoints->Stop();
  if (folder != nullptr) folder->Stop();
  std::printf("serve: drained and stopped\n");
  return 0;
}

// `wal-dump`: read-only scan of a rating log directory via
// wal::ReplayLog (no repair — the torn tail is reported, not
// truncated).  Corruption outside the tail exits 1 through main's
// catch, with the diagnostic naming the bad segment and byte offset.
int CmdWalDump(util::ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  const auto limit = static_cast<std::size_t>(args.GetInt("limit", 0));
  args.RejectUnknown();
  if (dir.empty()) {
    std::fprintf(stderr, "wal-dump requires --dir=PATH\n");
    return 2;
  }
  const wal::ReplayResult replay = wal::ReplayLog(dir);
  std::size_t shown = 0;
  for (const wal::RecoveredRecord& rec : replay.records) {
    if (limit > 0 && shown >= limit) break;
    std::printf("lsn %-8llu user %-6u item %-6u rating %.1f ts %llu\n",
                static_cast<unsigned long long>(rec.lsn), rec.record.user,
                rec.record.item, static_cast<double>(rec.record.value),
                static_cast<unsigned long long>(rec.record.timestamp));
    ++shown;
  }
  if (shown < replay.records.size()) {
    std::printf("  ... %zu more record(s)\n", replay.records.size() - shown);
  }
  std::printf("%zu record(s) in %zu segment(s); next lsn %llu\n",
              replay.records.size(), replay.segments,
              static_cast<unsigned long long>(replay.next_lsn));
  for (const wal::SegmentInfo& segment : replay.segment_infos) {
    if (segment.records > 0) {
      std::printf("  segment %llu (v%u): lsn %llu..%llu, %zu record(s), "
                  "%zu byte(s)\n",
                  static_cast<unsigned long long>(segment.seq),
                  segment.version,
                  static_cast<unsigned long long>(segment.first_lsn),
                  static_cast<unsigned long long>(segment.last_lsn),
                  segment.records, segment.bytes);
    } else {
      std::printf("  segment %llu (v%u): empty (next lsn %llu), "
                  "%zu byte(s)\n",
                  static_cast<unsigned long long>(segment.seq),
                  segment.version,
                  static_cast<unsigned long long>(segment.first_lsn),
                  segment.bytes);
    }
  }
  if (replay.first_lsn > 1) {
    std::printf("compacted below lsn %llu (records 1..%llu folded into a "
                "checkpoint and removed)\n",
                static_cast<unsigned long long>(replay.first_lsn),
                static_cast<unsigned long long>(replay.first_lsn - 1));
  }
  if (replay.truncated_bytes > 0) {
    std::printf("torn tail: %zu frame(s) / %zu byte(s) beyond the last "
                "clean frame of segment %llu\n",
                replay.truncated_records, replay.truncated_bytes,
                static_cast<unsigned long long>(replay.tail_seq));
  }
  return 0;
}

// `ckpt-ls`: list a checkpoint directory — one line per checkpoint with
// its manifest watermark and the bundle's verify status (the same full
// CRC pass recovery runs, which starts from the newest `ok` line).
// Exits 1 when any listed checkpoint fails verification, so scripts can
// alarm.
int CmdCkptLs(util::ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  args.RejectUnknown();
  if (dir.empty()) {
    std::fprintf(stderr, "ckpt-ls requires --dir=PATH\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const std::vector<std::uint64_t> ids = ckpt::ListCheckpointIds(dir);
  bool all_ok = true;
  for (const std::uint64_t id : ids) {
    ckpt::Manifest manifest;
    const bool manifest_ok = ckpt::ReadManifestFile(
        (fs::path(dir) / ckpt::ManifestFileName(id)).string(), &manifest);
    std::string verify = "ok";
    std::uint64_t bytes = 0;
    if (!manifest_ok) {
      verify = "manifest corrupt";
    } else {
      try {
        const core::VerifyReport report = core::VerifyModel(
            (fs::path(dir) / ckpt::ModelFileName(id)).string());
        bytes = report.file_bytes;
        if (bytes != manifest.model_bytes) verify = "size mismatch";
      } catch (const std::exception& e) {
        verify = e.what();
      }
    }
    if (verify != "ok") all_ok = false;
    std::printf("ckpt %-8llu watermark %-10llu generation %-6llu "
                "%8llu byte(s)  %s\n",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(manifest.watermark_lsn),
                static_cast<unsigned long long>(manifest.generation),
                static_cast<unsigned long long>(bytes), verify.c_str());
  }
  std::printf("%zu checkpoint(s)\n", ids.size());
  return all_ok ? 0 : 1;
}

// `list-failpoints`: dump the compiled-in kFailPoints inventory
// (src/obs/names.hpp) merged with the live registry — armed state and
// hit/trip counts are nonzero when CFSF_FAILPOINTS armed points in this
// process.  --markdown emits the docs/ROBUSTNESS.md "Instrumented
// sites" table, so the doc is regenerated mechanically instead of
// drifting (cfsf_lint's undocumented-failpoint rule checks the result).
int CmdListFailpoints(util::ArgParser& args) {
  const bool markdown = args.GetBool("markdown", false);
  auto& registry = obs::FailPointRegistry::Global();
  const auto armed_names = registry.ArmedNames();
  if (markdown) {
    std::printf("| name | location | fires as |\n");
    std::printf("|------|----------|----------|\n");
    for (const auto& info : obs::names::kFailPoints) {
      std::printf("| `%s` | %s | %s |\n", info.name, info.site, info.effect);
    }
    return 0;
  }
  for (const auto& info : obs::names::kFailPoints) {
    std::printf("%-22s %s — %s", info.name, info.site, info.effect);
    if (std::find(armed_names.begin(), armed_names.end(), info.name) !=
        armed_names.end()) {
      std::printf(
          "  [armed, hits=%llu trips=%llu]",
          static_cast<unsigned long long>(registry.HitCount(info.name)),
          static_cast<unsigned long long>(registry.TripCount(info.name)));
    }
    std::printf("\n");
  }
  std::printf("%zu fail points (inventory: src/obs/names.hpp)\n",
              obs::names::kNumFailPoints);
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: cfsf_cli <generate|stats|fit|predict|recommend|"
               "add-user|evaluate|verify-model|json-check|serve|"
               "serve-bench|wal-dump|ckpt-ls|list-failpoints> [flags]\n"
               "(see the header of tools/cfsf_cli.cpp for the full flag "
               "list)\n");
}

int Dispatch(const std::string& command, util::ArgParser& args) {
  if (command == "generate") return CmdGenerate(args);
  if (command == "stats") return CmdStats(args);
  if (command == "fit") return CmdFit(args);
  if (command == "predict") return CmdPredict(args);
  if (command == "recommend") return CmdRecommend(args);
  if (command == "add-user") return CmdEnrolUser(args);
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "verify-model") return CmdVerifyModel(args);
  if (command == "json-check") return CmdJsonCheck(args);
  if (command == "serve") return CmdServe(args);
  if (command == "serve-bench") return CmdServeBench(args);
  if (command == "wal-dump") return CmdWalDump(args);
  if (command == "ckpt-ls") return CmdCkptLs(args);
  if (command == "list-failpoints") return CmdListFailpoints(args);
  PrintUsage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  util::ArgParser args(argc - 1, argv + 1);
  util::SetLogLevel(util::ParseLogLevel(args.GetString("log", "warn")));
  const bool dump_stats = args.GetBool("stats", false);

  const int code = Dispatch(command, args);
  if (dump_stats) {
    std::printf("%s\n", obs::MetricsRegistry::Global().ToJson().c_str());
  }
  return code;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
