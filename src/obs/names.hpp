// Central registry of observable names: every metric recorded anywhere
// in src/ or bench/ and every fail-point site the stack defines.
//
// Why a header of string constants: the names below are the public
// contract between the code, the dashboards (BENCH_*.json snapshots),
// docs/OBSERVABILITY.md, docs/ROBUSTNESS.md and the fault tier.  A
// renamed counter that slips through review silently orphans every
// consumer.  cfsf_lint v3 therefore enforces, repo-wide:
//
//   * stray-metric-literal — GetCounter/GetGauge/GetHistogram in src/
//     or bench/ must take one of these constants, never a raw literal;
//   * undocumented-failpoint — every CFSF_FAILPOINT site literal must
//     appear in kFailPoints below, in docs/ROBUSTNESS.md's inventory
//     table, and in at least one fault-labelled test.
//
// `cfsf_cli list-failpoints [--markdown]` dumps kFailPoints (merged
// with live registry state), so the docs table is regenerated
// mechanically rather than maintained by hand.
//
// Adding a metric: add the constant here, use it at the call site, and
// document it in docs/OBSERVABILITY.md.  Adding a fail point: add the
// CFSF_FAILPOINT site, a kFailPoints row, a docs/ROBUSTNESS.md row
// (via list-failpoints --markdown), and arm it from a fault test —
// cfsf_lint fails the build until all four agree.
#pragma once

#include <cstddef>

namespace cfsf::obs::names {

// --- serving stack (src/serve/serving_stack.cpp) ---------------------------
inline constexpr const char kServeRequests[] = "serve.requests";
inline constexpr const char kServeOk[] = "serve.ok";
inline constexpr const char kServeShed[] = "serve.shed";
inline constexpr const char kServeRejected[] = "serve.rejected";
inline constexpr const char kServeErrors[] = "serve.errors";
inline constexpr const char kServeRefused[] = "serve.refused";
inline constexpr const char kServeDegradedAdmissions[] =
    "serve.degraded_admissions";
inline constexpr const char kServeQueueDepth[] = "serve.queue_depth";
inline constexpr const char kServeLatencyFull[] = "serve.latency_us.full";
inline constexpr const char kServeLatencySir[] = "serve.latency_us.sir";
inline constexpr const char kServeLatencyUserMean[] =
    "serve.latency_us.user_mean";
inline constexpr const char kServeLatencyGlobalMean[] =
    "serve.latency_us.global_mean";
inline constexpr const char kServeLatencyBatch[] = "serve.latency_us.batch";
inline constexpr const char kServeLatencyTopN[] = "serve.latency_us.topn";

// --- circuit breaker (src/serve/circuit_breaker.cpp) -----------------------
inline constexpr const char kServeBreakerTrips[] = "serve.breaker.trips";
inline constexpr const char kServeBreakerRecoveries[] =
    "serve.breaker.recoveries";
inline constexpr const char kServeBreakerProbes[] = "serve.breaker.probes";
inline constexpr const char kServeBreakerLevel[] = "serve.breaker.level";

// --- model generations (src/serve/model_generation.cpp) --------------------
inline constexpr const char kServeSwapCount[] = "serve.swap.count";
inline constexpr const char kServeGeneration[] = "serve.generation";

// --- network front end (src/net/server.cpp, src/net/service.cpp) ----------
inline constexpr const char kNetConnAccepted[] = "net.conn.accepted";
inline constexpr const char kNetConnActive[] = "net.conn.active";
inline constexpr const char kNetConnRejectedBusy[] =
    "net.conn.rejected_busy";
inline constexpr const char kNetConnDropped[] = "net.conn.dropped";
inline constexpr const char kNetHttpRequests[] = "net.http.requests";
inline constexpr const char kNetHttpResponses[] = "net.http.responses";
inline constexpr const char kNetHttpMalformed[] = "net.http.malformed";
inline constexpr const char kNetHttpWriteErrors[] = "net.http.write_errors";
inline constexpr const char kNetHttpLatencyUs[] = "net.http.latency_us";
inline constexpr const char kNetIdleClosed[] = "net.idle_closed";

// --- durable rating ingestion (src/wal/, src/serve/delta_folder.cpp) -------
inline constexpr const char kWalAppends[] = "wal.appends";
inline constexpr const char kWalAppendLatencyUs[] = "wal.append.latency_us";
inline constexpr const char kWalFsyncs[] = "wal.fsyncs";
inline constexpr const char kWalRotations[] = "wal.rotations";
inline constexpr const char kWalUnavailable[] = "wal.unavailable";
inline constexpr const char kWalReplayRecovered[] = "wal.replay.recovered";
inline constexpr const char kWalReplayTruncated[] = "wal.replay.truncated";
inline constexpr const char kWalFoldedRecords[] = "wal.folded_records";
inline constexpr const char kWalFoldSkipped[] = "wal.fold.skipped";
inline constexpr const char kWalFoldPublishes[] = "wal.fold.publishes";
inline constexpr const char kWalFoldLatencyUs[] = "wal.fold.latency_us";
inline constexpr const char kWalFoldFailures[] = "wal.fold.failures";
inline constexpr const char kWalStalenessUs[] = "wal.staleness_us";
inline constexpr const char kWalDedupHits[] = "wal.dedup.hits";
inline constexpr const char kWalDedupEntries[] = "wal.dedup.entries";

// --- checkpointed recovery (src/ckpt/, src/wal/compact.cpp) ----------------
inline constexpr const char kCkptWrites[] = "ckpt.writes";
inline constexpr const char kCkptWriteFailures[] = "ckpt.write.failures";
inline constexpr const char kCkptLastId[] = "ckpt.last_id";
inline constexpr const char kCkptWatermark[] = "ckpt.watermark";
inline constexpr const char kCkptCompactedSegments[] =
    "ckpt.compacted_segments";
inline constexpr const char kCkptCompactFailures[] = "ckpt.compact.failures";
inline constexpr const char kCkptRecoveryReplayedRecords[] =
    "ckpt.recovery_replayed_records";
inline constexpr const char kCkptRecoveryUs[] = "ckpt.recovery_us";
inline constexpr const char kCkptRecoveryFallbacks[] =
    "ckpt.recovery.fallbacks";

// --- robustness (src/robust/, src/obs/failpoint.cpp) -----------------------
inline constexpr const char kRobustFailpointTrips[] = "robust.failpoint_trips";
inline constexpr const char kRobustFallbackSir[] = "robust.fallback.sir";
inline constexpr const char kRobustFallbackUserMean[] =
    "robust.fallback.user_mean";
inline constexpr const char kRobustFallbackGlobalMean[] =
    "robust.fallback.global_mean";
inline constexpr const char kRobustDeadlineOverruns[] =
    "robust.deadline_overruns";

// --- model (src/core/cfsf_model.cpp) ---------------------------------------
inline constexpr const char kCfsfFitCount[] = "cfsf.fit.count";
inline constexpr const char kCfsfFitCumSeconds[] = "cfsf.fit.cum_seconds";
inline constexpr const char kCfsfPredictCount[] = "cfsf.predict.count";
inline constexpr const char kCfsfPredictLatencyUs[] = "cfsf.predict.latency_us";
inline constexpr const char kCfsfPredictBatchCount[] =
    "cfsf.predict.batch.count";
inline constexpr const char kCfsfPredictBatchSize[] = "cfsf.predict.batch.size";
inline constexpr const char kCfsfComponentSir[] = "cfsf.predict.component.sir";
inline constexpr const char kCfsfComponentSur[] = "cfsf.predict.component.sur";
inline constexpr const char kCfsfComponentSuir[] =
    "cfsf.predict.component.suir";
inline constexpr const char kCfsfTopkCacheHit[] = "cfsf.topk.cache_hit";
inline constexpr const char kCfsfTopkCacheMiss[] = "cfsf.topk.cache_miss";
inline constexpr const char kCfsfTopkPoolSize[] = "cfsf.topk.pool_size";
inline constexpr const char kCfsfTopnCandidates[] = "cfsf.topn.candidates";
inline constexpr const char kCfsfTopnFused[] = "cfsf.topn.fused";

// --- thread pool (src/parallel/thread_pool.cpp) ----------------------------
inline constexpr const char kPoolTasksExecuted[] = "pool.tasks_executed";
inline constexpr const char kPoolQueueDepth[] = "pool.queue_depth";

// --- data loading (src/data/movielens.cpp) ---------------------------------
inline constexpr const char kDataQuarantinedLines[] = "data.quarantined_lines";

// --- bench harness (bench/bench_common.hpp) --------------------------------
inline constexpr const char kBenchConfigErrors[] = "bench.config_errors";

// ---------------------------------------------------------------------------
// Fail-point site inventory.
//
// One row per CFSF_FAILPOINT site compiled into the library, in the
// order a request meets them.  cfsf_lint's undocumented-failpoint rule
// keeps this table, the sites, docs/ROBUSTNESS.md and the fault tests
// in lockstep; `cfsf_cli list-failpoints` renders it.  The begin/end
// markers delimit what the linter parses — keep table rows inside them.
// ---------------------------------------------------------------------------
struct FailPointInfo {
  const char* name;    // the CFSF_FAILPOINT site literal
  const char* site;    // where in the code the point sits
  const char* effect;  // what a trip does to the caller
};

// cfsf-lint: failpoint-inventory-begin
inline constexpr FailPointInfo kFailPoints[] = {
    {"movielens.open", "`data::LoadUData` open", "`InjectedFault`"},
    {"movielens.parse_line", "per u.data line",
     "quarantined in lenient mode"},
    {"model_io.save.write",
     "`SaveModel`, after serialization, before the durable write",
     "target left intact, no `.tmp` left"},
    {"model_io.load.open", "`LoadModel` open",
     "`IoError`; `ckpt::Recover` falls back to the previous checkpoint"},
    {"model_io.load.read", "`LoadModel` whole-file read",
     "`IoError`; `ckpt::Recover` falls back to the previous checkpoint"},
    {"threadpool.task", "worker task dispatch",
     "rethrown at `Wait()`; an HTTP connection it hits is closed"},
    {"cfsf.fit", "`CfsfModel::Fit` entry", "model stays unfitted"},
    {"cfsf.predict", "full fusion path", "ladder falls back"},
    {"cfsf.predict.sir", "SIR′-only path", "ladder falls back"},
    {"serve.admit", "`ServingStack` admission", "request shed (`kShed`)"},
    {"serve.worker", "`ServingStack` request body, on the caller's thread",
     "`kInternal` result; stack survives"},
    {"serve.fold", "`DeltaFolder::FoldOnce`, before `WithRatings`",
     "batch kept and folded first next cycle; watermark stays below it"},
    {"net.accept", "`HttpServer` accept loop",
     "connection dropped; server keeps accepting"},
    {"net.write", "`HttpServer` response write",
     "connection closed before the response"},
    {"wal.append", "`WriteAheadLog::Append` entry, before any bytes",
     "record refused (`IoError`); log stays serviceable"},
    {"wal.fsync", "`WriteAheadLog` durability barrier",
     "log fail-stops; serving degrades to read-only"},
    {"wal.rotate",
     "segment rotation, before the new segment's durable write",
     "log fail-stops; serving degrades to read-only"},
    {"wal.replay", "`ReplayLog` scan entry",
     "recovery aborts with `IoError`"},
    {"wal.compact", "`CompactWal`, before the first unlink",
     "compaction fail-stops; log and checkpoints intact"},
    {"ckpt.write", "`CheckpointManager` checkpoint body, before the bundle",
     "checkpoint skipped; no manifest, recovery uses the previous one"},
    {"ckpt.manifest", "checkpoint manifest write, after the bundle",
     "checkpoint unreferenced; recovery uses the previous one"},
};
// cfsf-lint: failpoint-inventory-end

inline constexpr std::size_t kNumFailPoints =
    sizeof(kFailPoints) / sizeof(kFailPoints[0]);

}  // namespace cfsf::obs::names
