#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "ckpt/manifest.hpp"
#include "ckpt/recover.hpp"
#include "clustering/smoothing.hpp"
#include "core/model_io.hpp"
#include "data/synthetic.hpp"
#include "net/http.hpp"
#include "net/service.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "wal/log.hpp"

namespace fs = std::filesystem;
namespace ckpt = cfsf::ckpt;
namespace cluster = cfsf::cluster;
namespace core = cfsf::core;
namespace data = cfsf::data;
namespace matrix = cfsf::matrix;
namespace net = cfsf::net;
namespace robust = cfsf::robust;
namespace serve = cfsf::serve;
namespace sim = cfsf::sim;
namespace wal = cfsf::wal;

namespace perfbench {

namespace {

// Traffic shape.  The open-loop read rate is frozen at about half of
// read_mix.max_rps as first measured (see NOTES.md); it must not follow
// the system's capacity, or a faster server would be offered more load.
constexpr double kOpenRate = 3750.0;
constexpr Mix kReadMix{20, 100};
constexpr Mix kIngestMix{20, 0};
constexpr double kIngestReadRate = 2000.0;
constexpr double kRatingRate = 25.0;
constexpr double kRetryPct = 3.0;
constexpr std::int64_t kProbeIntervalNs = 5'000'000;
constexpr std::size_t kRestartSuffix = 125;
constexpr int kSetupReps = 5;
constexpr int kRestarts = 3;
constexpr std::size_t kProbePairs = 64;
// Sequential requests per kind on an otherwise idle server.
constexpr std::size_t kIdleTopN = 20;
constexpr std::size_t kIdleBatches = 100;
constexpr std::size_t kIdlePredicts = 300;
// Shares of --seconds per phase.  Ingest runs long enough for three
// checkpoints at the default 5 s cadence, so that the keep-2 retention
// garbage-collects one.
constexpr double kReadOpenShare = 0.25;
constexpr double kReadClosedShare = 0.07;
constexpr double kReadKindShare = 0.04;  // each of predict, batch, top-n
constexpr double kIngestShare = 0.55;
// A run whose generator fell behind schedule by more than this at p99 is
// invalid: its latencies would be the generator's, not the server's.
// The busy-polling generator runs 2-130 us late at p99 on the reference
// VM (NOTES.md).
constexpr double kLatenessBoundUs = 2000.0;
// Ceiling on every wait for the server (start, fold, recovery).
constexpr double kServerTimeoutS = 90.0;
// Sample sizes of the traced passes.
constexpr std::size_t kTracePredicts = 300;
constexpr std::size_t kTraceBatches = 60;
constexpr std::size_t kTraceTopN = 20;

// The server configuration the benchmark leaves at its defaults; only
// the restart phase raises the checkpoint interval so that exactly the
// rating suffix lies past its one forced checkpoint.
constexpr const char* kNoCadence = "--ckpt-interval-ms=3600000";

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::vector<double> LatenciesOf(const std::vector<Op>& ops,
                                const std::vector<Result>& results, Kind kind,
                                double scale = 1.0) {
  std::vector<double> out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == kind && results[i].ok) {
      out.push_back(results[i].LatencyUs() * scale);
    }
  }
  return out;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// FNV-1a over the rendered values: a change that moves results moves it.
std::uint64_t Digest(const std::vector<std::string>& values) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::string& v : values) {
    for (const char c : v + ";") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

void CopyTree(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

Dataset LoadDataset() {
  // The same matrix `cfsf_cli fit` fits without --data: the synthetic
  // MovieLens substitute at its defaults (500 x 1000, seed 20090101).
  const matrix::RatingMatrix m = data::GenerateSynthetic(data::SyntheticConfig{});
  Dataset d;
  d.users = m.num_users();
  d.items = m.num_items();
  d.rated.resize(d.users);
  for (std::size_t u = 0; u < d.users; ++u) {
    for (const matrix::Entry& e : m.UserRow(static_cast<matrix::UserId>(u))) {
      d.rated[u].push_back(e.index);
    }
  }
  return d;
}

struct Timer {
  Trace& trace;
  std::int64_t start = NowNs();
  int Stop(const char* name, int parent, std::uint64_t request) {
    return trace.Add(name, start, NowNs(), parent, request);
  }
};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"zipf", 1.0},
      {"uniform", 0.0},
  };
  return workloads;
}

Bench::Bench(Options options, Workload workload)
    : opt_(std::move(options)), workload_(std::move(workload)) {
  fs::create_directories(opt_.work_dir);
  fs::create_directories(opt_.out_dir);
  bundle_ = opt_.work_dir + "/model.bin";
  log_ = opt_.work_dir + "/server.log";
}

void Bench::Report(const char* line) {
  std::printf("%s\n", line);
  std::fflush(stdout);
}

void Bench::Check(bool ok, const std::string& what) {
  if (!ok) {
    check_failures_.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Bench::AddE2e(const std::string& name, double value,
                   const std::string& unit, bool gated) {
  e2e_.push_back({name, value, unit, gated});
}

void Bench::AddLayer(const std::string& name, double value,
                     const std::string& unit) {
  layers_.push_back({name, value, unit});
}

double Bench::Pct(const std::string& what, const std::vector<double>& samples,
                  double p) {
  if (p > 50.0 && !HasTail(samples.size(), p)) {
    throw std::runtime_error(what + ": " + std::to_string(samples.size()) +
                             " samples leave fewer than ten beyond p" +
                             std::to_string(static_cast<int>(p)));
  }
  return Quantile(samples, p / 100.0);
}

void Bench::CheckLateness(const std::string& phase,
                          const std::vector<Result>& results) {
  std::vector<double> late;
  late.reserve(results.size());
  for (const Result& r : results) late.push_back(r.LatenessUs());
  const double p99 = Quantile(late, 0.99);
  const double max = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  std::printf("%s: generator lateness p99 %.1f us, max %.1f us (bound p99 %.0f us)\n",
              phase.c_str(), p99, max, kLatenessBoundUs);
  if (p99 > kLatenessBoundUs) {
    std::printf("%s: INVALID run, the generator ran behind its schedule\n",
                phase.c_str());
    invalid_ = true;
  }
}

void Bench::StartServer(const std::vector<std::string>& extra) {
  port_ = FreePort();
  std::vector<std::string> args = {"serve", "--model=" + bundle_,
                                   "--port=" + std::to_string(port_)};
  args.insert(args.end(), extra.begin(), extra.end());
  server_ = std::make_unique<ServerProcess>(opt_.cli, args, log_);
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(kServerTimeoutS * 1e9);
  HttpClient conn;
  HttpClient::Reply reply;
  while (!(conn.Connect(port_) &&
           conn.Exchange(BuildRequest("GET", "/healthz", ""), &reply) &&
           reply.status == 200)) {
    if (NowNs() > deadline) throw std::runtime_error("server never became healthy");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Bench::StopServer() {
  if (server_ == nullptr) return;
  peak_rss_mb_ = std::max(peak_rss_mb_, server_->PeakRssMb());
  const int code = server_->Stop();
  Check(code == 0, "server exited with status " + std::to_string(code));
  server_.reset();
}

std::string Bench::Get(const std::string& target) {
  HttpClient conn;
  HttpClient::Reply reply;
  if (!conn.Connect(port_) ||
      !conn.Exchange(BuildRequest("GET", target, ""), &reply) ||
      reply.status != 200) {
    throw std::runtime_error("GET " + target + " failed");
  }
  return reply.body;
}

void Bench::WarmUp() {
  // One batch predicting once for every user fills the server's per-user
  // top-K cache, the state a long-running server is in.
  std::string body = "{\"queries\":[";
  for (std::uint32_t u = 0; u < data_.users; ++u) {
    body += (u ? ",[" : "[") + std::to_string(u) + ',' +
            std::to_string(u % data_.items) + ']';
  }
  body += "]}";
  HttpClient conn;
  HttpClient::Reply reply;
  const bool ok = conn.Connect(port_) &&
                  conn.Exchange(BuildRequest("POST", "/v1/predict-batch", body), &reply) &&
                  reply.status == 200;
  Check(ok, "warm-up batch failed");
}

std::vector<std::string> Bench::ProbeSet() {
  // A fixed set, independent of --seed, so its digest compares across runs.
  Rng rng(0x5EED);
  HttpClient conn;
  conn.Connect(port_);
  std::vector<std::string> values;
  for (std::size_t k = 0; k < kProbePairs; ++k) {
    const auto user = static_cast<std::uint32_t>(rng.Below(data_.users));
    const auto item = static_cast<std::uint32_t>(rng.Below(data_.items));
    Op op;
    op.user = user;
    op.item = item;
    HttpClient::Reply reply;
    const bool answered = conn.Exchange(RequestBytes(op, data_.items), &reply);
    const std::size_t at = FindKey(reply.body, "value");
    Check(answered && reply.status == 200 && at != std::string::npos,
          "probe-set predict failed");
    values.emplace_back(at == std::string::npos ? std::string_view()
                                                : TokenAt(reply.body, at));
  }
  return values;
}

void Bench::Setup() {
  data_ = LoadDataset();
  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = NowNs();
    if (RunProcess(opt_.cli, {"fit", "--model=" + bundle_}, log_) != 0) {
      throw std::runtime_error("cfsf_cli fit failed; see " + log_);
    }
    StartServer({});
    WarmUp();
    samples.push_back(Seconds(NowNs() - t0));
    if (rep + 1 < kSetupReps) StopServer();
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "setup: fit + bundle + start + warm-up, median of %d: %.3f s",
                kSetupReps, Median(samples));
  Report(line);
  AddE2e("setup_s", Median(samples), "s", true);
}

void Bench::ReadPhase() {
  const RequestGen gen(data_, workload_.zipf_exponent, opt_.seed);
  const std::vector<Op> ops = ReadSchedule(gen, StreamSeed(opt_.seed, 2), kOpenRate,
                                           opt_.seconds * kReadOpenShare, kReadMix);
  const std::string before = Get("/metrics");
  std::vector<Result> results;
  std::vector<std::pair<Op, Result>> closed;
  const double closed_s = opt_.seconds * kReadClosedShare;
  double open_cpu_s = 0.0;
  std::map<Kind, double> cpu_per_kind;  // server CPU seconds per request
  std::map<Kind, std::vector<double>> idle;
  double requests = static_cast<double>(ops.size());  // every read of the phase
  {
    // The server gives each connection a worker of its own; these close
    // at the end of the scope, before the control requests below.
    std::vector<HttpClient> conns(4);
    for (HttpClient& c : conns) c.Connect(port_);
    const double cpu0 = server_->CpuSeconds();
    RunOpenLoop(conns, ops, NowNs() + 20'000'000, data_, results);
    open_cpu_s = server_->CpuSeconds() - cpu0;
    RunClosedLoop(conns, closed_s, StreamSeed(opt_.seed, 7),
                  [&](Rng& rng, std::size_t i) { return gen.NextRead(rng, kReadMix, i); },
                  data_, closed);
    // Server CPU per request of each kind, one kind at a time.
    for (const Kind kind : {Kind::kPredict, Kind::kBatch, Kind::kTopN}) {
      std::vector<std::pair<Op, Result>> only;
      const double cpu_a = server_->CpuSeconds();
      RunClosedLoop(conns, opt_.seconds * kReadKindShare, StreamSeed(opt_.seed, 10 + static_cast<int>(kind)),
                    [&](Rng& rng, std::size_t i) {
                      Op op = gen.NextRead(rng, kReadMix, i);
                      op.kind = kind;
                      return op;
                    },
                    data_, only);
      const double cpu_b = server_->CpuSeconds();
      double ok = 0;
      for (const auto& [op, r] : only) {
        Count(tallies_, std::string("read_mix.cost.") + KindName(op.kind), r);
        ok += r.ok ? 1 : 0;
      }
      cpu_per_kind[kind] = ok > 0 ? (cpu_b - cpu_a) / ok : 0.0;
      requests += static_cast<double>(only.size());
    }
    // One request at a time on one connection, nothing else in flight.
    Rng rng(StreamSeed(opt_.seed, 9));
    for (const auto& [kind, count] : {std::pair{Kind::kTopN, kIdleTopN},
                                      std::pair{Kind::kBatch, kIdleBatches},
                                      std::pair{Kind::kPredict, kIdlePredicts}}) {
      for (std::size_t i = 0; i < count; ++i) {
        Op op = gen.NextRead(rng, kReadMix, i);
        op.kind = kind;
        Result r;
        r.due_ns = r.ready_ns = NowNs();
        Execute(conns[0], op, data_, r);
        Count(tallies_, std::string("read_mix.idle.") + KindName(kind), r);
        if (r.ok) idle[kind].push_back(r.LatencyUs());
      }
      requests += static_cast<double>(count);
    }
  }
  const std::string after = Get("/metrics");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Count(tallies_, std::string("read_mix.") + KindName(ops[i].kind), results[i]);
  }
  CheckLateness("read_mix", results);
  double closed_ok = 0;
  for (const auto& [op, r] : closed) {
    Count(tallies_, std::string("read_mix.closed.") + KindName(op.kind), r);
    closed_ok += r.ok ? 1 : 0;
  }
  requests += static_cast<double>(closed.size());
  const auto predict = LatenciesOf(ops, results, Kind::kPredict);
  const auto batch = LatenciesOf(ops, results, Kind::kBatch);
  const auto topn = LatenciesOf(ops, results, Kind::kTopN, 1e-3);
  AddE2e("read_mix.cpu_us_per_req", open_cpu_s * 1e6 / static_cast<double>(ops.size()),
         "us", true);
  AddE2e("read_mix.topn_cpu_ms", cpu_per_kind[Kind::kTopN] * 1e3, "ms", true);
  AddE2e("read_mix.predict_cpu_us", cpu_per_kind[Kind::kPredict] * 1e6, "us", false);
  AddE2e("read_mix.batch_cpu_us", cpu_per_kind[Kind::kBatch] * 1e6, "us", false);
  AddE2e("read_mix.topn_idle_ms", Median(idle[Kind::kTopN]) / 1e3, "ms", false);
  AddE2e("read_mix.predict_idle_us", Median(idle[Kind::kPredict]), "us", false);
  AddE2e("read_mix.batch_idle_us", Median(idle[Kind::kBatch]), "us", false);
  AddE2e("read_mix.predict_p50_us", Pct("read_mix predict", predict, 50), "us", false);
  AddE2e("read_mix.predict_p99_us", Pct("read_mix predict", predict, 99), "us", false);
  AddE2e("read_mix.batch_p50_us", Pct("read_mix batch", batch, 50), "us", false);
  AddE2e("read_mix.batch_p99_us", Pct("read_mix batch", batch, 99), "us", false);
  AddE2e("read_mix.topn_p50_ms", Pct("read_mix topn", topn, 50), "ms", false);
  AddE2e("read_mix.topn_p95_ms", Pct("read_mix topn", topn, 95), "ms", false);
  AddE2e("read_mix.max_rps", closed_ok / closed_s, "req/s", false);
  char line[256];
  std::snprintf(line, sizeof(line),
                "read_mix: %zu open-loop requests at %.0f/s (%zu predict, %zu "
                "batch, %zu top-n); closed loop %.0f ok/s",
                ops.size(), kOpenRate, predict.size(), batch.size(), topn.size(),
                closed_ok / closed_s);
  Report(line);

  auto delta = [&](const char* name) { return Counter(after, name) - Counter(before, name); };
  const double hits = delta("cfsf.topk.cache_hit");
  const double lookups = hits + delta("cfsf.topk.cache_miss");
  const double hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  const double tasks_per_request = delta("pool.tasks_executed") / requests;
  AddLayer("core.topk_hit_ratio_read", hit_ratio, "ratio");
  AddLayer("parallel.tasks_per_request", tasks_per_request, "count");
  refused_ += delta("serve.shed") + delta("serve.rejected") +
              delta("serve.degraded_admissions");
  below_full_ += delta("robust.fallback.sir") + delta("robust.fallback.user_mean") +
                 delta("robust.fallback.global_mean");
  std::snprintf(line, sizeof(line),
                "read_mix: top-K hit ratio %.4f of %.0f lookups; %.2f pool "
                "tasks per request",
                hit_ratio, lookups, tasks_per_request);
  Report(line);

  const std::vector<std::string> probe = ProbeSet();
  std::snprintf(line, sizeof(line),
                "probe-set digest %016llx over %zu predictions (reported, not gated)",
                static_cast<unsigned long long>(Digest(probe)), probe.size());
  Report(line);

  if (opt_.trace) {
    UseAllCpus();
    TraceReadPath(ops);
    UseGeneratorCpu();
  }
  StopServer();
}

void Bench::IngestPhase() {
  const std::string dir = opt_.work_dir + "/ingest";
  fs::remove_all(dir);
  StartServer({"--wal-dir=" + dir + "/wal", "--ckpt-dir=" + dir + "/ckpt"});
  WarmUp();
  const RequestGen gen(data_, workload_.zipf_exponent, opt_.seed);
  const double seconds = opt_.seconds * kIngestShare;
  std::vector<Op> ops = ReadSchedule(gen, StreamSeed(opt_.seed, 3),
                                     kIngestReadRate, seconds, kIngestMix);
  Rng rate_rng(StreamSeed(opt_.seed, 4));
  const auto ratings = static_cast<std::size_t>(kRatingRate * seconds);
  for (std::size_t n = 0; n < ratings; ++n) {
    Op op = gen.NextRate(rate_rng, kRetryPct, next_request_++);
    op.due_ns = static_cast<std::int64_t>((static_cast<double>(n) + 0.5) * 1e9 /
                                          kRatingRate);
    ops.push_back(op);
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; });

  const std::string before = Get("/metrics");
  const std::int64_t start = NowNs() + 20'000'000;
  const std::int64_t hard_end =
      start + static_cast<std::int64_t>((seconds + kServerTimeoutS) * 1e9);
  std::vector<Result> results;
  std::uint64_t max_lsn = 0;
  // The liveness probe polls on its own connection, open loop, until the
  // traffic has ended and every ack is visible.
  ProbeStream probe;
  probe.op.kind = Kind::kHealthz;
  probe.interval_ns = kProbeIntervalNs;
  probe.stop = [&](const Result& r) {
    if (max_lsn == 0) {
      for (const Result& a : results) max_lsn = std::max(max_lsn, a.lsn);
    }
    return !r.ok || r.lsn >= max_lsn || r.done_ns > hard_end;
  };
  double ingest_cpu_s = 0.0;
  {
    // The server gives each connection a worker of its own; these close
    // at the end of the scope, before the control requests below.
    std::vector<HttpClient> conns(3);
    for (HttpClient& c : conns) c.Connect(port_);
    HttpClient probe_conn;
    probe_conn.Connect(port_);
    probe.conn = &probe_conn;
    const double cpu0 = server_->CpuSeconds();
    RunOpenLoop(conns, ops, start, data_, results, &probe);
    ingest_cpu_s = server_->CpuSeconds() - cpu0;
  }
  const std::vector<Result>& probes = probe.results;
  std::int64_t traffic_end = start;
  for (const Result& r : results) traffic_end = std::max(traffic_end, r.done_ns);
  WaitFolded(max_lsn);
  const std::string after = Get("/metrics");

  // Accounting, lsn order and dedup.
  std::size_t acks = 0;
  std::size_t retries = 0;
  struct Ack {
    std::int64_t send_ns, done_ns;
    std::uint64_t lsn;
  };
  std::vector<Ack> ack_list;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Count(tallies_, std::string("ingest.") + KindName(ops[i].kind), results[i]);
    if (ops[i].kind != Kind::kRate) continue;
    if (ops[i].retry) {
      ++retries;
      Result retry = results[i];
      retry.ok = results[i].ok && results[i].retry_ok;
      Count(tallies_, "ingest.rate_retry", retry);
    }
    if (!results[i].ok && results[i].lsn == 0) continue;
    ++acks;
    ack_list.push_back({results[i].send_ns, results[i].done_ns, results[i].lsn});
  }
  for (const Result& r : probes) Count(tallies_, "ingest.healthz", r);
  CheckLateness("ingest", results);

  // Acks carry strictly increasing lsns: every ack's lsn exceeds the lsn
  // of each ack received before its request was sent.
  std::sort(ack_list.begin(), ack_list.end(),
            [](const Ack& a, const Ack& b) { return a.done_ns < b.done_ns; });
  {
    std::uint64_t max_before = 0;
    std::size_t j = 0;
    std::vector<Ack> by_send = ack_list;
    std::sort(by_send.begin(), by_send.end(),
              [](const Ack& a, const Ack& b) { return a.send_ns < b.send_ns; });
    bool increasing = true;
    for (const Ack& a : by_send) {
      while (j < ack_list.size() && ack_list[j].done_ns < a.send_ns) {
        max_before = std::max(max_before, ack_list[j].lsn);
        ++j;
      }
      increasing = increasing && a.lsn > max_before;
    }
    Check(increasing, "ingest: an ack's lsn did not exceed every earlier ack's");
  }
  auto delta = [&](const char* name) { return Counter(after, name) - Counter(before, name); };
  Check(delta("wal.dedup.hits") == static_cast<double>(retries),
        "ingest: wal.dedup.hits " + std::to_string(delta("wal.dedup.hits")) +
            " != retries sent " + std::to_string(retries));
  Check(delta("wal.folded_records") == static_cast<double>(acks),
        "ingest: wal.folded_records " + std::to_string(delta("wal.folded_records")) +
            " != distinct acks " + std::to_string(acks));
  Check(delta("wal.fold.skipped") == 0.0, "ingest: ratings skipped by the fold");

  // Ack -> visible: the first probe answer after the ack whose
  // fold_watermark covers the lsn.
  std::vector<double> visible;
  for (const Ack& a : ack_list) {
    const auto it = std::find_if(probes.begin(), probes.end(), [&](const Result& p) {
      return p.ok && p.done_ns >= a.done_ns && p.lsn >= a.lsn;
    });
    if (it != probes.end()) visible.push_back(Ms(it->done_ns - a.done_ns));
  }
  Check(visible.size() == ack_list.size(), "ingest: an acked rating never became visible");
  std::vector<double> healthz;
  for (const Result& r : probes) {
    if (r.ok && r.due_ns <= traffic_end) healthz.push_back(r.LatencyUs() / 1e3);
  }
  std::vector<double> rate_ack;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == Kind::kRate && results[i].lsn > 0) {
      rate_ack.push_back(results[i].LatencyUs());
    }
  }
  const auto predict = LatenciesOf(ops, results, Kind::kPredict);
  const auto batch = LatenciesOf(ops, results, Kind::kBatch);
  AddE2e("ingest.cpu_us_per_req", ingest_cpu_s * 1e6 / static_cast<double>(ops.size()),
         "us", true);
  AddE2e("ingest.predict_p50_us", Pct("ingest predict", predict, 50), "us", false);
  AddE2e("ingest.predict_p99_us", Pct("ingest predict", predict, 99), "us", false);
  AddE2e("ingest.batch_p50_us", Pct("ingest batch", batch, 50), "us", false);
  AddE2e("ingest.batch_p95_us", Pct("ingest batch", batch, 95), "us", false);
  AddE2e("ingest.rate_ack_p50_us", Pct("ingest rate ack", rate_ack, 50), "us", false);
  AddE2e("ingest.rate_ack_p95_us", Pct("ingest rate ack", rate_ack, 95), "us", false);
  AddE2e("ingest.visible_p50_ms", Pct("ingest visible", visible, 50), "ms", false);
  AddE2e("ingest.visible_p95_ms", Pct("ingest visible", visible, 95), "ms", false);
  AddE2e("ingest.healthz_p99_ms", Pct("ingest healthz", healthz, 99), "ms", false);

  const double hits = delta("cfsf.topk.cache_hit");
  const double lookups = hits + delta("cfsf.topk.cache_miss");
  const double publishes = delta("wal.fold.publishes");
  const double appends = delta("wal.appends");
  const double hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  const double publishes_per_s = publishes / Seconds(traffic_end - start);
  const double records_per_publish =
      publishes > 0 ? delta("wal.folded_records") / publishes : 0.0;
  const double fsyncs_per_append = appends > 0 ? delta("wal.fsyncs") / appends : 0.0;
  refused_ += delta("serve.shed") + delta("serve.rejected") +
              delta("serve.degraded_admissions");
  below_full_ += delta("robust.fallback.sir") + delta("robust.fallback.user_mean") +
                 delta("robust.fallback.global_mean");
  AddLayer("core.topk_hit_ratio_ingest", hit_ratio, "ratio");
  AddLayer("core.topk_lookups_ingest", lookups, "count");
  AddLayer("serve.publishes_per_s", publishes_per_s, "1/s");
  AddLayer("serve.records_per_publish", records_per_publish, "count");
  AddLayer("serve.refused", refused_, "count");
  AddLayer("robust.below_full", below_full_, "count");
  AddLayer("wal.fsyncs_per_append", fsyncs_per_append, "ratio");
  AddLayer("wal.dedup_hits", delta("wal.dedup.hits"), "count");
  AddLayer("wal.append_server_p50_us", HistogramStat(after, "wal.append.latency_us", "p50"),
           "us");
  AddLayer("ckpt.writes", delta("ckpt.writes"), "count");
  char line[320];
  std::snprintf(line, sizeof(line),
                "ingest: %zu ratings acked (%zu retries), %zu predicts, %zu "
                "batches, %zu probes; top-K hit ratio %.4f of %.0f lookups; "
                "%.1f publishes/s, %.2f records per publish; %.0f checkpoints; "
                "%.2f fsyncs per append",
                acks, retries, predict.size(), batch.size(), probes.size(),
                hit_ratio, lookups, publishes_per_s, records_per_publish,
                delta("ckpt.writes"), fsyncs_per_append);
  Report(line);

  if (opt_.trace) {
    UseAllCpus();
    TraceIngest();
    UseGeneratorCpu();
  }
  StopServer();
  fs::remove_all(dir);
}

std::uint64_t Bench::WaitFolded(std::uint64_t lsn) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(kServerTimeoutS * 1e9);
  for (;;) {
    const std::string health = Get("/healthz");
    const auto watermark = NumberField(health, "fold_watermark").value_or(0);
    if (watermark >= static_cast<double>(lsn)) {
      return static_cast<std::uint64_t>(watermark);
    }
    if (NowNs() > deadline) throw std::runtime_error("fold never caught up");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Bench::ClosedLoopRatings(const std::vector<Op>& ratings,
                              std::vector<Result>& results) {
  HttpClient conn;
  conn.Connect(port_);
  results.assign(ratings.size(), Result{});
  for (std::size_t i = 0; i < ratings.size(); ++i) {
    Execute(conn, ratings[i], data_, results[i]);
    Count(tallies_, "restart.rate", results[i]);
  }
}

void Bench::RestartPhase() {
  const std::string dir = opt_.work_dir + "/restart";
  const std::string crash = dir + "/crash";
  const std::string at_ckpt = dir + "/at_checkpoint";
  fs::remove_all(dir);
  const std::int64_t t0 = NowNs();
  StartServer({"--wal-dir=" + crash + "/wal", "--ckpt-dir=" + crash + "/ckpt",
               kNoCadence});
  HttpClient conn;
  conn.Connect(port_);
  HttpClient::Reply reply;
  const bool forced =
      conn.Exchange(BuildRequest("POST", "/v1/admin/checkpoint", ""), &reply) &&
      reply.status == 200;
  const auto checkpoint_id =
      static_cast<std::uint64_t>(NumberField(reply.body, "checkpoint_id").value_or(0));
  Check(forced && checkpoint_id > 0, "restart: forced checkpoint not written");
  if (opt_.trace) CopyTree(crash, at_ckpt);

  const RequestGen gen(data_, workload_.zipf_exponent, opt_.seed);
  Rng rng(StreamSeed(opt_.seed, 5));
  std::vector<Op> ratings;
  for (std::size_t n = 0; n < kRestartSuffix; ++n) {
    ratings.push_back(gen.NextRate(rng, 0.0, next_request_++));
  }
  std::vector<Result> acks;
  ClosedLoopRatings(ratings, acks);
  std::uint64_t last_lsn = 0;
  bool consecutive = true;
  for (const Result& r : acks) {
    consecutive = consecutive && r.ok && r.lsn == last_lsn + 1;
    last_lsn = r.lsn;
  }
  Check(consecutive, "restart: acks are not consecutive lsns");
  WaitFolded(last_lsn);
  const std::vector<std::string> before_kill = ProbeSet();
  peak_rss_mb_ = std::max(peak_rss_mb_, server_->PeakRssMb());
  server_->Kill();
  server_.reset();
  char line[256];
  std::snprintf(line, sizeof(line),
                "restart: crash state (checkpoint %llu + %zu acked ratings) built "
                "in %.3f s",
                static_cast<unsigned long long>(checkpoint_id), kRestartSuffix,
                Seconds(NowNs() - t0));
  Report(line);

  // Each restart runs on a fresh copy of the crash directories.
  const std::string copy = dir + "/copy";
  std::vector<double> restarts;
  std::vector<double> restart_cpu;
  for (int k = 0; k < kRestarts; ++k) {
    CopyTree(crash, copy);
    const std::int64_t spawn = NowNs();
    port_ = FreePort();
    server_ = std::make_unique<ServerProcess>(
        opt_.cli,
        std::vector<std::string>{"serve", "--model=" + bundle_,
                                 "--port=" + std::to_string(port_),
                                 "--wal-dir=" + copy + "/wal",
                                 "--ckpt-dir=" + copy + "/ckpt", kNoCadence},
        log_);
    Op op;
    op.user = 0;
    op.item = 0;
    HttpClient c;
    HttpClient::Reply r;
    const std::string request = RequestBytes(op, data_.items);
    while (!(c.Connect(port_) && c.Exchange(request, &r) && r.status == 200)) {
      if (Seconds(NowNs() - spawn) > kServerTimeoutS || !server_->running()) {
        throw std::runtime_error("restarted server never answered");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    restarts.push_back(Seconds(NowNs() - spawn));
    restart_cpu.push_back(server_->CpuSeconds());

    const std::string health = Get("/healthz");
    const std::size_t recovery = FindKey(health, "recovery");
    Check(StringField(health, "source", recovery) == std::string("checkpoint") &&
              NumberField(health, "checkpoint_id", recovery) ==
                  static_cast<double>(checkpoint_id),
          "restart: recovery did not start from the forced checkpoint");
    Check(NumberField(health, "replayed_records", recovery) ==
              static_cast<double>(kRestartSuffix),
          "restart: replayed_records is not the suffix size");
    Check(NumberField(health, "fold_watermark") == static_cast<double>(last_lsn),
          "restart: an acked lsn is missing after recovery");
    Check(ProbeSet() == before_kill,
          "restart: probe-set predictions differ from the ones served before the kill");
    StopServer();
  }
  fs::remove_all(copy);
  AddE2e("restart.cpu_s", Median(restart_cpu), "s", true);
  AddE2e("restart.restart_s", Median(restarts), "s", false);
  std::snprintf(line, sizeof(line),
                "restart: %zu restarts, median %.3f s, min %.3f s, max %.3f s",
                restarts.size(), Median(restarts),
                *std::min_element(restarts.begin(), restarts.end()),
                *std::max_element(restarts.begin(), restarts.end()));
  Report(line);
  if (opt_.trace) {
    UseAllCpus();
    TraceRestart(crash, at_ckpt, checkpoint_id, ratings);
    UseGeneratorCpu();
  }
  fs::remove_all(dir);
}

// Re-issues a fixed sample of the read phase's requests one layer down at
// a time: HTTP, then ServingService::Handle, then ServingStack::Submit and
// Await, then the ladder, then CfsfModel.  Each layer's self time is its
// span minus the next layer's span on the same request.
void Bench::TraceReadPath(const std::vector<Op>& ops) {
  serve::ModelGeneration models;
  models.Install(core::LoadModel(bundle_));
  serve::ServingOptions serving;  // as `cfsf_cli serve` sets them
  serving.num_workers = 4;
  serving.queue_capacity = 64;
  serving.degrade_watermark = serving.queue_capacity * 3 / 4;
  serve::ServingStack stack(models, serving);
  net::ServingService service(stack);
  const auto active = models.Active();
  const core::CfsfModel& model = active->model();
  const robust::FallbackPredictor& ladder = active->ladder();
  for (std::uint32_t u = 0; u < data_.users; ++u) model.Predict(u, 0);

  HttpClient conn;
  conn.Connect(port_);
  std::map<std::string, std::vector<double>> samples;
  std::size_t predicts = 0, batches = 0, topns = 0;
  for (const Op& op : ops) {
    std::size_t& taken = op.kind == Kind::kPredict ? predicts
                         : op.kind == Kind::kBatch ? batches
                                                   : topns;
    const std::size_t cap = op.kind == Kind::kPredict ? kTracePredicts
                            : op.kind == Kind::kBatch ? kTraceBatches
                                                      : kTraceTopN;
    if (taken >= cap) continue;
    ++taken;
    const std::uint64_t id = next_request_++;
    const std::string bytes = RequestBytes(op, data_.items);
    HttpClient::Reply reply;
    Timer http{trace_};
    conn.Exchange(bytes, &reply);
    const int http_span = http.Stop("http", -1, id);

    net::RequestParser parser;
    Timer parse{trace_};
    parser.Feed(bytes.data(), bytes.size());
    const int parse_span = parse.Stop("net.parse", -1, id);
    Timer handle{trace_};
    service.Handle(parser.request());
    const int handle_span = handle.Stop("net.handle", http_span, id);

    const auto queries = BatchQueries(op, data_.items);
    std::vector<std::pair<matrix::UserId, matrix::ItemId>> pairs(queries.begin(),
                                                                 queries.end());
    const serve::Request request =
        op.kind == Kind::kPredict ? serve::Request::Predict(op.user, op.item)
        : op.kind == Kind::kBatch ? serve::Request::PredictBatch(pairs)
                                  : serve::Request::TopN(op.user, kTopN);
    Timer submit{trace_};
    auto future = stack.Submit(request);
    const int submit_span = submit.Stop("serve.submit", handle_span, id);
    Timer await{trace_};
    serve::ServingStack::Await(future);
    const int await_span = await.Stop("serve.await", handle_span, id);

    if (op.kind == Kind::kPredict) {
      Timer ladder_timer{trace_};
      ladder.PredictWithLadder(op.user, op.item, robust::Deadline{});
      const int ladder_span = ladder_timer.Stop("robust.ladder", await_span, id);
      Timer fusion{trace_};
      model.Predict(op.user, op.item);
      const int fusion_span = fusion.Stop("core.predict", ladder_span, id);
      samples["net.self_us"].push_back(trace_.SelfUs(http_span));
      samples["net.parse_us"].push_back(trace_.DurationUs(parse_span));
      samples["net.handle_self_us"].push_back(trace_.SelfUs(handle_span));
      samples["serve.submit_us"].push_back(trace_.DurationUs(submit_span));
      samples["serve.wait_self_us"].push_back(trace_.SelfUs(await_span));
      samples["robust.ladder_self_us"].push_back(trace_.SelfUs(ladder_span));
      samples["core.fusion_us"].push_back(trace_.DurationUs(fusion_span));
    } else if (op.kind == Kind::kBatch) {
      Timer ladder_timer{trace_};
      ladder.PredictBatchWithLadder(pairs, robust::Deadline{});
      const int ladder_span = ladder_timer.Stop("robust.ladder_batch", await_span, id);
      Timer core_batch{trace_};
      model.PredictBatch(pairs);
      samples["core.batch_us"].push_back(
          trace_.DurationUs(core_batch.Stop("core.batch", ladder_span, id)));
    } else {
      Timer topn{trace_};
      model.RecommendTopN(op.user, kTopN);
      samples["core.topn_ms"].push_back(
          trace_.DurationUs(topn.Stop("core.topn", await_span, id)) / 1e3);
    }
  }
  const char* units[][2] = {{"net.self_us", "us"},        {"net.parse_us", "us"},
                            {"net.handle_self_us", "us"}, {"serve.submit_us", "us"},
                            {"serve.wait_self_us", "us"}, {"robust.ladder_self_us", "us"},
                            {"core.fusion_us", "us"},     {"core.batch_us", "us"},
                            {"core.topn_ms", "ms"}};
  for (const auto& [name, unit] : units) AddLayer(name, Median(samples[name]), unit);
}

void Bench::TraceIngest() {
  const std::unique_ptr<core::CfsfModel> model = core::LoadModel(bundle_);
  const RequestGen gen(data_, workload_.zipf_exponent, opt_.seed);
  Rng rng(StreamSeed(opt_.seed, 6));
  std::vector<double> topk;
  for (int k = 0; k < 200; ++k) {
    const std::uint32_t user = gen.User(rng);
    model->ClearCache();
    Timer t{trace_};
    model->SelectTopKUsers(user);
    topk.push_back(trace_.DurationUs(t.Stop("core.topk", -1, next_request_++)));
  }
  AddLayer("core.topk_us", Median(topk), "us");

  // The per-publish shadow clone: Restore from copies of the model state.
  std::vector<double> clone;
  for (int k = 0; k < 5; ++k) {
    std::vector<std::uint32_t> assignments(model->NumUsers());
    for (matrix::UserId u = 0; u < assignments.size(); ++u) {
      assignments[u] = model->cluster_model().ClusterOf(u);
    }
    Timer t{trace_};
    core::CfsfModel::Restore(model->config(), model->train(), model->gis(),
                             std::move(assignments));
    clone.push_back(trace_.DurationUs(t.Stop("serve.clone", -1, next_request_++)) / 1e3);
  }
  AddLayer("serve.clone_ms", Median(clone), "ms");

  // Forced checkpoints on the ingest server, each after one more rating
  // so that the watermark has advanced.
  std::vector<double> checkpoints;
  HttpClient conn;
  conn.Connect(port_);
  for (int k = 0; k < 3; ++k) {
    const Op rating = gen.NextRate(rng, 0.0, next_request_++);
    Result r;
    Execute(conn, rating, data_, r);
    Count(tallies_, "ingest.trace_rate", r);
    WaitFolded(r.lsn);
    HttpClient::Reply reply;
    Timer t{trace_};
    const bool ok =
        conn.Exchange(BuildRequest("POST", "/v1/admin/checkpoint", ""), &reply) &&
        reply.status == 200 && NumberField(reply.body, "checkpoint_id").value_or(0) > 0;
    checkpoints.push_back(trace_.DurationUs(t.Stop("ckpt.checkpoint", -1, next_request_++)) / 1e3);
    Check(ok, "traced forced checkpoint failed");
  }
  AddLayer("ckpt.checkpoint_ms", Median(checkpoints), "ms");

  // Durable appends on a scratch log beside the run.
  const std::string scratch = opt_.work_dir + "/trace_wal";
  fs::remove_all(scratch);
  std::vector<double> appends;
  {
    wal::WriteAheadLog log(scratch);
    for (int k = 0; k < 200; ++k) {
      const matrix::RatingTriple record{static_cast<matrix::UserId>(k % data_.users),
                                        static_cast<matrix::ItemId>(k % data_.items),
                                        3.0F, 0};
      Timer t{trace_};
      log.Append(record, /*require_durable=*/true);
      appends.push_back(trace_.DurationUs(t.Stop("wal.append", -1, next_request_++)));
    }
  }
  fs::remove_all(scratch);
  AddLayer("wal.append_us", Median(appends), "us");
}

void Bench::TraceRestart(const std::string& crash_dir,
                         const std::string& at_ckpt_dir,
                         std::uint64_t checkpoint_id,
                         const std::vector<Op>& ratings) {
  const std::string bundle = crash_dir + "/ckpt/" + ckpt::ModelFileName(checkpoint_id);
  std::unique_ptr<core::CfsfModel> model = core::LoadModel(bundle);
  const std::size_t kLayerSamples = 20;

  std::vector<double> with_rating, refresh, smoothing;
  sim::GlobalItemSimilarity gis = model->gis();
  for (std::size_t k = 0; k < kLayerSamples; ++k) {
    const Op& r = ratings[k];
    Timer t{trace_};
    const matrix::RatingMatrix updated =
        model->train().WithRating(r.user, r.item, static_cast<float>(r.rating));
    with_rating.push_back(
        trace_.DurationUs(t.Stop("matrix.with_rating", -1, next_request_++)) / 1e3);
    const matrix::ItemId touched[] = {r.item};
    Timer g{trace_};
    gis.RefreshItems(updated, touched);
    refresh.push_back(
        trace_.DurationUs(g.Stop("similarity.gis_refresh", -1, next_request_++)) / 1e3);
  }
  std::vector<std::uint32_t> assignments(model->NumUsers());
  for (matrix::UserId u = 0; u < assignments.size(); ++u) {
    assignments[u] = model->cluster_model().ClusterOf(u);
  }
  for (std::size_t k = 0; k < kLayerSamples / 2; ++k) {
    Timer t{trace_};
    cluster::ClusterModel::Build(model->train(), assignments,
                                 model->cluster_model().num_clusters(),
                                 model->config().parallel,
                                 model->config().deviation_shrinkage);
    smoothing.push_back(
        trace_.DurationUs(t.Stop("clustering.smoothing", -1, next_request_++)) / 1e3);
  }
  std::vector<double> insert;
  for (const Op& r : ratings) {
    Timer t{trace_};
    model->InsertRating(r.user, r.item, static_cast<float>(r.rating));
    insert.push_back(trace_.DurationUs(t.Stop("core.insert", -1, next_request_++)) / 1e3);
  }
  AddLayer("core.insert_ms", Median(insert), "ms");
  AddLayer("matrix.with_rating_ms", Median(with_rating), "ms");
  AddLayer("similarity.gis_refresh_ms", Median(refresh), "ms");
  AddLayer("clustering.smoothing_ms", Median(smoothing), "ms");

  const std::string copy = opt_.work_dir + "/trace_copy";
  std::vector<double> replay, load;
  for (int k = 0; k < 3; ++k) {
    CopyTree(crash_dir, copy);
    std::vector<wal::RecoveredRecord> recovered;
    Timer t{trace_};
    { wal::WriteAheadLog log(copy + "/wal", {}, &recovered); }
    replay.push_back(trace_.DurationUs(t.Stop("wal.replay", -1, next_request_++)) / 1e3);
    Timer l{trace_};
    core::VerifyModel(bundle);
    core::LoadModel(bundle);
    load.push_back(trace_.DurationUs(l.Stop("ckpt.load", -1, next_request_++)) / 1e3);
  }
  AddLayer("wal.replay_ms", Median(replay), "ms");
  AddLayer("ckpt.load_ms", Median(load), "ms");

  auto recover = [&](const std::string& from) {
    CopyTree(from, copy);
    ckpt::RecoverOptions options;
    options.ckpt_dir = copy + "/ckpt";
    options.wal_dir = copy + "/wal";
    options.seed_model = [&] { return core::LoadModel(bundle_); };
    Timer t{trace_};
    ckpt::RecoveryResult result = ckpt::Recover(options);
    const double ms = trace_.DurationUs(t.Stop("ckpt.recover", -1, next_request_++)) / 1e3;
    Check(result.info.checkpoint_id == checkpoint_id, "traced recovery chose another checkpoint");
    return std::make_pair(ms, result.info.replayed_records);
  };
  const auto [suffix_ms, replayed] = recover(crash_dir);
  const auto [empty_ms, empty_replayed] = recover(at_ckpt_dir);
  fs::remove_all(copy);
  Check(replayed == kRestartSuffix && empty_replayed == 0,
        "traced recovery replayed the wrong suffix");
  AddLayer("ckpt.recover_ms", suffix_ms, "ms");
  AddLayer("ckpt.recover_per_record_ms",
           (suffix_ms - empty_ms) / static_cast<double>(kRestartSuffix), "ms");
}

int Bench::Run() {
  std::printf("perfbench: workload %s (user Zipf exponent %.1f), seed %llu, "
              "%.0f s, trace %d\n",
              workload_.name.c_str(), workload_.zipf_exponent,
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0);
  try {
    Setup();
    ReadPhase();
    IngestPhase();
    RestartPhase();
  } catch (const std::exception& e) {
    if (server_ != nullptr) server_->Kill();
    std::fprintf(stderr, "perfbench: %s (server log: %s)\n", e.what(), log_.c_str());
    return 2;
  }
  AddE2e("peak_rss_mb", peak_rss_mb_, "MB", true);
  if (invalid_) {
    std::fprintf(stderr, "perfbench: run invalid (generator lateness); no result\n");
    return 3;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, t] : tallies_) {
    std::printf("requests %-26s attempted %8llu ok %8llu failed %llu (checks %llu)\n",
                kind.c_str(), static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.ok),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.check_failures));
    attempted += t.attempted;
    failed += t.failed;
    if (t.check_failures > 0) {
      check_failures_.push_back(kind + ": answer checks failed");
    }
  }
  const bool correct = check_failures_.empty() && failed == 0;

  std::vector<Metric> out;
  if (opt_.trace) {
    out = layers_;
    trace_.WriteJsonl(opt_.out_dir + "/spans-" + workload_.name + "-" +
                      std::to_string(opt_.seed) + ".jsonl");
  } else {
    for (const Metric& m : e2e_) {
      if (m.gated) out.push_back(m);
    }
  }

  // Untraced results are kept so that a traced run can report the
  // tracing overhead (traced minus untraced) on every end-to-end metric.
  const std::string untraced = opt_.out_dir + "/untraced-" + workload_.name + ".txt";
  if (!opt_.trace) {
    std::ofstream keep(untraced);
    for (const Metric& m : e2e_) keep << m.name << ' ' << m.value << '\n';
  } else {
    std::ifstream in(untraced);
    std::map<std::string, double> base;
    std::string name;
    double value = 0;
    while (in >> name >> value) base[name] = value;
    for (const Metric& m : e2e_) {
      if (base.count(m.name) == 0) {
        std::printf("tracing overhead %-28s traced %.4g (no untraced run in this checkout)\n",
                    m.name.c_str(), m.value);
      } else {
        std::printf("tracing overhead %-28s traced %.4g untraced %.4g delta %+.4g %s\n",
                    m.name.c_str(), m.value, base[m.name], m.value - base[m.name],
                    m.unit.c_str());
      }
    }
  }

  for (const Metric& m : e2e_) {
    std::printf("%s %-30s %14.4f %s\n", m.gated ? "metric  " : "reported", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  if (opt_.trace) {
    for (const Metric& m : out) {
      std::printf("layer    %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  if (!correct) {
    for (const std::string& f : check_failures_) {
      std::fprintf(stderr, "perfbench: failed check: %s\n", f.c_str());
    }
    return 1;
  }
  fs::remove_all(opt_.work_dir);
  return 0;
}

}  // namespace perfbench
