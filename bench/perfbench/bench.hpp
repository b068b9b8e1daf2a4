// One benchmark run: set-up, then the read_mix, ingest and restart phases
// against `cfsf_cli serve`, each followed in a traced run by its in-process
// per-layer pass.  NOTES.md describes the phases and why they exist.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "traffic.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string cli;       // the cfsf_cli binary under test
  std::string work_dir;  // scratch space of this run, removed on success
  std::string out_dir;   // traces and untraced results kept across runs
};

/// A workload: the traffic property the two workloads differ in.
struct Workload {
  std::string name;
  double zipf_exponent = 1.0;  // user skew of every request and rating
};
const std::vector<Workload>& Workloads();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// End-to-end metrics only: gated ones are BENCHMARK.json's end_to_end
  /// list; the others are reported in the log, not gated (NOTES.md).
  bool gated = true;
};

class Bench {
 public:
  Bench(Options options, Workload workload);
  /// Runs every phase and prints the report; returns the exit code.
  int Run();

 private:
  void Setup();
  void ReadPhase();
  void IngestPhase();
  void RestartPhase();
  void TraceReadPath(const std::vector<Op>& ops);
  void TraceIngest();
  void TraceRestart(const std::string& crash_dir, const std::string& at_ckpt_dir,
                    std::uint64_t checkpoint_id, const std::vector<Op>& ratings);

  /// Starts `cfsf_cli serve` on a fresh port and waits for /healthz.
  void StartServer(const std::vector<std::string>& extra);
  void StopServer();
  std::string Get(const std::string& target);
  void WarmUp();
  /// Raw rendered values of the fixed probe set, one per pair.
  std::vector<std::string> ProbeSet();
  void Check(bool ok, const std::string& what);
  void ClosedLoopRatings(const std::vector<Op>& ratings,
                         std::vector<Result>& results);
  std::uint64_t WaitFolded(std::uint64_t lsn);
  void AddE2e(const std::string& name, double value, const std::string& unit,
              bool gated);
  void AddLayer(const std::string& name, double value, const std::string& unit);
  /// p-th percentile of `samples` after checking the ten-beyond rule.
  double Pct(const std::string& what, const std::vector<double>& samples,
             double p);
  void CheckLateness(const std::string& phase, const std::vector<Result>& r);
  void Report(const char* line);

  Options opt_;
  Workload workload_;
  Dataset data_;
  std::string bundle_;
  std::string log_;
  std::uint16_t port_ = 0;
  std::unique_ptr<ServerProcess> server_;
  Trace trace_;
  std::uint64_t next_request_ = 1;
  double peak_rss_mb_ = 0.0;
  Tallies tallies_;
  std::vector<std::string> check_failures_;
  bool invalid_ = false;
  std::vector<Metric> e2e_;
  /// Per-layer metrics; only a traced run prints them.  The counts among
  /// them come from /metrics in every run.
  std::vector<Metric> layers_;
  double refused_ = 0.0;     // refused admissions, read_mix + ingest
  double below_full_ = 0.0;  // answers below the full rung, read_mix + ingest
};

}  // namespace perfbench
