// perfbench_loadgen — the serving benchmark's load generator.
//
//   perfbench_loadgen --workload zipf|uniform --seed N --seconds S
//                     --trace 0|1 --cli PATH --work-dir DIR --out-dir DIR
//
// bench/perfbench/run.py builds this and cfsf_cli and supplies the paths.  The
// last line of standard output is the JSON result; exit status 0 means
// every answer check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--cli") {
      options.cli = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const perfbench::Workload* workload = nullptr;
  for (const perfbench::Workload& w : perfbench::Workloads()) {
    if (w.name == options.workload) workload = &w;
  }
  if (workload == nullptr || options.cli.empty() || options.work_dir.empty() ||
      options.out_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload zipf|uniform --seed N "
                 "--seconds S --trace 0|1 --cli PATH --work-dir DIR --out-dir DIR\n");
    return 2;
  }
  perfbench::SplitCpus();
  perfbench::Bench bench(options, *workload);
  return bench.Run();
}
