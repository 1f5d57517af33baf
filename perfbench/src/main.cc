// The repository benchmark. Usage:
//
//   perfbench --workload interactive_tcp|bulk_scale|closed_loop
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Generates the workload's inputs from the seed, sets the system up,
// measures for S seconds, checks the answers, and prints one JSON object
// as its last stdout line: every end-to-end metric with --trace 0, every
// per-layer metric of the traced run with --trace 1. Exits 1 when a
// correctness check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "interactive_tcp|bulk_scale|closed_loop --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0 || options.workdir.empty()) {
    return Usage();
  }

  perfbench::RunResult (*run)(const perfbench::RunOptions&) = nullptr;
  if (workload == "interactive_tcp") run = perfbench::RunInteractiveTcp;
  if (workload == "bulk_scale") run = perfbench::RunBulkScale;
  if (workload == "closed_loop") run = perfbench::RunClosedLoop;
  if (run == nullptr) return Usage();

  perfbench::NumCpus();  // records the CPU set before anything is pinned
  perfbench::FreshDir(options.workdir);
  const perfbench::RunResult result = run(options);
  std::error_code ec;
  std::filesystem::remove_all(options.workdir, ec);
  perfbench::PrintResult(result, options.trace);
  if (!result.correct) {
    std::fprintf(stderr, "perfbench: %s FAILED its correctness check\n",
                 workload.c_str());
    return 1;
  }
  return 0;
}
