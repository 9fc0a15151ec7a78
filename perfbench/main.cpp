// Benchmark entry point: runs one workload and prints, as the last line of
// standard output, one JSON object with the checks' verdict, the operations
// attempted and failed, and the metrics.
//
//   perfbench --workload <clean_reads|paper_reads|wire_interactive|pim_fleet>
//             --seed <n> --seconds <s> --trace <0|1> --tmp-dir <dir>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --tmp-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--tmp-dir") {
        args.tmp_dir = value;
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (args.tmp_dir.empty()) usage("--tmp-dir is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    if (args.workload == "clean_reads") {
      result = perfbench::run_clean_reads(args);
    } else if (args.workload == "paper_reads") {
      result = perfbench::run_paper_reads(args);
    } else if (args.workload == "wire_interactive") {
      result = perfbench::run_wire_interactive(args);
    } else if (args.workload == "pim_fleet") {
      result = perfbench::run_pim_fleet(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& p : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.metrics.to_json().c_str());
  return 0;
}
