// The four workloads. Each returns its checks' verdict, the operations it
// attempted and failed, and its metrics: the end-to-end set for an
// untraced run, the per-layer set for a traced one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;  ///< Parent of the run's private mkdtemp directory.
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricList metrics;
  std::vector<std::string> problems;

  void problem(std::string what) {
    correct = false;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
};

RunResult run_clean_reads(const RunArgs& args);
RunResult run_paper_reads(const RunArgs& args);
RunResult run_pim_fleet(const RunArgs& args);
RunResult run_wire_interactive(const RunArgs& args);

}  // namespace perfbench
