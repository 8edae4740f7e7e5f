#pragma once
// The benchmark's three workloads. Each takes the run options, measures
// for `seconds`, checks its outputs and returns its metrics by name. End-
// to-end metrics come from untraced runs (trace == false); a traced run
// returns the per-layer breakdown instead.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimum input sizes, for the smoke test only.
  bool smoke = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunResult run_train_higgs(const RunOptions& options);
RunResult run_serve_closed(const RunOptions& options);
RunResult run_dist_tcp(const RunOptions& options);

}  // namespace perfbench
