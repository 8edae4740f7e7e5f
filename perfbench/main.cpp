// Repository benchmark: one workload per process.
//
//   sb_perfbench --workload train-higgs|serve-closed|dist-tcp
//                --seed N --seconds S --trace 0|1 [--commit ID] [--smoke 1]
//
// Prints one line per metric, a host line, and as its last line the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer breakdown with --trace 1. Exits 1
// when a correctness gate failed, 2 on bad arguments or an aborted run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "parallel/engine_registry.hpp"
#include "traced_engine.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer").
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"rows_per_s", "rows/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"test_auc", "1"},         {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.generate_s", "s"},
    {"encode.fit_transform_s", "s"},
    {"encode.transform_s", "s"},
    {"parallel.support_s", "s"},
    {"parallel.support_calls", "count"},
    {"parallel.softmax_s", "s"},
    {"parallel.softmax_calls", "count"},
    {"parallel.update_traces_s", "s"},
    {"parallel.update_traces_calls", "count"},
    {"parallel.recompute_weights_s", "s"},
    {"parallel.recompute_weights_calls", "count"},
    {"core.unsupervised_s", "s"},
    {"core.head_s", "s"},
    {"core.hidden_other_s", "s"},
    {"core.fit_other_s", "s"},
    {"core.dist_other_s", "s"},
    {"core.one_rank_fit_s", "s"},
    {"comm.bytes_per_rank", "bytes"},
    {"comm.wire_bytes_per_rank", "bytes"},
    {"comm.syncs", "count"},
    {"comm.allreduce_gbps", "GB/s"},
    {"comm.shm_allreduce_gbps", "GB/s"},
    {"comm.shm_fit_s", "s"},
    {"serve.requests", "count"},
    {"serve.batches", "count"},
    {"serve.mean_batch_rows", "rows"},
    {"serve.stage_close_ms", "ms"},
    {"serve.stage_dispatch_ms", "ms"},
    {"serve.stage_compute_ms", "ms"},
    {"serve.stage_fulfill_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.full_closes", "count"},
    {"serve.adaptive_closes", "count"},
    {"serve.deadline_closes", "count"},
    {"bench.trace_overhead_share", "1"},
};

const std::map<std::string, std::function<RunResult(const RunOptions&)>>
    kWorkloads = {
        {"train-higgs", perfbench::run_train_higgs},
        {"serve-closed", perfbench::run_serve_closed},
        {"dist-tcp", perfbench::run_dist_tcp},
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage(const char* error) {
  std::fprintf(stderr,
               "sb_perfbench: %s\nusage: sb_perfbench --workload "
               "train-higgs|serve-closed|dist-tcp --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--smoke 1]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string commit;
  try {
    const streambrain::util::ArgParser args(argc, argv);
    options.workload = args.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    const long long trace = args.get_int("trace", 0);
    options.smoke = args.get_int("smoke", 0) != 0;
    commit = args.get_string("commit", "unknown");
    if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
    options.trace = trace == 1;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end()) return usage("unknown --workload");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  perfbench::register_traced_engine();
  const auto& registry = streambrain::parallel::EngineRegistry::instance();
  std::printf(
      "host {\"cores\": %u, \"dispatch\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      std::thread::hardware_concurrency(),
      json_escape(registry.info("simd").dispatch).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_COMPILER).c_str(), json_escape(commit).c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0);

  RunResult result;
  try {
    result = workload->second(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sb_perfbench: run aborted: %s\n", e.what());
    return 2;
  }

  // The selected metrics go into the result object below; print the
  // workload's extra figures (other than the other mode's list) as well.
  const auto& selected = options.trace ? kPerLayer : kEndToEnd;
  const auto& other = options.trace ? kEndToEnd : kPerLayer;
  for (const auto& [name, metric] : result.metrics) {
    const auto listed = [&name](const MetricSpec& spec) {
      return name == spec.name;
    };
    if (std::any_of(other.begin(), other.end(), listed) &&
        std::none_of(selected.begin(), selected.end(), listed)) {
      continue;
    }
    std::printf("metric %-34s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("failed_share %.6g (%llu of %llu operations)\n",
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  bool correct = result.failed == 0 && result.attempted > 0;
  std::string metrics;
  for (const MetricSpec& spec : selected) {
    double value = 0.0;  // a per-layer metric this workload does not have
    const auto found = result.metrics.find(spec.name);
    if (found != result.metrics.end()) {
      value = found->second.value;
      if (found->second.unit != spec.unit) {
        std::fprintf(stderr, "sb_perfbench: %s reported in %s, expected %s\n",
                     spec.name, found->second.unit.c_str(), spec.unit);
        correct = false;
      }
    } else if (!options.trace) {
      std::fprintf(stderr, "sb_perfbench: missing metric %s\n", spec.name);
      correct = false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "sb_perfbench: %s is not finite\n", spec.name);
      value = 0.0;
      correct = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(spec.name).append("\": {\"value\": ");
    metrics.append(json_number(value)).append(", \"unit\": \"");
    metrics.append(spec.unit).append("\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
