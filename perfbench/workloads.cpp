#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "streambrain/streambrain.hpp"
#include "traced_engine.hpp"

namespace perfbench {
namespace {

namespace sb = streambrain;
using sb::tensor::MatrixF;
using Clock = std::chrono::steady_clock;

// The paper's hybrid Higgs network: 28 features x 10 quantile bins one-hot
// (280 inputs), 1 HCU x 300 MCUs with a 40% receptive field, SGD head,
// batch 64.
constexpr const char* kEngine = "simd";
constexpr std::size_t kBins = 10;
constexpr std::size_t kMcus = 300;
constexpr double kReceptiveField = 0.40;
constexpr int kRanks = 2;
constexpr std::size_t kRequestRows = 48;
constexpr std::size_t kClients = 4;
constexpr int kAllreduceIterations = 20;
// Shared-memory fits per traced dist-tcp run, reported as their median.
constexpr std::size_t kShmFits = 3;
// The model's initialisation seed is fixed; --seed varies only the events,
// which keeps the spread of test_auc across seeds small.
constexpr std::uint64_t kModelSeed = 1;

/// Input size and schedule of one workload. Fixed per workload, so every
/// seed measures the same amount of work.
struct Sizes {
  std::size_t train_events;
  std::size_t test_events;
  std::size_t epochs;
  std::size_t head_epochs;
  /// Set-ups per run; setup_s is their median.
  std::size_t setups;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Exact nearest-rank order statistic: the smallest sample with at least
/// a `quantile` share of the samples at or below it.
double order_statistic(std::vector<double> values, double quantile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(quantile * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Peak resident set so far. Read once, right after the first measured
/// operation: later operations only re-use freed memory, but how much of
/// it the allocator keeps per thread depends on timing. VmHWM, not
/// getrusage: ru_maxrss keeps the launching process's peak across
/// execve, so it would count run.py's memory.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void put(RunResult& result, const std::string& name, double value,
         const char* unit) {
  result.metrics[name] = Metric{value, unit};
}

void report_failure(const char* what, const std::string& detail) {
  std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what, detail.c_str());
}

struct Data {
  MatrixF x_train;
  MatrixF x_test;
  std::vector<int> y_train;
  std::vector<int> y_test;
  double generate_s = 0.0;
  double fit_transform_s = 0.0;
  double transform_s = 0.0;
};

Data make_data(std::uint64_t seed, const Sizes& sizes) {
  Data data;
  auto start = Clock::now();
  sb::data::SyntheticHiggsGenerator generator({.seed = seed});
  sb::data::Dataset train = generator.generate(sizes.train_events);
  sb::data::Dataset test = generator.generate(sizes.test_events);
  data.generate_s = seconds_since(start);

  sb::encode::OneHotEncoder encoder(kBins);
  start = Clock::now();
  data.x_train = encoder.fit_transform(train.features);
  data.fit_transform_s = seconds_since(start);
  start = Clock::now();
  data.x_test = encoder.transform(test.features);
  data.transform_s = seconds_since(start);
  data.y_train = std::move(train.labels);
  data.y_test = std::move(test.labels);
  return data;
}

sb::core::Model build_model(const std::string& engine, const Sizes& sizes) {
  sb::core::Model model;
  model.input(sb::data::kHiggsFeatures, kBins)
      .hidden(1, kMcus, kReceptiveField)
      .classifier(2, sb::core::HeadType::kSgd)
      .set_option("epochs", static_cast<double>(sizes.epochs))
      .set_option("head_epochs", static_cast<double>(sizes.head_epochs))
      .compile(engine, kModelSeed);
  return model;
}

/// Medians over the repeated set-ups of one run.
struct SetupTimes {
  std::vector<double> total;
  std::vector<double> generate;
  std::vector<double> fit_transform;
  std::vector<double> transform;

  void add(double total_s, const Data& data) {
    total.push_back(total_s);
    generate.push_back(data.generate_s);
    fit_transform.push_back(data.fit_transform_s);
    transform.push_back(data.transform_s);
  }

  void report(RunResult& result) const {
    put(result, "setup_s", median(total), "s");
    put(result, "data.generate_s", median(generate), "s");
    put(result, "encode.fit_transform_s", median(fit_transform), "s");
    put(result, "encode.transform_s", median(transform), "s");
  }
};

/// Per-operation means of the traced engine's counters.
void report_primitives(RunResult& result, const PrimitiveCounters& sum,
                       std::size_t ops) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  for (std::size_t p = 0; p < kPrimitives; ++p) {
    const std::string stem = std::string("parallel.") + kPrimitiveNames[p];
    put(result, stem + "_s", sum.seconds(static_cast<Primitive>(p)) / n, "s");
    put(result, stem + "_calls", static_cast<double>(sum.calls[p]) / n,
        "count");
  }
}

/// End-to-end metrics shared by the training workloads: one operation is
/// one whole fit of `train_events` rows.
void report_fits(RunResult& result, const std::vector<double>& fit_seconds,
                 std::size_t train_events, double auc, double rss_mb) {
  std::vector<double> fit_ms;
  for (const double s : fit_seconds) fit_ms.push_back(s * 1e3);
  const double train_s = median(fit_seconds);
  put(result, "train_s", train_s, "s");
  put(result, "rows_per_s",
      train_s > 0.0 ? static_cast<double>(train_events) / train_s : 0.0,
      "rows/s");
  put(result, "latency_p50_ms", order_statistic(fit_ms, 0.50), "ms");
  put(result, "latency_p90_ms", order_statistic(fit_ms, 0.90), "ms");
  put(result, "test_auc", auc, "1");
  put(result, "peak_rss_mb", rss_mb, "MiB");
}

double overhead_share(const std::vector<double>& untraced_s,
                      const std::vector<double>& traced_s) {
  const double base = median(untraced_s);
  return base > 0.0 ? median(traced_s) / base - 1.0 : 0.0;
}

/// Calls `attempt(traced)` until `options.seconds` have passed: untraced
/// operations only, or untraced and traced ones in turn in a traced run.
template <typename Attempt>
void measure(const RunOptions& options, Attempt&& attempt) {
  const auto start = Clock::now();
  do {
    attempt(false);
    if (options.trace) attempt(true);
  } while (seconds_since(start) < options.seconds);
}

/// The training workloads' set-up, repeated: events, encoding, a model.
Data set_up_training(const RunOptions& options, const Sizes& sizes,
                     RunResult& result) {
  SetupTimes setup;
  Data data;
  for (std::size_t i = 0; i < sizes.setups; ++i) {
    const auto start = Clock::now();
    data = make_data(options.seed, sizes);
    const sb::core::Model model = build_model(kEngine, sizes);
    setup.add(seconds_since(start), data);
  }
  setup.report(result);
  return data;
}

// ---- train-higgs -------------------------------------------------------

struct FitOutcome {
  double seconds = 0.0;
  sb::core::FitReport report;
  std::vector<double> scores;
  PrimitiveCounters whole;         // every primitive call of the fit
  PrimitiveCounters unsupervised;  // up to the last unsupervised epoch
};

FitOutcome fit_network(const std::string& engine, const Sizes& sizes,
                       const Data& data) {
  sb::core::Model model = build_model(engine, sizes);
  sb::core::Network& network = model.network();
  FitOutcome out;
  const PrimitiveCounters before = traced_counters();
  if (engine == kTracedEngine) {
    network.set_epoch_callback([&](const auto&, const auto&) {
      out.unsupervised = traced_counters() - before;
    });
  }
  const auto start = Clock::now();
  out.report = network.fit(data.x_train, data.y_train);
  out.seconds = seconds_since(start);
  out.whole = traced_counters() - before;
  out.scores = model.predict_scores(data.x_test);
  return out;
}

// ---- serve-closed ------------------------------------------------------

/// Held-out rows cut into fixed requests, with the serial answer to each.
struct RequestPool {
  std::vector<MatrixF> requests;
  std::vector<std::vector<double>> expected;
};

std::shared_ptr<sb::core::Model> train_serving_model(const std::string& engine,
                                                     const Sizes& sizes,
                                                     const Data& data) {
  auto model = std::make_shared<sb::core::Model>(build_model(engine, sizes));
  model->fit(data.x_train, data.y_train);
  return model;
}

RequestPool make_request_pool(sb::core::Model& model, const MatrixF& rows) {
  RequestPool pool;
  for (std::size_t begin = 0; begin + kRequestRows <= rows.rows();
       begin += kRequestRows) {
    MatrixF request(kRequestRows, rows.cols());
    for (std::size_t r = 0; r < kRequestRows; ++r) {
      std::copy_n(rows.row(begin + r), rows.cols(), request.row(r));
    }
    pool.expected.push_back(model.predict_scores(request));
    pool.requests.push_back(std::move(request));
  }
  return pool;
}

struct PassStats {
  double wall_s = 0.0;
  std::size_t rows = 0;
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One closed-loop pass: kClients threads each send `per_client` requests,
/// the next only after the previous answer, and check every answer against
/// the serial one.
PassStats serve_pass(sb::AsyncPredictor& server, const RequestPool& pool,
                     std::size_t per_client, std::size_t offset) {
  std::vector<PassStats> per_thread(kClients);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        PassStats& mine = per_thread[c];
        mine.latency_ms.reserve(per_client);
        for (std::size_t i = 0; i < per_client; ++i) {
          const std::size_t k =
              (offset + c * per_client + i) % pool.requests.size();
          ++mine.attempted;
          try {
            const auto sent = Clock::now();
            const std::vector<double> scores =
                server.predict_scores(pool.requests[k]);
            const double ms = seconds_since(sent) * 1e3;
            if (!same_bits(scores, pool.expected[k])) {
              ++mine.failed;
              continue;
            }
            mine.latency_ms.push_back(ms);
            mine.rows += kRequestRows;
          } catch (const std::exception&) {
            ++mine.failed;
          }
        }
      });
    }
  }
  PassStats total;
  total.wall_s = seconds_since(start);
  for (PassStats& mine : per_thread) {
    total.rows += mine.rows;
    total.attempted += mine.attempted;
    total.failed += mine.failed;
    total.latency_ms.insert(total.latency_ms.end(), mine.latency_ms.begin(),
                            mine.latency_ms.end());
  }
  return total;
}

/// Serving-stage deltas summed over the traced passes.
struct ServeDeltas {
  double requests = 0, batches = 0, model_rows = 0;
  double close_s = 0, dispatch_s = 0, compute_s = 0, fulfill_s = 0;
  double queue_wait_s = 0;
  double full = 0, adaptive = 0, deadline = 0;

  void add(const sb::AsyncPredictorStats& before,
           const sb::AsyncPredictorStats& after) {
    requests += static_cast<double>(after.requests - before.requests);
    batches += static_cast<double>(after.batches - before.batches);
    model_rows += static_cast<double>(after.model_rows - before.model_rows);
    close_s += after.stage_close_seconds - before.stage_close_seconds;
    dispatch_s += after.stage_dispatch_seconds - before.stage_dispatch_seconds;
    compute_s += after.stage_compute_seconds - before.stage_compute_seconds;
    fulfill_s += after.stage_fulfill_seconds - before.stage_fulfill_seconds;
    queue_wait_s +=
        after.total_queue_wait_seconds - before.total_queue_wait_seconds;
    full += static_cast<double>(after.full_closes - before.full_closes);
    adaptive +=
        static_cast<double>(after.adaptive_closes - before.adaptive_closes);
    deadline +=
        static_cast<double>(after.deadline_closes - before.deadline_closes);
  }

  void report(RunResult& result, std::size_t passes) const {
    const double n = passes == 0 ? 1.0 : static_cast<double>(passes);
    const double per_batch_ms = batches > 0 ? 1e3 / batches : 0.0;
    put(result, "serve.requests", requests, "count");
    put(result, "serve.batches", batches / n, "count");
    put(result, "serve.mean_batch_rows",
        batches > 0 ? model_rows / batches : 0.0, "rows");
    put(result, "serve.stage_close_ms", close_s * per_batch_ms, "ms");
    put(result, "serve.stage_dispatch_ms", dispatch_s * per_batch_ms, "ms");
    put(result, "serve.stage_compute_ms", compute_s * per_batch_ms, "ms");
    put(result, "serve.stage_fulfill_ms", fulfill_s * per_batch_ms, "ms");
    put(result, "serve.queue_wait_ms",
        requests > 0 ? queue_wait_s * 1e3 / requests : 0.0, "ms");
    put(result, "serve.full_closes", full / n, "count");
    put(result, "serve.adaptive_closes", adaptive / n, "count");
    put(result, "serve.deadline_closes", deadline / n, "count");
  }
};

// ---- dist-tcp ----------------------------------------------------------

struct DistOutcome {
  double seconds = 0.0;
  sb::core::DistributedReport report;
  std::vector<double> scores;
  PrimitiveCounters primitives;
};

DistOutcome fit_dist(const std::string& engine, int ranks,
                     sb::comm::Backend backend, const Sizes& sizes,
                     const Data& data) {
  sb::core::Model model = build_model(engine, sizes);
  sb::core::DistributedOptions options;
  options.ranks = ranks;
  options.backend = backend;
  DistOutcome out;
  const PrimitiveCounters before = traced_counters();
  const auto start = Clock::now();
  out.report =
      sb::core::fit_distributed(model, data.x_train, data.y_train, options);
  out.seconds = seconds_since(start);
  out.primitives = traced_counters() - before;
  out.scores = model.predict_scores(data.x_test);
  return out;
}

/// Bandwidth of Communicator::allreduce on `backend` at kRanks ranks for a
/// `bytes`-sized float payload.
double allreduce_gbps(sb::comm::Backend backend, std::uint64_t bytes) {
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(bytes) / sizeof(float));
  double seconds = 0.0;  // written by rank 0, read after the join
  sb::comm::run_transport(backend, kRanks, [&](sb::comm::Communicator& comm) {
    // kMax keeps the payload finite over the iterations.
    std::vector<float> buffer(count, static_cast<float>(comm.rank() + 1));
    comm.barrier();
    const auto start = Clock::now();
    for (int i = 0; i < kAllreduceIterations; ++i) {
      comm.allreduce(buffer.data(), count, sb::comm::ReduceOp::kMax);
    }
    comm.barrier();
    if (comm.rank() == 0) seconds = seconds_since(start);
  });
  const double moved = static_cast<double>(count * sizeof(float)) *
                       kAllreduceIterations;
  return seconds > 0.0 ? moved / seconds / 1e9 : 0.0;
}

}  // namespace

RunResult run_dist_tcp(const RunOptions& options) {
  // Four hidden and four head epochs: exact-mode traffic is ~1.4 MB per
  // sync per rank, so the paper's 12 + 24 would make a fit minutes long.
  const Sizes sizes = options.smoke ? Sizes{256, 128, 1, 1, 1}
                                    : Sizes{3000, 1000, 4, 4, 40};
  const sb::comm::Backend backend = sb::comm::Backend::kTcp;
  RunResult result;
  const Data data = set_up_training(options, sizes, result);

  // Gate: every fit must reproduce a one-rank fit bit for bit.
  std::optional<std::vector<double>> reference;
  ++result.attempted;
  try {
    DistOutcome one_rank =
        fit_dist(kEngine, 1, sb::comm::Backend::kInProcess, sizes, data);
    put(result, "core.one_rank_fit_s", one_rank.seconds, "s");
    reference = std::move(one_rank.scores);
  } catch (const std::exception& e) {
    ++result.failed;
    report_failure("one-rank reference fit", e.what());
  }
  // An untimed warm-up fit, checked like the measured ones.
  ++result.attempted;
  try {
    const DistOutcome warm_up = fit_dist(kEngine, kRanks, backend, sizes, data);
    if (!reference || !same_bits(warm_up.scores, *reference)) {
      ++result.failed;
      report_failure("warm-up fit", "scores differ from the one-rank fit");
    }
  } catch (const std::exception& e) {
    ++result.failed;
    report_failure("warm-up fit", e.what());
  }

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  PrimitiveCounters primitive_sum;
  double other_sum = 0.0;
  double rss_mb = 0.0;
  sb::core::DistributedReport last_report;
  measure(options, [&](bool traced) {
    ++result.attempted;
    try {
      const DistOutcome fit = fit_dist(traced ? kTracedEngine : kEngine,
                                       kRanks, backend, sizes, data);
      if (!reference || !same_bits(fit.scores, *reference)) {
        ++result.failed;
        report_failure("distributed fit",
                       "scores differ from the one-rank fit");
        return;
      }
      last_report = fit.report;
      if (rss_mb == 0.0) rss_mb = peak_rss_mb();
      (traced ? traced_s : untraced_s).push_back(fit.seconds);
      std::printf("fit %s %.4f s\n", traced ? "traced" : "untraced",
                  fit.seconds);
      if (traced) {
        primitive_sum += fit.primitives;
        other_sum += fit.seconds - fit.primitives.total_seconds() / kRanks;
      }
    } catch (const std::exception& e) {
      ++result.failed;
      report_failure("distributed fit", e.what());
    }
  });

  report_fits(result, untraced_s, sizes.train_events,
              reference ? sb::metrics::auc(*reference, data.y_test) : 0.0,
              rss_mb);
  report_primitives(result, primitive_sum, traced_s.size());
  put(result, "core.dist_other_s",
      traced_s.empty() ? 0.0 : other_sum / static_cast<double>(traced_s.size()),
      "s");
  put(result, "comm.bytes_per_rank",
      static_cast<double>(last_report.bytes_per_rank), "bytes");
  put(result, "comm.wire_bytes_per_rank",
      static_cast<double>(last_report.wire_bytes_per_rank), "bytes");
  put(result, "comm.syncs", static_cast<double>(last_report.sync_count),
      "count");
  put(result, "bench.trace_overhead_share",
      overhead_share(untraced_s, traced_s), "1");
  if (!options.trace || last_report.sync_count == 0) return result;

  // The shared-memory transport, timed by the traced run only: it waits
  // in timed sleeps, and on a shared host its fit time swings by 2x from
  // one minute to the next, too much for a bounded metric.
  const std::uint64_t payload =
      last_report.bytes_per_rank / last_report.sync_count;
  put(result, "comm.allreduce_gbps", allreduce_gbps(backend, payload),
      "GB/s");
  put(result, "comm.shm_allreduce_gbps",
      allreduce_gbps(sb::comm::Backend::kShm, payload), "GB/s");
  std::vector<double> shm_s;
  for (std::size_t i = 0; i < kShmFits; ++i) {
    ++result.attempted;
    try {
      const DistOutcome fit =
          fit_dist(kEngine, kRanks, sb::comm::Backend::kShm, sizes, data);
      if (!reference || !same_bits(fit.scores, *reference)) {
        ++result.failed;
        report_failure("shared-memory fit",
                       "scores differ from the one-rank fit");
        continue;
      }
      shm_s.push_back(fit.seconds);
      std::printf("fit shm %.4f s\n", fit.seconds);
    } catch (const std::exception& e) {
      ++result.failed;
      report_failure("shared-memory fit", e.what());
    }
  }
  put(result, "comm.shm_fit_s", median(shm_s), "s");
  return result;
}

RunResult run_train_higgs(const RunOptions& options) {
  const Sizes sizes = options.smoke ? Sizes{256, 128, 1, 1, 1}
                                    : Sizes{4000, 2000, 12, 24, 40};
  RunResult result;
  const Data data = set_up_training(options, sizes, result);

  // Gate: every fit of the run, traced or not, scores the held-out events
  // bit-identically to an untimed warm-up fit.
  std::optional<std::vector<double>> reference;
  ++result.attempted;
  try {
    reference = fit_network(kEngine, sizes, data).scores;
  } catch (const std::exception& e) {
    ++result.failed;
    report_failure("warm-up fit", e.what());
  }
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  PrimitiveCounters primitive_sum;
  double unsupervised_sum = 0.0;
  double head_sum = 0.0;
  double hidden_other_sum = 0.0;
  double fit_other_sum = 0.0;
  double rss_mb = 0.0;
  measure(options, [&](bool traced) {
    ++result.attempted;
    try {
      const FitOutcome fit =
          fit_network(traced ? kTracedEngine : kEngine, sizes, data);
      if (!reference || !same_bits(fit.scores, *reference)) {
        ++result.failed;
        report_failure(traced ? "traced fit" : "fit",
                       "held-out scores differ from the warm-up fit");
        return;
      }
      if (rss_mb == 0.0) rss_mb = peak_rss_mb();
      (traced ? traced_s : untraced_s).push_back(fit.seconds);
      std::printf("fit %s %.4f s\n", traced ? "traced" : "untraced",
                  fit.seconds);
      if (traced) {
        primitive_sum += fit.whole;
        unsupervised_sum += fit.report.unsupervised_seconds;
        head_sum += fit.report.head_seconds;
        hidden_other_sum += fit.report.unsupervised_seconds -
                            fit.unsupervised.total_seconds();
        fit_other_sum += fit.seconds - fit.report.total_seconds();
      }
    } catch (const std::exception& e) {
      ++result.failed;
      report_failure("fit", e.what());
    }
  });

  report_fits(result, untraced_s, sizes.train_events,
              reference ? sb::metrics::auc(*reference, data.y_test) : 0.0,
              rss_mb);
  report_primitives(result, primitive_sum, traced_s.size());
  const double n =
      traced_s.empty() ? 1.0 : static_cast<double>(traced_s.size());
  put(result, "core.unsupervised_s", unsupervised_sum / n, "s");
  put(result, "core.head_s", head_sum / n, "s");
  put(result, "core.hidden_other_s", hidden_other_sum / n, "s");
  put(result, "core.fit_other_s", fit_other_sum / n, "s");
  put(result, "bench.trace_overhead_share",
      overhead_share(untraced_s, traced_s), "1");
  return result;
}

RunResult run_serve_closed(const RunOptions& options) {
  // The serving model trains on `train_events`; the held-out events form
  // the request pool (test_events / 48 distinct 48-row requests).
  const Sizes sizes = options.smoke ? Sizes{256, 192, 1, 1, 1}
                                    : Sizes{2000, 4800, 12, 24, 5};
  const std::size_t per_client = options.smoke ? 4 : 250;
  RunResult result;
  SetupTimes setup;
  Data data;
  RequestPool pool;
  std::unique_ptr<sb::AsyncPredictor> server;
  for (std::size_t i = 0; i < sizes.setups; ++i) {
    server.reset();
    const auto start = Clock::now();
    data = make_data(options.seed, sizes);
    auto model = train_serving_model(kEngine, sizes, data);
    pool = make_request_pool(*model, data.x_test);
    server = std::make_unique<sb::AsyncPredictor>(model);
    const PassStats warmup = serve_pass(*server, pool, 8, 0);
    result.attempted += warmup.attempted;
    result.failed += warmup.failed;
    setup.add(seconds_since(start), data);
  }
  setup.report(result);

  // The traced server's model trains on the traced engine; the pool's
  // serial answers come from the untraced model, so every traced answer
  // is also checked against the untraced bits.
  std::unique_ptr<sb::AsyncPredictor> traced_server;
  if (options.trace) {
    traced_server = std::make_unique<sb::AsyncPredictor>(
        train_serving_model(kTracedEngine, sizes, data));
  }

  std::vector<double> untraced_rps;
  std::vector<double> traced_rps;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> p99_ms;
  std::size_t latency_samples = 0;
  PrimitiveCounters primitive_sum;
  ServeDeltas deltas;
  double rss_mb = 0.0;
  std::size_t offset = 0;
  measure(options, [&](bool traced) {
    sb::AsyncPredictor& target = traced ? *traced_server : *server;
    const PrimitiveCounters before = traced_counters();
    const sb::AsyncPredictorStats stats_before = target.stats();
    const PassStats pass = serve_pass(target, pool, per_client, offset);
    offset += kClients * per_client;
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    if (pass.failed > 0) {
      report_failure("serving pass",
                     std::to_string(pass.failed) +
                         " requests failed or differ from serial scores");
    }
    const double rps = static_cast<double>(pass.rows) / pass.wall_s;
    if (traced) {
      traced_rps.push_back(rps);
      primitive_sum += traced_counters() - before;
      deltas.add(stats_before, target.stats());
    } else {
      untraced_rps.push_back(rps);
      p50_ms.push_back(order_statistic(pass.latency_ms, 0.50));
      p90_ms.push_back(order_statistic(pass.latency_ms, 0.90));
      p99_ms.push_back(order_statistic(pass.latency_ms, 0.99));
      latency_samples += pass.latency_ms.size();
    }
  });

  std::vector<double> all_expected;
  for (const auto& expected : pool.expected) {
    all_expected.insert(all_expected.end(), expected.begin(), expected.end());
  }
  const std::vector<int> pool_labels(
      data.y_test.begin(),
      data.y_test.begin() + static_cast<std::ptrdiff_t>(all_expected.size()));

  put(result, "rows_per_s", median(untraced_rps), "rows/s");
  // Each pass's exact order statistics, then the median over the passes:
  // one pooled over the whole run is set by its worst few seconds. The
  // p99 is printed, not bounded: on a shared host it doubles in runs
  // where the host is busy.
  put(result, "latency_p50_ms", median(p50_ms), "ms");
  put(result, "latency_p90_ms", median(p90_ms), "ms");
  put(result, "latency_p99_ms", median(p99_ms), "ms");
  put(result, "latency_samples", static_cast<double>(latency_samples),
      "count");
  put(result, "test_auc", sb::metrics::auc(all_expected, pool_labels), "1");
  put(result, "peak_rss_mb", rss_mb, "MiB");
  report_primitives(result, primitive_sum, traced_rps.size());
  deltas.report(result, traced_rps.size());
  // Extra time per served row while traced, from rows/s.
  const double traced = median(traced_rps);
  put(result, "bench.trace_overhead_share",
      traced > 0.0 ? median(untraced_rps) / traced - 1.0 : 0.0, "1");
  return result;
}

}  // namespace perfbench
