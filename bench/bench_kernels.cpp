// Kernel-dispatch microbenchmark: times every available kernel tier
// (scalar / sse42 / avx2) on the primitives that dominate BCPNN training
// — GEMM above all — and emits BENCH_kernels.json with per-tier numbers,
// speedups over the scalar reference and the host they were measured on
// (cores, dispatch, build type, compiler, commit). The acceptance bar for
// the SIMD subsystem is >= 2x GEMM speedup on AVX2 hardware.
//
//   bench_kernels [--out BENCH_kernels.json] [--reps 5] [--commit ID]
//                 [--check]
//
// --check (for CI): exit 1 unless the best SIMD tier runs vexp,
// vlog_floored and softmax_block at >= 2x the scalar tier on this same
// host — a ratio, never an absolute time. Hosts without a SIMD tier pass.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "streambrain/streambrain.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/kernel_set.hpp"

using namespace streambrain;
namespace st = streambrain::tensor;

namespace {

struct Result {
  std::string kernel;
  std::string shape;
  std::string tier;
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

st::MatrixF random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

/// Median-of-reps wall time of `fn` (one warmup call first).
template <typename Fn>
double time_call(std::size_t reps, Fn&& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<const st::KernelSet*> available_tiers() {
  std::vector<const st::KernelSet*> tiers;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (const st::KernelSet* set = st::kernel_set_for(level)) {
      tiers.push_back(set);
    }
  }
  return tiers;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("reps", 5)));
  const std::string commit = args.get_string("commit", "unknown");
  const bool check = args.has("check");

  const auto tiers = available_tiers();
  const st::DispatchLevel original = st::active_kernels().level;
  std::printf("=== Kernel dispatch microbench ===\n");
  std::printf("max supported: %s, active: %s, tiers built: %zu\n\n",
              st::dispatch_level_name(st::max_supported_dispatch()),
              st::dispatch_level_name(original), tiers.size());

  util::Rng rng(42);
  std::vector<Result> results;
  double gemm_best_speedup = 1.0;

  // --- GEMM through the public dispatched entry point -----------------
  for (const std::size_t dim : {128UL, 256UL, 384UL}) {
    const st::MatrixF a = random_matrix(dim, dim, rng);
    const st::MatrixF b = random_matrix(dim, dim, rng);
    st::MatrixF c(dim, dim, 0.0f);
    const double flops = 2.0 * static_cast<double>(dim) * dim * dim;
    const std::string shape = std::to_string(dim) + "x" + std::to_string(dim) +
                              "x" + std::to_string(dim);
    double scalar_seconds = 0.0;
    for (const st::KernelSet* tier : tiers) {
      st::force_dispatch(tier->level);
      const double seconds = time_call(reps, [&] {
        st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a, b, 0.0f, c);
      });
      Result result{"gemm", shape, tier->name, seconds, flops / seconds / 1e9,
                    1.0};
      if (tier->level == st::DispatchLevel::kScalar) {
        scalar_seconds = seconds;
      } else if (scalar_seconds > 0.0) {
        result.speedup_vs_scalar = scalar_seconds / seconds;
        gemm_best_speedup = std::max(gemm_best_speedup,
                                     result.speedup_vs_scalar);
      }
      results.push_back(result);
      std::printf("  gemm %-12s %-7s %8.2f ms  %7.2f GFLOP/s  %5.2fx\n",
                  shape.c_str(), tier->name, seconds * 1e3,
                  result.gflops, result.speedup_vs_scalar);
    }
  }
  st::force_dispatch(original);

  // --- Vector primitives, per tier, straight through the vtable -------
  constexpr std::size_t kN = 1 << 16;
  st::MatrixF xs = random_matrix(1, kN, rng);
  st::MatrixF ys = random_matrix(1, kN, rng);
  st::MatrixF probs = random_matrix(1, kN, rng);
  for (float& p : probs) p = std::abs(p);  // trace-like, some floored
  st::MatrixF scratch(1, kN, 0.0f);
  const std::string vec_shape = "n=" + std::to_string(kN);
  struct VecBench {
    const char* name;
    double flops_per_elem;
    bool gated;  // --check: best SIMD tier must reach 2x scalar
  };
  constexpr VecBench kBenches[] = {{"axpy", 2.0, false},
                                   {"dot", 2.0, false},
                                   {"reduce_sum", 1.0, false},
                                   {"vexp", 1.0, true},
                                   {"vlog_floored", 1.0, true},
                                   {"softmax_block", 4.0, true}};
  constexpr std::size_t kBenchCount = std::size(kBenches);
  double best_speedup[kBenchCount] = {};
  volatile float sink = 0.0f;
  for (const st::KernelSet* tier : tiers) {
    for (std::size_t which = 0; which < kBenchCount; ++which) {
      const double seconds = time_call(reps * 4, [&] {
        switch (which) {
          case 0:
            tier->axpy(0.5f, xs.data(), ys.data(), kN);
            break;
          case 1:
            sink = tier->dot(xs.data(), ys.data(), kN);
            break;
          case 2:
            sink = tier->sum(xs.data(), kN);
            break;
          case 3:
            tier->vexp(xs.data(), scratch.data(), kN);
            break;
          case 4:
            tier->vlog_floored(probs.data(), scratch.data(), 1e-8f, kN);
            break;
          case 5:
            std::copy_n(xs.data(), kN, scratch.data());
            tier->softmax_block(scratch.data(), kN, 1.0f);
            break;
        }
      });
      Result result{kBenches[which].name, vec_shape, tier->name, seconds,
                    kBenches[which].flops_per_elem * kN / seconds / 1e9, 1.0};
      // Tiers are iterated scalar-first, so the scalar time for this
      // bench is recorded in results already; look it up.
      for (const Result& prior : results) {
        if (prior.kernel == result.kernel && prior.shape == vec_shape &&
            prior.tier == std::string("scalar")) {
          result.speedup_vs_scalar = prior.seconds / seconds;
        }
      }
      if (tier->level != st::DispatchLevel::kScalar) {
        best_speedup[which] =
            std::max(best_speedup[which], result.speedup_vs_scalar);
      }
      results.push_back(result);
      std::printf("  %-13s %-12s %-7s %8.2f us  %5.2fx\n",
                  result.kernel.c_str(), vec_shape.c_str(), tier->name,
                  seconds * 1e6, result.speedup_vs_scalar);
    }
  }
  (void)sink;

  // --- JSON report ------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"kernels\",\n";
  out << "  \"host\": {\"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ", \"dispatch\": \""
      << st::dispatch_level_name(original) << "\", \"build_type\": \""
      << STREAMBRAIN_BUILD_TYPE << "\", \"compiler\": \""
      << STREAMBRAIN_COMPILER << "\", \"commit\": \"" << commit << "\"},\n";
  out << "  \"max_supported_dispatch\": \""
      << st::dispatch_level_name(st::max_supported_dispatch()) << "\",\n";
  out << "  \"active_dispatch\": \"" << st::dispatch_level_name(original)
      << "\",\n";
  out << "  \"tiers\": [";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    out << (i ? ", " : "") << '"' << tiers[i]->name << '"';
  }
  out << "],\n";
  out << "  \"gemm_best_speedup_vs_scalar\": " << gemm_best_speedup << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& result = results[i];
    out << "    {\"kernel\": \"" << result.kernel << "\", \"shape\": \""
        << result.shape << "\", \"tier\": \"" << result.tier
        << "\", \"seconds\": " << result.seconds
        << ", \"gflops\": " << result.gflops
        << ", \"speedup_vs_scalar\": " << result.speedup_vs_scalar << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nbest GEMM speedup vs scalar: %.2fx\nwrote %s\n",
              gemm_best_speedup, out_path.c_str());

  if (!check) return 0;
  if (tiers.size() < 2) {
    std::printf("--check: no SIMD tier on this host, nothing to gate\n");
    return 0;
  }
  bool passed = true;
  for (std::size_t which = 0; which < kBenchCount; ++which) {
    if (!kBenches[which].gated) continue;
    const bool ok = best_speedup[which] >= 2.0;
    passed = passed && ok;
    std::printf("--check %s: best SIMD tier %.2fx scalar (need >= 2x) %s\n",
                kBenches[which].name, best_speedup[which],
                ok ? "ok" : "FAILED");
  }
  return passed ? 0 : 1;
}
