// Binary-input GEMM path: tensor::gemm_binary_or_dense, and the simd
// engine's support / trace update built on it, must produce the SAME BITS
// as the dense tensor::gemm at every dispatch tier — the gather-adds are
// the dense kernel's ascending-k multiply-adds with the x == 0 terms
// dropped. Inputs that are not bitwise {+0, 1} or are too dense must fall
// back to the dense GEMM.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "parallel/engine.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

const std::vector<std::size_t>& batch_sizes() {
  static const std::vector<std::size_t> sizes = {0, 1, 3, 4, 5, 64};
  return sizes;
}

const std::vector<std::size_t>& widths() {
  static const std::vector<std::size_t> sizes = {1, 7, 8, 15, 16, 17, 300};
  return sizes;
}

std::vector<st::DispatchLevel> available_levels() {
  std::vector<st::DispatchLevel> levels;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

/// Restores the startup dispatch tier when a test ends, pass or fail.
class DispatchGuard {
 public:
  DispatchGuard() : original_(st::active_kernels().level) {}
  ~DispatchGuard() { st::force_dispatch(original_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  st::DispatchLevel original_;
};

st::MatrixF random_matrix(std::size_t rows, std::size_t cols, su::Rng& rng,
                          float lo, float hi) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) v = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

/// Sparse binary input: about one unit in ten on, row 0 all zeros, row 2
/// all ones when the batch is large enough to stay under the cutoff, and
/// a one in the last column of the last row.
st::MatrixF binary_input(std::size_t rows, std::size_t cols, su::Rng& rng) {
  st::MatrixF x(rows, cols, 0.0f);
  for (std::size_t r = 1; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.1) x(r, j) = 1.0f;
    }
  }
  if (rows >= 8) {
    for (std::size_t j = 0; j < cols; ++j) x(2, j) = 1.0f;
  }
  if (rows > 1) x(rows - 1, cols - 1) = 1.0f;
  return x;
}

/// The documented path predicate, restated independently.
bool expect_binary_path(const st::MatrixF& x) {
  std::size_t ones = 0;
  for (const float v : x) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    if (bits == std::bit_cast<std::uint32_t>(1.0f)) {
      ++ones;
    } else if (bits != 0u) {
      return false;
    }
  }
  return ones <= static_cast<std::size_t>(st::kBinaryGemmMaxDensity *
                                          static_cast<double>(x.size()));
}

::testing::AssertionResult bitwise_equal(const float* expect,
                                         const float* actual, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint32_t>(expect[i]) !=
        std::bit_cast<std::uint32_t>(actual[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": expected " << expect[i] << " got "
             << actual[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bitwise_equal(const st::MatrixF& expect,
                                         const st::MatrixF& actual) {
  if (expect.rows() != actual.rows() || expect.cols() != actual.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  return bitwise_equal(expect.data(), actual.data(), expect.size());
}

std::unique_ptr<sp::Engine> simd_engine() {
  return sp::EngineRegistry::instance().create("simd");
}

/// Engine support against gemm + add_row_bias; returns whether the
/// binary path ran for x.
bool check_support(sp::Engine& engine, const st::MatrixF& x,
                   std::size_t n_out, su::Rng& rng, const char* tier) {
  const st::MatrixF w = random_matrix(x.cols(), n_out, rng, -2.0f, 2.0f);
  std::vector<float> bias(n_out);
  for (float& b : bias) b = static_cast<float>(rng.uniform(-1.0, 1.0));

  st::MatrixF product(x.rows(), n_out, 0.0f);
  st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, x, w, 0.0f, product);
  st::MatrixF expect = product;
  st::add_row_bias(expect, bias.data());
  st::MatrixF actual;
  engine.support(x, w, bias.data(), actual);
  EXPECT_TRUE(bitwise_equal(expect, actual))
      << tier << " support " << x.rows() << "x" << x.cols() << "x" << n_out;

  st::MatrixF direct(x.rows(), n_out, 7.0f);
  const bool binary = st::gemm_binary_or_dense(st::Transpose::kNo, 1.0f, x, w,
                                               0.0f, direct);
  EXPECT_EQ(binary, expect_binary_path(x)) << tier;
  EXPECT_TRUE(bitwise_equal(product, direct)) << tier;
  return binary;
}

/// The engine trace update's p_ij against the dense GEMM it replaces;
/// returns whether the binary path ran for x.
bool check_traces(sp::Engine& engine, const st::MatrixF& x,
                  std::size_t n_out, float alpha, su::Rng& rng,
                  const char* tier) {
  const std::size_t n_in = x.cols();
  const st::MatrixF a = random_matrix(x.rows(), n_out, rng, -1.0f, 1.0f);
  const st::MatrixF pij0 = random_matrix(n_in, n_out, rng, 0.01f, 1.0f);
  std::vector<float> pi(n_in, 0.1f);
  std::vector<float> pj(n_out, 0.2f);

  const float inv_b = 1.0f / static_cast<float>(x.rows());
  st::MatrixF expect = pij0;
  st::gemm(st::Transpose::kYes, st::Transpose::kNo, alpha * inv_b, x, a,
           1.0f - alpha, expect);
  st::MatrixF actual = pij0;
  engine.update_traces(x, a, alpha, pi.data(), pj.data(), actual);
  EXPECT_TRUE(bitwise_equal(expect, actual))
      << tier << " update_traces " << x.rows() << "x" << n_in << "x" << n_out
      << " alpha=" << alpha;

  st::MatrixF direct = pij0;
  const bool binary = st::gemm_binary_or_dense(
      st::Transpose::kYes, alpha * inv_b, x, a, 1.0f - alpha, direct);
  EXPECT_EQ(binary, expect_binary_path(x)) << tier;
  EXPECT_TRUE(bitwise_equal(expect, direct)) << tier;
  return binary;
}

}  // namespace

TEST(BinaryGemm, SupportAndTracesAreBitwiseDenseAtEveryTier) {
  DispatchGuard guard;
  const auto engine = simd_engine();
  for (const st::DispatchLevel level : available_levels()) {
    st::force_dispatch(level);
    const char* tier = st::dispatch_level_name(level);
    std::size_t binary_runs = 0;
    std::size_t runs = 0;
    for (const std::size_t batch : batch_sizes()) {
      for (const std::size_t n_in : widths()) {
        for (const std::size_t n_out : widths()) {
          su::Rng rng(batch * 100003 + n_in * 101 + n_out);
          const st::MatrixF x = binary_input(batch, n_in, rng);
          binary_runs += check_support(*engine, x, n_out, rng, tier);
          for (const float alpha : {0.0f, 0.01f, 1.0f}) {
            binary_runs += check_traces(*engine, x, n_out, alpha, rng, tier);
          }
          runs += 4;
        }
      }
    }
    // The sweep must mostly exercise the binary path, not the fallback.
    EXPECT_GT(binary_runs, runs / 2) << tier;
  }
}

TEST(BinaryGemm, LargeBatchFanOutIsBitwiseDense) {
  // 256 rows clear the fan-out threshold whenever the pool has workers.
  DispatchGuard guard;
  const auto engine = simd_engine();
  for (const st::DispatchLevel level : available_levels()) {
    st::force_dispatch(level);
    su::Rng rng(91);
    const st::MatrixF x = binary_input(256, 280, rng);
    ASSERT_TRUE(expect_binary_path(x));
    check_support(*engine, x, 300, rng, st::dispatch_level_name(level));
    check_traces(*engine, x, 300, 0.05f, rng, st::dispatch_level_name(level));
  }
}

TEST(BinaryGemm, NonBinaryOrDenseInputFallsBackToGemm) {
  DispatchGuard guard;
  const auto engine = simd_engine();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const st::DispatchLevel level : available_levels()) {
    st::force_dispatch(level);
    const char* tier = st::dispatch_level_name(level);
    for (const float odd : {0.5f, -0.0f, nan, 2.0f}) {
      su::Rng rng(17);
      st::MatrixF x = binary_input(64, 17, rng);
      x(5, 3) = odd;
      EXPECT_FALSE(check_support(*engine, x, 16, rng, tier)) << odd;
      EXPECT_FALSE(check_traces(*engine, x, 16, 0.01f, rng, tier)) << odd;
    }
    // All {0, 1}, but one unit in two is on: above the density cutoff.
    st::MatrixF dense(8, 16, 0.0f);
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      for (std::size_t j = r % 2; j < dense.cols(); j += 2) dense(r, j) = 1.0f;
    }
    su::Rng rng(23);
    EXPECT_FALSE(check_support(*engine, dense, 9, rng, tier));
    EXPECT_FALSE(check_traces(*engine, dense, 9, 0.01f, rng, tier));
  }
}

TEST(BinaryGemm, ExactlyAtTheCutoffTakesTheBinaryPath) {
  // 4 x 8 input: the cutoff allows floor(0.25 * 32) = 8 ones.
  st::MatrixF x(4, 8, 0.0f);
  for (std::size_t r = 0; r < 4; ++r) {
    x(r, r) = 1.0f;
    x(r, 7 - r) = 1.0f;
  }
  su::Rng rng(5);
  const st::MatrixF b = random_matrix(8, 5, rng, -1.0f, 1.0f);
  st::MatrixF c(4, 5, 0.0f);
  EXPECT_TRUE(st::gemm_binary_or_dense(st::Transpose::kNo, 1.0f, x, b, 0.0f,
                                       c));
  x(0, 4) = 1.0f;  // ninth one
  EXPECT_FALSE(st::gemm_binary_or_dense(st::Transpose::kNo, 1.0f, x, b, 0.0f,
                                        c));
}

TEST(BinaryGemm, RejectsMismatchedShapesLikeGemm) {
  const st::MatrixF x(3, 4, 0.0f);
  const st::MatrixF b(5, 2, 0.0f);
  st::MatrixF c(3, 2, 0.0f);
  EXPECT_THROW(st::gemm_binary_or_dense(st::Transpose::kNo, 1.0f, x, b, 0.0f,
                                        c),
               std::invalid_argument);
}
