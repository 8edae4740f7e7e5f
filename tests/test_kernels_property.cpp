// Property-based kernel tests: for randomized shapes, strides, and
// seeds, every SIMD kernel tier (sse42 / avx2, when the host supports
// them) must match the ordered scalar reference within 1e-5 relative
// tolerance — including ragged tails (n % simd_width != 0), empty
// inputs, and aliased outputs. This is the contract that lets the
// dispatcher swap tiers without changing learned behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/cpu_features.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vecmath.hpp"
#include "util/rng.hpp"

namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

constexpr float kRelTol = 1e-5f;
constexpr float kAbsTol = 1e-6f;

::testing::AssertionResult near_ref(float reference, float actual) {
  const float bound =
      kAbsTol + kRelTol * std::max(std::abs(reference), std::abs(actual));
  if (std::abs(reference - actual) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference=" << reference << " actual=" << actual
         << " |diff|=" << std::abs(reference - actual) << " > " << bound;
}

/// Reductions can cancel: the rounding error of reordered accumulation
/// scales with the magnitude of the summed terms, not with the (possibly
/// near-zero) result — so the relative tolerance is taken against the
/// term magnitude `mag` = sum |terms|.
::testing::AssertionResult near_reduced(float reference, float actual,
                                        float mag) {
  const float bound = kAbsTol + kRelTol * (std::abs(reference) + mag);
  if (std::abs(reference - actual) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference=" << reference << " actual=" << actual
         << " |diff|=" << std::abs(reference - actual) << " > " << bound
         << " (mag=" << mag << ")";
}

/// The non-scalar tiers this host can run (may be empty on exotic CPUs;
/// every test degrades to a no-op there rather than failing).
std::vector<const st::KernelSet*> simd_tiers() {
  std::vector<const st::KernelSet*> tiers;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kSse42, st::DispatchLevel::kAvx2}) {
    if (const st::KernelSet* set = st::kernel_set_for(level)) {
      tiers.push_back(set);
    }
  }
  return tiers;
}

const st::KernelSet& scalar_tier() {
  const st::KernelSet* set = st::kernel_set_for(st::DispatchLevel::kScalar);
  EXPECT_NE(set, nullptr);
  return *set;
}

std::vector<float> random_vector(std::size_t n, su::Rng& rng, float lo,
                                 float hi) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Sizes that deliberately straddle every tier's lane width: empty,
/// single element, one vector, vector +/- 1 (ragged tails), and larger
/// blocks with remainders.
const std::vector<std::size_t>& probe_sizes() {
  static const std::vector<std::size_t> sizes = {0,  1,  3,  4,  5,  7,  8,
                                                 9,  15, 16, 17, 31, 33, 64,
                                                 100, 255, 256, 257};
  return sizes;
}

}  // namespace

TEST(KernelProperty, TiersReportHonestMetadata) {
  const st::KernelSet& scalar = scalar_tier();
  EXPECT_EQ(scalar.level, st::DispatchLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(scalar.simd_width, 1u);
  for (const st::KernelSet* tier : simd_tiers()) {
    EXPECT_STREQ(tier->name, st::dispatch_level_name(tier->level));
    EXPECT_EQ(tier->simd_width, st::dispatch_level_width(tier->level));
    EXPECT_GT(tier->simd_width, 1u);
  }
  // The active set is always one of the constructible tiers.
  const st::KernelSet& active = st::active_kernels();
  EXPECT_EQ(&active, st::kernel_set_for(active.level));
}

TEST(KernelProperty, ElementwiseKernelsMatchScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        su::Rng rng(seed * 1000 + n);
        const auto x = random_vector(n, rng, -3.0f, 3.0f);
        const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

        auto y_ref = random_vector(n, rng, -3.0f, 3.0f);
        auto y_simd = y_ref;
        scalar.axpy(alpha, x.data(), y_ref.data(), n);
        tier->axpy(alpha, x.data(), y_simd.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(y_ref[i], y_simd[i]))
              << tier->name << " axpy n=" << n << " i=" << i;
        }

        auto s_ref = x;
        auto s_simd = x;
        scalar.scale(alpha, s_ref.data(), n);
        tier->scale(alpha, s_simd.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(s_ref[i], s_simd[i]))
              << tier->name << " scale n=" << n;
        }

        auto p_ref = random_vector(n, rng, 0.0f, 1.0f);
        auto p_simd = p_ref;
        scalar.ema_update(p_ref.data(), x.data(), 0.37f, n);
        tier->ema_update(p_simd.data(), x.data(), 0.37f, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(p_ref[i], p_simd[i]))
              << tier->name << " ema_update n=" << n;
        }

        auto r_ref = x;
        auto r_simd = x;
        scalar.relu(r_ref.data(), n);
        tier->relu(r_simd.data(), n);
        EXPECT_EQ(r_ref, r_simd) << tier->name << " relu n=" << n;
      }
    }
  }
}

TEST(KernelProperty, ReductionsMatchScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        su::Rng rng(seed * 7919 + n);
        const auto x = random_vector(n, rng, -5.0f, 5.0f);
        const auto y = random_vector(n, rng, -5.0f, 5.0f);
        float dot_mag = 0.0f;
        float sum_mag = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
          dot_mag += std::abs(x[i] * y[i]);
          sum_mag += std::abs(x[i]);
        }
        EXPECT_TRUE(near_reduced(scalar.dot(x.data(), y.data(), n),
                                 tier->dot(x.data(), y.data(), n), dot_mag))
            << tier->name << " dot n=" << n << " seed=" << seed;
        EXPECT_TRUE(near_reduced(scalar.sum(x.data(), n),
                                 tier->sum(x.data(), n), sum_mag))
            << tier->name << " sum n=" << n << " seed=" << seed;
        // Max is exact: no rounding is involved in either tier.
        EXPECT_EQ(scalar.reduce_max(x.data(), n),
                  tier->reduce_max(x.data(), n))
            << tier->name << " reduce_max n=" << n;
      }
    }
  }
  // Empty reduction identity.
  for (const st::KernelSet* tier : simd_tiers()) {
    EXPECT_EQ(tier->reduce_max(nullptr, 0), -FLT_MAX);
    EXPECT_EQ(tier->sum(nullptr, 0), 0.0f);
  }
}

TEST(KernelProperty, ThresholdMaskMatchesScalarIncludingAliased) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 13);
      const auto gate = random_vector(n, rng, -1.0f, 1.0f);
      auto x_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto x_simd = x_ref;
      scalar.threshold_mask(gate.data(), 0.0f, x_ref.data(), n);
      tier->threshold_mask(gate.data(), 0.0f, x_simd.data(), n);
      EXPECT_EQ(x_ref, x_simd) << tier->name << " threshold_mask n=" << n;

      // Aliased edge case: gate IS the output (in-place ReLU shape).
      auto a_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto a_simd = a_ref;
      scalar.threshold_mask(a_ref.data(), 0.25f, a_ref.data(), n);
      tier->threshold_mask(a_simd.data(), 0.25f, a_simd.data(), n);
      EXPECT_EQ(a_ref, a_simd)
          << tier->name << " aliased threshold_mask n=" << n;
    }
  }
}

TEST(KernelProperty, AxpyAliasedOutputMatchesScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 101);
      // y += alpha * y — x aliases the accumulator.
      auto y_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto y_simd = y_ref;
      scalar.axpy(0.5f, y_ref.data(), y_ref.data(), n);
      tier->axpy(0.5f, y_simd.data(), y_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(y_ref[i], y_simd[i]))
            << tier->name << " aliased axpy n=" << n;
      }
    }
  }
}

TEST(KernelProperty, TranscendentalsMatchScalarOverFullRange) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 31);
      // Include the clamp boundaries and far-out-of-range values.
      auto x = random_vector(n, rng, -30.0f, 30.0f);
      if (n >= 8) {
        x[0] = -200.0f;
        x[1] = 200.0f;
        x[2] = -87.0f;
        x[3] = -87.5f;
        x[4] = 88.0f;
        x[5] = 0.0f;
        x[6] = -0.0f;
        x[7] = 87.9f;
      }
      std::vector<float> e_ref(n);
      std::vector<float> e_simd(n);
      scalar.vexp(x.data(), e_ref.data(), n);
      tier->vexp(x.data(), e_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(e_ref[i], e_simd[i]))
            << tier->name << " vexp n=" << n << " x=" << x[i];
      }

      // vlog_floored: probabilities spanning subnormal-to-large, plus
      // non-positive inputs that must hit the floor.
      auto p = random_vector(n, rng, 0.0f, 4.0f);
      if (n >= 4) {
        p[0] = 0.0f;
        p[1] = -1.0f;
        p[2] = 1e-30f;
        p[3] = 1e30f;
      }
      std::vector<float> l_ref(n);
      std::vector<float> l_simd(n);
      scalar.vlog_floored(p.data(), l_ref.data(), 1e-8f, n);
      tier->vlog_floored(p.data(), l_simd.data(), 1e-8f, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(l_ref[i], l_simd[i]))
            << tier->name << " vlog_floored n=" << n << " p=" << p[i];
      }
    }
  }
}

TEST(KernelProperty, MomentumUpdateMatchesScalarAndFusedSemantics) {
  const st::KernelSet& scalar = scalar_tier();
  for (const std::size_t n : probe_sizes()) {
    su::Rng rng(n + 77);
    const auto g = random_vector(n, rng, -1.0f, 1.0f);
    auto w_ref = random_vector(n, rng, -1.0f, 1.0f);
    auto v_ref = random_vector(n, rng, -0.5f, 0.5f);
    // Scalar semantics: v = mu*v - lr*(g + l2*w_old); w += v.
    std::vector<float> w_expect = w_ref;
    std::vector<float> v_expect = v_ref;
    for (std::size_t i = 0; i < n; ++i) {
      v_expect[i] = 0.9f * v_expect[i] - 0.1f * (g[i] + 0.01f * w_expect[i]);
      w_expect[i] += v_expect[i];
    }
    scalar.momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_ref.data(),
                           v_ref.data(), n);
    EXPECT_EQ(w_ref, w_expect) << "scalar momentum semantics n=" << n;
    EXPECT_EQ(v_ref, v_expect) << "scalar momentum semantics n=" << n;

    for (const st::KernelSet* tier : simd_tiers()) {
      auto w_simd = w_expect;  // continue from the same state
      auto v_simd = v_expect;
      auto w_ref2 = w_expect;
      auto v_ref2 = v_expect;
      scalar.momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_ref2.data(),
                             v_ref2.data(), n);
      tier->momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_simd.data(),
                            v_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(w_ref2[i], w_simd[i]))
            << tier->name << " momentum w n=" << n;
        ASSERT_TRUE(near_ref(v_ref2[i], v_simd[i]))
            << tier->name << " momentum v n=" << n;
      }
    }
  }
}

TEST(KernelProperty, ScalarTierTranscendentalsAreBitwiseFastExpLog) {
  // The kernel TUs carry a branchless restatement of fast_exp/fast_log
  // (tensor/vecmath.hpp). On the scalar tier — same flags, no FMA — the
  // restatement must be BITWISE identical to the public helpers over the
  // whole float range, so a coefficient edit on either side cannot
  // silently diverge the two copies.
  const st::KernelSet& scalar = scalar_tier();
  std::vector<float> xs;
  for (float x = -120.0f; x <= 120.0f; x += 0.0917f) xs.push_back(x);
  xs.insert(xs.end(), {-87.0f, -87.0000001f, 88.0f, 88.5f, 0.0f, -0.0f});
  std::vector<float> out(xs.size());
  scalar.vexp(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], st::fast_exp(xs[i])) << "x=" << xs[i];
  }
  std::vector<float> ps;
  for (float p = 1e-10f; p < 1e10f; p *= 1.3f) ps.push_back(p);
  ps.insert(ps.end(), {0.0f, -1.0f, -3.5f, 1.0f, 2.0f});
  out.resize(ps.size());
  // floor == lowest float keeps every positive input unfloored.
  scalar.vlog_floored(ps.data(), out.data(), -FLT_MAX, ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(out[i], st::fast_log(ps[i])) << "p=" << ps[i];
  }
}

TEST(KernelProperty, SoftmaxBlockMatchesScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      if (n == 0) continue;  // a zero-wide block is rejected upstream
      for (const float inv_temp : {0.5f, 1.0f, 4.0f}) {
        su::Rng rng(n * 17 + static_cast<std::uint64_t>(inv_temp * 8));
        auto v_ref = random_vector(n, rng, -50.0f, 50.0f);
        auto v_simd = v_ref;
        scalar.softmax_block(v_ref.data(), n, inv_temp);
        tier->softmax_block(v_simd.data(), n, inv_temp);
        float total = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(v_ref[i], v_simd[i]))
              << tier->name << " softmax n=" << n << " beta=" << inv_temp;
          total += v_simd[i];
        }
        EXPECT_NEAR(total, 1.0f, 1e-4f);
      }
    }
  }
}

TEST(KernelProperty, TranscendentalTailsAreBitwisePositionIndependent) {
  // Each lane computes the same operations as the scalar remainder loop,
  // so out[i] depends only on x[i]: every length 0..67 at every start
  // offset 0..7 (vector body, ragged tail, misaligned start) must give
  // the bits a one-element call gives, and leave the rest untouched.
  constexpr std::size_t kMaxLen = 67;
  constexpr std::size_t kMaxOffset = 7;
  constexpr std::size_t kSpan = kMaxLen + kMaxOffset + 1;
  constexpr float kSentinel = -12345.0f;
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  std::vector<const st::KernelSet*> tiers = simd_tiers();
  tiers.insert(tiers.begin(), &scalar_tier());
  for (const st::KernelSet* tier : tiers) {
    su::Rng rng(4242);
    auto xe = random_vector(kSpan, rng, -100.0f, 100.0f);
    xe[3] = -87.0f;
    xe[9] = 88.5f;
    xe[20] = -0.0f;
    auto xl = random_vector(kSpan, rng, 0.0f, 4.0f);
    xl[2] = 0.0f;
    xl[11] = -1.0f;
    xl[30] = 1e-30f;
    xl[41] = 1e30f;
    const float floor = 1e-8f;
    std::vector<float> exp_one(kSpan);
    std::vector<float> log_one(kSpan);
    for (std::size_t i = 0; i < kSpan; ++i) {
      tier->vexp(&xe[i], &exp_one[i], 1);
      tier->vlog_floored(&xl[i], &log_one[i], floor, 1);
    }
    const auto softmax_input = random_vector(kSpan, rng, -50.0f, 50.0f);

    for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        std::vector<float> e(kSpan, kSentinel);
        std::vector<float> l(kSpan, kSentinel);
        tier->vexp(xe.data() + offset, e.data() + offset, len);
        tier->vlog_floored(xl.data() + offset, l.data() + offset, floor, len);
        for (std::size_t i = 0; i < kSpan; ++i) {
          const bool inside = i >= offset && i < offset + len;
          ASSERT_EQ(bits(e[i]), bits(inside ? exp_one[i] : kSentinel))
              << tier->name << " vexp off=" << offset << " len=" << len
              << " i=" << i;
          ASSERT_EQ(bits(l[i]), bits(inside ? log_one[i] : kSentinel))
              << tier->name << " vlog_floored off=" << offset
              << " len=" << len << " i=" << i;
        }

        if (len == 0) continue;  // a zero-wide block is rejected upstream
        for (const float inv_temp : {1.0f, 4.0f}) {
          std::vector<float> v(kSpan, kSentinel);
          std::copy_n(softmax_input.begin() + offset, len,
                      v.begin() + offset);
          // Expected: the tier's own exp of each shifted input, summed
          // strictly left to right, then one reciprocal multiply.
          float max_v = -FLT_MAX;
          for (std::size_t i = 0; i < len; ++i) {
            max_v = std::max(max_v, v[offset + i]);
          }
          std::vector<float> ex(len);
          float total = 0.0f;
          for (std::size_t i = 0; i < len; ++i) {
            const float shifted = inv_temp * (v[offset + i] - max_v);
            tier->vexp(&shifted, &ex[i], 1);
            total += ex[i];
          }
          const float inv_total = 1.0f / total;
          tier->softmax_block(v.data() + offset, len, inv_temp);
          for (std::size_t i = 0; i < kSpan; ++i) {
            const bool inside = i >= offset && i < offset + len;
            const float expect =
                inside ? ex[i - offset] * inv_total : kSentinel;
            ASSERT_EQ(bits(v[i]), bits(expect))
                << tier->name << " softmax_block off=" << offset
                << " len=" << len << " beta=" << inv_temp << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(KernelProperty, GemvMatchesScalarWithPaddedStride) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t m : {0UL, 1UL, 3UL, 17UL, 40UL}) {
      for (const std::size_t k : {0UL, 1UL, 5UL, 16UL, 33UL}) {
        for (const std::size_t pad : {0UL, 3UL}) {
          const std::size_t lda = k + pad;
          if (lda == 0) continue;
          su::Rng rng(m * 100 + k * 10 + pad);
          const auto a = random_vector(m * lda, rng, -2.0f, 2.0f);
          const auto x = random_vector(k, rng, -2.0f, 2.0f);
          std::vector<float> y_ref(m, -9.0f);
          std::vector<float> y_simd(m, -9.0f);
          scalar.gemv(a.data(), lda, x.data(), y_ref.data(), m, k);
          tier->gemv(a.data(), lda, x.data(), y_simd.data(), m, k);
          for (std::size_t i = 0; i < m; ++i) {
            float mag = 0.0f;
            for (std::size_t p = 0; p < k; ++p) {
              mag += std::abs(a[i * lda + p] * x[p]);
            }
            ASSERT_TRUE(near_reduced(y_ref[i], y_simd[i], mag))
                << tier->name << " gemv m=" << m << " k=" << k
                << " lda=" << lda;
          }
        }
      }
    }
  }
}

TEST(KernelProperty, GemmBlockMatchesScalarWithPaddedStrides) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      su::Rng rng(seed * 37);
      // Random shapes biased to straddle the 4x16 register tile.
      const std::size_t mr = static_cast<std::size_t>(rng.uniform_int(0, 9));
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 20));
      const std::size_t lda = k + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const std::size_t ldb = n + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const std::size_t ldc = n + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

      const auto a = random_vector(std::max<std::size_t>(1, mr * lda), rng,
                                   -1.5f, 1.5f);
      const auto b = random_vector(std::max<std::size_t>(1, k * ldb), rng,
                                   -1.5f, 1.5f);
      auto c_ref = random_vector(std::max<std::size_t>(1, mr * ldc), rng,
                                 -1.0f, 1.0f);
      auto c_simd = c_ref;
      // Per-element term magnitude for the cancellation-aware tolerance.
      std::vector<float> mag(c_ref.size(), 0.0f);
      for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float m_acc = std::abs(c_ref[i * ldc + j]);
          for (std::size_t p = 0; p < k; ++p) {
            m_acc += std::abs(alpha * a[i * lda + p] * b[p * ldb + j]);
          }
          mag[i * ldc + j] = m_acc;
        }
      }
      scalar.gemm_block(alpha, a.data(), lda, b.data(), ldb, c_ref.data(),
                        ldc, mr, n, k);
      tier->gemm_block(alpha, a.data(), lda, b.data(), ldb, c_simd.data(),
                       ldc, mr, n, k);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        ASSERT_TRUE(near_reduced(c_ref[i], c_simd[i], mag[i]))
            << tier->name << " gemm_block seed=" << seed << " mr=" << mr
            << " n=" << n << " k=" << k << " elem=" << i;
      }
      // Padding columns (j >= n per row) must be untouched — verified by
      // the exact equality of the shared initial values above wherever
      // the kernel was not supposed to write.
    }
  }
}

TEST(KernelProperty, DispatchedGemmMatchesNaiveUnderEveryTier) {
  // End-to-end: the public tensor::gemm (packing, beta scaling,
  // ThreadPool fan-out) agrees with gemm_naive whichever tier is forced.
  const st::DispatchLevel original = st::active_kernels().level;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) == nullptr) continue;
    st::force_dispatch(level);
    for (const auto& [m, n, k] :
         std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
             {1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {40, 56, 300}, {65, 19, 64}}) {
      su::Rng rng(m * 1000 + n * 10 + k);
      st::MatrixF a(m, k, 0.0f);
      st::MatrixF b(k, n, 0.0f);
      for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      st::MatrixF c_ref(m, n, 0.5f);
      st::MatrixF c(m, n, 0.5f);
      st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a, b,
                     0.25f, c_ref);
      st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a, b, 0.25f, c);
      // Magnitude of the accumulated terms per element: |alpha| |A| |B|.
      st::MatrixF a_abs = a;
      st::MatrixF b_abs = b;
      for (float& v : a_abs) v = std::abs(v);
      for (float& v : b_abs) v = std::abs(v);
      st::MatrixF mag(m, n, 0.5f * 0.25f);
      st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a_abs,
                     b_abs, 1.0f, mag);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_TRUE(
            near_reduced(c_ref.data()[i], c.data()[i], mag.data()[i]))
            << st::dispatch_level_name(level) << " m=" << m << " n=" << n
            << " k=" << k;
      }
    }
  }
  st::force_dispatch(original);
}

TEST(KernelProperty, ForceDispatchRejectsUnavailableTiersAndRoundTrips) {
  const st::DispatchLevel original = st::active_kernels().level;
  // Forcing scalar always works and is observable.
  st::force_dispatch(st::DispatchLevel::kScalar);
  EXPECT_EQ(st::active_kernels().level, st::DispatchLevel::kScalar);
  EXPECT_STREQ(st::active_kernels().name, "scalar");
  // Restore and verify.
  st::force_dispatch(original);
  EXPECT_EQ(st::active_kernels().level, original);
  if (st::kernel_set_for(st::DispatchLevel::kAvx2) == nullptr) {
    EXPECT_THROW(st::force_dispatch(st::DispatchLevel::kAvx2),
                 std::invalid_argument);
  }
}
