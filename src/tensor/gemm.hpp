#pragma once
// General matrix multiply kernels: C = alpha * op(A) * op(B) + beta * C.
//
// Three implementations with identical semantics:
//   gemm_naive     - triple loop, the correctness reference
//   gemm_blocked   - cache-blocked K panels through the runtime-dispatched
//                    SIMD tile kernel (tensor/kernel_set.hpp), row blocks
//                    fanned out over parallel::global_pool()
//   gemm           - dispatches to the best available implementation
//
// StreamBrain expresses both BCPNN activation (batch x weights) and the
// batched trace outer-product update as GEMM, so these kernels dominate
// training time exactly as the paper's Section II-B describes.

#include <cstddef>
#include <functional>

#include "tensor/matrix.hpp"

namespace streambrain::tensor {

enum class Transpose { kNo, kYes };

/// Reference implementation; always correct, never fast.
void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);

/// Cache-blocked + OpenMP implementation.
void gemm_blocked(Transpose trans_a, Transpose trans_b, float alpha,
                  const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);

/// Production entry point (blocked).
void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c);

/// Convenience: C = A * B with fresh output.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

/// Largest share of ones in X for which gemm_binary_or_dense takes its
/// binary path. One-hot input (the paper's Higgs encoding: 28 of 280
/// units active) sits at 0.1; above the cutoff the register-tiled dense
/// GEMM does the dropped zero terms faster than row gathers skip them.
inline constexpr double kBinaryGemmMaxDensity = 0.25;

/// C = alpha * op(X) * B + beta * C with op(X) = X (trans_x == kNo) or
/// X^T (kYes): the same contract as gemm(trans_x, kNo, ...), with a fast
/// path for binary X. When every entry of X is bitwise +0.0f or 1.0f and
/// at most kBinaryGemmMaxDensity of them are 1.0f, C is beta-scaled
/// exactly as gemm does it, and then each C row adds alpha times the B
/// rows its ones select, in ascending order, through KernelSet::axpy.
/// Those are the dense kernel's own ascending-k multiply-adds with the
/// alpha * 0 * b terms dropped, so the result is bit-identical to gemm at
/// every dispatch tier whenever B is finite and C holds no -0.0 after the
/// beta step (0 * inf is NaN in the dense sum; -0.0 + 0.0 is +0.0). Any
/// other X (0.5, -0.0, NaN, too many ones) runs gemm itself. Returns true
/// when the binary path ran.
bool gemm_binary_or_dense(Transpose trans_x, float alpha, const MatrixF& x,
                          const MatrixF& b, float beta, MatrixF& c);

namespace detail {

/// Upper bound on concurrent compute tasks a blocked kernel driver may
/// fan out over the ThreadPool (STREAMBRAIN_THREADS wins, then
/// OMP_NUM_THREADS, then the pool size). Shared by the dense GEMM driver
/// and the sparse spmm driver so both honor the same pinning contract.
std::size_t max_compute_tasks();

/// Runs panel(r0, r1) over [0, rows) in contiguous row panels of at least
/// `min_rows_per_task` rows, fanned out over the ThreadPool (capped by
/// max_compute_tasks()) with the first panel on the calling thread. Runs
/// panel(0, rows) inline when one task suffices or when already on a pool
/// worker, where a nested fan-out could deadlock a single-worker pool.
/// gemm, spmm, qgemm and the binary GEMM fan out through it; their
/// outputs are row-local, so results never depend on the split.
void for_row_panels(
    std::size_t rows, std::size_t min_rows_per_task,
    const std::function<void(std::size_t, std::size_t)>& panel);

}  // namespace detail

}  // namespace streambrain::tensor
