#include "tensor/gemm.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "tensor/kernel_set.hpp"

namespace streambrain::tensor {

namespace {

struct Dims {
  std::size_t m, n, k;
};

Dims check_dims(Transpose trans_a, Transpose trans_b, const MatrixF& a,
                const MatrixF& b, const MatrixF& c) {
  const std::size_t m = trans_a == Transpose::kNo ? a.rows() : a.cols();
  const std::size_t k = trans_a == Transpose::kNo ? a.cols() : a.rows();
  const std::size_t kb = trans_b == Transpose::kNo ? b.rows() : b.cols();
  const std::size_t n = trans_b == Transpose::kNo ? b.cols() : b.rows();
  if (k != kb || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: dimension mismatch");
  }
  return {m, n, k};
}

inline float load(const MatrixF& x, Transpose t, std::size_t i,
                  std::size_t j) noexcept {
  return t == Transpose::kNo ? x(i, j) : x(j, i);
}

// Pack operands into contiguous row-major (A: m x k) and (B: k x n)
// buffers so the tile kernel streams regardless of the requested
// transposes. Packing costs O(mk + kn) against an O(mnk) kernel, the
// standard GotoBLAS trade-off.
const float* pack_a(Transpose trans, const MatrixF& a, std::size_t m,
                    std::size_t k, std::vector<float>& storage) {
  if (trans == Transpose::kNo) return a.data();
  storage.resize(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) storage[i * k + p] = a(p, i);
  }
  return storage.data();
}

const float* pack_b(Transpose trans, const MatrixF& b, std::size_t k,
                    std::size_t n, std::vector<float>& storage) {
  if (trans == Transpose::kNo) return b.data();
  storage.resize(k * n);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) storage[p * n + j] = b(j, p);
  }
  return storage.data();
}

// Scale C by beta so the tile kernel can accumulate unconditionally.
void apply_beta(float beta, float* c, std::size_t count,
                const KernelSet& kernels) {
  if (beta == 0.0f) {
    std::fill_n(c, count, 0.0f);
  } else if (beta != 1.0f) {
    kernels.scale(beta, c, count);
  }
}

// K-panel blocking keeps the streamed B panel resident in L2.
constexpr std::size_t kBlockK = 256;
// Minimum rows per fan-out task: below this the submit overhead beats
// the parallelism.
constexpr std::size_t kMinRowsPerTask = 32;

// Rows [r0, r1) of C, all K panels, on the calling thread. Per C element
// the accumulation order is fixed (ascending k), so results are
// independent of how rows are partitioned across tasks.
void run_row_range(const KernelSet& kernels, float alpha, const float* a,
                   const float* b, MatrixF& c, std::size_t r0, std::size_t r1,
                   std::size_t n, std::size_t k) {
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t kb = std::min(kBlockK, k - p0);
    kernels.gemm_block(alpha, a + r0 * k + p0, k, b + p0 * n, n, c.row(r0), n,
                       r1 - r0, n, kb);
  }
}

// The ones of a binary X as CSR-style lists: C row r adds the B rows
// index[begin[r] .. begin[r + 1]), ascending. Kept per thread so that
// concurrent callers (serving shards, ranks) never share it.
struct BinaryLists {
  std::vector<std::uint32_t> row_begin;  // x.rows() + 1
  std::vector<std::uint32_t> row_cols;   // column of each one, row-major
                                         // (may hold stale entries past
                                         // the last row_begin)
  std::vector<std::uint32_t> col_begin;  // x.cols() + 1 (kYes only)
  std::vector<std::uint32_t> col_rows;   // row of each one, column-major
  std::vector<std::uint32_t> cursor;     // col_begin fill positions
};

constexpr std::uint32_t kZeroBits = 0x00000000u;  // +0.0f only
constexpr std::uint32_t kOneBits = 0x3F800000u;   // 1.0f

// Collects the ones of x, or returns false if an entry is not bitwise
// +0.0f / 1.0f or the ones exceed the density cutoff. The scan is
// branch-free per entry (one-hot rows would mispredict a branch on every
// one): each column index is written, and the write position advances
// only past the ones.
bool collect_ones(Transpose trans_x, const MatrixF& x, BinaryLists& lists) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
  if (x.size() >= kMaxIndex) return false;
  const auto max_ones = static_cast<std::size_t>(
      kBinaryGemmMaxDensity * static_cast<double>(x.size()));
  lists.row_begin.resize(rows + 1);
  lists.row_begin[0] = 0;
  std::size_t ones = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (lists.row_cols.size() < ones + cols) {
      lists.row_cols.resize(ones + cols);
    }
    std::uint32_t* out = lists.row_cols.data() + ones;
    const float* row = x.row(r);
    std::size_t row_ones = 0;
    std::uint32_t other = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      const auto bits = std::bit_cast<std::uint32_t>(row[j]);
      const auto one = static_cast<std::uint32_t>(bits == kOneBits);
      out[row_ones] = static_cast<std::uint32_t>(j);
      row_ones += one;
      other |= static_cast<std::uint32_t>(bits != kZeroBits) & (one ^ 1u);
    }
    ones += row_ones;
    if (other != 0 || ones > max_ones) return false;
    lists.row_begin[r + 1] = static_cast<std::uint32_t>(ones);
  }
  if (trans_x == Transpose::kNo) return true;

  // Transpose by counting sort; scanning rows in ascending order leaves
  // every column's row list ascending.
  lists.col_begin.assign(cols + 1, 0);
  for (std::size_t p = 0; p < ones; ++p) {
    ++lists.col_begin[lists.row_cols[p] + 1];
  }
  for (std::size_t j = 0; j < cols; ++j) {
    lists.col_begin[j + 1] += lists.col_begin[j];
  }
  lists.col_rows.resize(ones);
  lists.cursor.assign(lists.col_begin.begin(), lists.col_begin.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::uint32_t p = lists.row_begin[r]; p < lists.row_begin[r + 1];
         ++p) {
      lists.col_rows[lists.cursor[lists.row_cols[p]]++] =
          static_cast<std::uint32_t>(r);
    }
  }
  return true;
}

}  // namespace

namespace detail {

// Resolved once. The old OpenMP path honored OMP_NUM_THREADS; the pool
// fan-out keeps that contract (STREAMBRAIN_THREADS wins, then
// OMP_NUM_THREADS, then the pool size), so embedders and CI can still
// pin or disable compute threading.
std::size_t max_compute_tasks() {
  static const std::size_t limit = [] {
    for (const char* name : {"STREAMBRAIN_THREADS", "OMP_NUM_THREADS"}) {
      if (const char* env = std::getenv(name)) {
        const long value = std::atol(env);
        if (value > 0) return static_cast<std::size_t>(value);
      }
    }
    return parallel::global_pool().size();
  }();
  return limit;
}

void for_row_panels(
    std::size_t rows, std::size_t min_rows_per_task,
    const std::function<void(std::size_t, std::size_t)>& panel) {
  parallel::ThreadPool& pool = parallel::global_pool();
  const std::size_t max_tasks = std::max<std::size_t>(
      1, std::min({pool.size(), max_compute_tasks(),
                   rows / min_rows_per_task}));
  if (max_tasks <= 1 || parallel::ThreadPool::in_worker()) {
    panel(0, rows);
    return;
  }
  const std::size_t rows_per_task = (rows + max_tasks - 1) / max_tasks;
  std::vector<std::future<void>> tasks;
  tasks.reserve(max_tasks - 1);
  for (std::size_t r0 = rows_per_task; r0 < rows; r0 += rows_per_task) {
    const std::size_t r1 = std::min(r0 + rows_per_task, rows);
    tasks.push_back(pool.submit([&panel, r0, r1] { panel(r0, r1); }));
  }
  // First panel on the calling thread, overlapping the pool workers.
  panel(0, std::min(rows_per_task, rows));
  for (auto& task : tasks) task.get();
}

}  // namespace detail

void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += load(a, trans_a, i, p) * load(b, trans_b, p, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

void gemm_blocked(Transpose trans_a, Transpose trans_b, float alpha,
                  const MatrixF& a, const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);

  std::vector<float> a_storage;
  std::vector<float> b_storage;
  const float* a_ptr = pack_a(trans_a, a, m, k, a_storage);
  const float* b_ptr = pack_b(trans_b, b, k, n, b_storage);

  const KernelSet& kernels = active_kernels();
  apply_beta(beta, c.data(), c.size(), kernels);
  if (m == 0 || n == 0 || k == 0) return;

  detail::for_row_panels(m, kMinRowsPerTask, [&](std::size_t r0,
                                                 std::size_t r1) {
    run_row_range(kernels, alpha, a_ptr, b_ptr, c, r0, r1, n, k);
  });
}

void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c);
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm(Transpose::kNo, Transpose::kNo, 1.0f, a, b, 0.0f, c);
  return c;
}

bool gemm_binary_or_dense(Transpose trans_x, float alpha, const MatrixF& x,
                          const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_x, Transpose::kNo, x, b, c);
  thread_local BinaryLists lists;
  if (!collect_ones(trans_x, x, lists)) {
    gemm(trans_x, Transpose::kNo, alpha, x, b, beta, c);
    return false;
  }
  const KernelSet& kernels = active_kernels();
  const bool by_row = trans_x == Transpose::kNo;
  const std::uint32_t* begin =
      by_row ? lists.row_begin.data() : lists.col_begin.data();
  const std::uint32_t* index =
      by_row ? lists.row_cols.data() : lists.col_rows.data();
  // Beta is applied row by row inside the panels: the same elementwise
  // result as gemm's whole-matrix pass, but parallel and cache-hot for
  // the adds that follow.
  detail::for_row_panels(m, kMinRowsPerTask, [&](std::size_t r0,
                                                 std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* c_row = c.row(r);
      apply_beta(beta, c_row, n, kernels);
      for (std::uint32_t p = begin[r]; p < begin[r + 1]; ++p) {
        kernels.axpy(alpha, b.row(index[p]), c_row, n);
      }
    }
  });
  return true;
}

}  // namespace streambrain::tensor
