#include "quant/qgemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "quant/qgemm_kernels.hpp"

namespace llmpq {

namespace {

/// gemv_argmax's starting logit: any finite logit above it wins.
constexpr float kNoLogit = -1e30f;

void check_qgemm_args(std::span<const float> x, std::size_t m,
                      std::size_t cols, const QuantizedMatrix& w,
                      std::span<const float> bias, std::span<float> y) {
  check_arg(w.cols() == cols, "qgemm: inner dimension mismatch");
  check_arg(x.size() == m * cols, "qgemm: x size mismatch");
  check_arg(y.size() == m * w.rows(), "qgemm: y size mismatch");
  check_arg(bias.empty() || bias.size() == w.rows(),
            "qgemm: bias size mismatch");
}

}  // namespace

void qgemm_serial(std::span<const float> x, std::size_t m, std::size_t cols,
                  const QuantizedMatrix& w, std::span<const float> bias,
                  std::span<float> y) {
  check_qgemm_args(x, m, cols, w, bias, y);
  std::vector<float> scratch(cols);
  qgemm_rows_scalar(x.data(), m, cols, w, bias.empty() ? nullptr : bias.data(),
                    y.data(), 0, w.rows(), scratch.data());
}

void qgemm(std::span<const float> x, std::size_t m, std::size_t cols,
           const QuantizedMatrix& w, std::span<const float> bias,
           std::span<float> y) {
  // Chaos-test checkpoint: a throw here exercises the stage workers'
  // poisoned-message protocol from inside a kernel; a delay rule makes
  // this stage a straggler. One relaxed load when no plan is armed.
  FAULT_POINT("stage.qgemm");
  check_qgemm_args(x, m, cols, w, bias, y);
  const std::size_t rows = w.rows();
  // Runtime dispatch: the same row-range contract at every level, so the
  // threading decomposition is independent of the kernel picked.
  const QgemmRowsFn kernel = qgemm_rows_kernel(active_simd_level());
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  ThreadPool& pool = ThreadPool::shared();
  if (pool.run_serial(m * cols * rows, kParallelWorkThreshold)) {
    std::vector<float> scratch(cols);
    kernel(x.data(), m, cols, w, bias_ptr, y.data(), 0, rows, scratch.data());
    return;
  }
  // Output-channel blocks: disjoint writes, no synchronization inside the
  // kernel. Oversplit relative to the pool so stages sharing it interleave.
  const std::size_t blocks = std::min(rows, pool.size() * 4);
  const std::size_t per = (rows + blocks - 1) / blocks;
  pool.parallel_for(blocks, [&](std::size_t blk) {
    thread_local std::vector<float> scratch;
    if (scratch.size() < cols) scratch.resize(cols);
    const std::size_t r0 = blk * per;
    const std::size_t r1 = std::min(rows, r0 + per);
    if (r0 < r1)
      kernel(x.data(), m, cols, w, bias_ptr, y.data(), r0, r1,
             scratch.data());
  });
}

void gemv_argmax(std::span<const float> x, std::size_t m, std::size_t cols,
                 std::span<const float> e, std::size_t rows,
                 std::span<std::size_t> best_index) {
  check_arg(e.size() == rows * cols, "gemv_argmax: e size mismatch");
  check_arg(x.size() == m * cols, "gemv_argmax: x size mismatch");
  check_arg(best_index.size() == m, "gemv_argmax: output size mismatch");
  const ArgmaxRowsFn kernel = argmax_rows_kernel(active_simd_level());
  std::vector<float> best_logit(m, kNoLogit);
  std::fill(best_index.begin(), best_index.end(), 0);
  ThreadPool& pool = ThreadPool::shared();
  if (pool.run_serial(m * cols * rows, kParallelWorkThreshold)) {
    kernel(x.data(), m, cols, e.data(), 0, rows, best_logit.data(),
           best_index.data());
    return;
  }
  // Vocab blocks, each with its own winner slots; merged below in
  // ascending block order with the kernel's strict `>`, which keeps the
  // serial scan's lowest-index-wins result.
  const std::size_t blocks = std::min(rows, pool.size() * 4);
  const std::size_t per = (rows + blocks - 1) / blocks;
  std::vector<float> blk_logit(blocks * m, kNoLogit);
  std::vector<std::size_t> blk_index(blocks * m, 0);
  pool.parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t r0 = blk * per;
    const std::size_t r1 = std::min(rows, r0 + per);
    if (r0 < r1)
      kernel(x.data(), m, cols, e.data(), r0, r1, blk_logit.data() + blk * m,
             blk_index.data() + blk * m);
  });
  for (std::size_t blk = 0; blk < blocks; ++blk)
    for (std::size_t i = 0; i < m; ++i)
      if (blk_logit[blk * m + i] > best_logit[i]) {
        best_logit[i] = blk_logit[blk * m + i];
        best_index[i] = blk_index[blk * m + i];
      }
}

void gemm_f32(std::span<const float> x, std::size_t m, std::size_t cols,
              std::span<const float> w, std::size_t rows,
              std::span<const float> bias, std::span<float> y) {
  check_arg(w.size() == rows * cols, "gemm_f32: w size mismatch");
  check_arg(x.size() == m * cols, "gemm_f32: x size mismatch");
  check_arg(y.size() == m * rows, "gemm_f32: y size mismatch");
  check_arg(bias.empty() || bias.size() == rows,
            "gemm_f32: bias size mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x.data() + i * cols;
    float* yi = y.data() + i * rows;
    for (std::size_t r = 0; r < rows; ++r)
      yi[r] = bias.empty() ? 0.0f : bias[r];
    for (std::size_t r = 0; r < rows; ++r) {
      const float* wr = w.data() + r * cols;
      float acc = yi[r];
      for (std::size_t c = 0; c < cols; ++c) acc += xi[c] * wr[c];
      yi[r] = acc;
    }
  }
}

}  // namespace llmpq
