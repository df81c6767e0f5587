#include "runtime/attention.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"
#include "runtime/tensor.hpp"

namespace llmpq {

AttendRowsFn attend_rows_kernel(SimdLevel level) {
  while (level != SimdLevel::kScalar && !simd_level_available(level))
    level = static_cast<SimdLevel>(static_cast<int>(level) - 1);
  switch (level) {
#if defined(LLMPQ_HAVE_AVX512)
    case SimdLevel::kAvx512:
      return &attend_rows_avx512;
#endif
#if defined(LLMPQ_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return &attend_rows_avx2;
#endif
    default:
      return &attend_rows_scalar;
  }
}

void attend_rows_scalar(const float* q, std::size_t q_stride,
                        const float* const* k_rows, const float* const* v_rows,
                        std::size_t kv_off, std::size_t dh, std::size_t span0,
                        std::size_t n, float scale, float* out,
                        std::size_t out_stride) {
  thread_local std::vector<float> scores;
  for (std::size_t i = 0; i < n; ++i) {
    const float* qi = q + i * q_stride;
    float* oi = out + i * out_stride;
    const std::size_t span = span0 + i;
    scores.resize(span);
    for (std::size_t p = 0; p < span; ++p) {
      const float* k = k_rows[p] + kv_off;
      float dot = 0.0f;
      for (std::size_t d = 0; d < dh; ++d) dot += qi[d] * k[d];
      scores[p] = dot * scale;
    }
    softmax(std::span<float>(scores.data(), span));
    std::fill(oi, oi + dh, 0.0f);
    for (std::size_t p = 0; p < span; ++p) {
      const float* v = v_rows[p] + kv_off;
      const float w = scores[p];
      for (std::size_t d = 0; d < dh; ++d) oi[d] += w * v[d];
    }
  }
}

void attend(std::span<const AttnSeq> seqs, std::size_t heads, std::size_t dh,
            std::size_t q_stride, std::size_t out_stride) {
  const AttendRowsFn kernel = attend_rows_kernel(active_simd_level());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // Query block b of sequence s under head h: rows [r0, r0 + n).
  auto run = [&](const AttnSeq& s, std::size_t head, std::size_t r0,
                 std::size_t n) {
    const std::size_t off = head * dh;
    kernel(s.q + r0 * q_stride + off, q_stride, s.k_rows, s.v_rows, off, dh,
           s.ctx - s.rows + 1 + r0, n, scale, s.out + r0 * out_stride + off,
           out_stride);
  };
  std::size_t work = 0;
  for (const AttnSeq& s : seqs)
    work += attended_positions(s.rows, s.ctx) * heads * dh;
  ThreadPool& pool = ThreadPool::shared();
  if (pool.run_serial(work, kAttnParallelWorkThreshold)) {
    for (const AttnSeq& s : seqs)
      for (std::size_t head = 0; head < heads; ++head) run(s, head, 0, s.rows);
    return;
  }
  // Every (row, head) output belongs to exactly one task, so tasks write
  // disjoint memory. Later query blocks attend longer prefixes: ordering
  // by block index, last first, hands the heaviest tasks out first and
  // keeps the pool's contiguous chunks of similar cost.
  struct Task {
    std::size_t seq, head, block;
  };
  std::vector<Task> tasks;
  std::size_t max_blocks = 0;
  for (const AttnSeq& s : seqs)
    max_blocks = std::max(
        max_blocks, (s.rows + kAttnQueryBlock - 1) / kAttnQueryBlock);
  for (std::size_t b = max_blocks; b-- > 0;)
    for (std::size_t si = 0; si < seqs.size(); ++si)
      if (b * kAttnQueryBlock < seqs[si].rows)
        for (std::size_t head = 0; head < heads; ++head)
          tasks.push_back({si, head, b});
  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    const Task& t = tasks[i];
    const AttnSeq& s = seqs[t.seq];
    const std::size_t r0 = t.block * kAttnQueryBlock;
    run(s, t.head, r0, std::min(kAttnQueryBlock, s.rows - r0));
  });
}

}  // namespace llmpq
