#pragma once

#include <cstddef>
#include <span>

#include "quant/qgemm_kernels.hpp"

namespace llmpq {

/// Causal multi-head attention of the decoder layers: one row kernel per
/// SIMD level behind the qgemm dispatch (active_simd_level()), split over
/// (sequence, head, query block) tasks on the shared ThreadPool.
///
/// Contract — a row's output bits depend only on its query vector, its
/// causal K/V prefix and the SIMD level; never on the span length, the
/// tile or query-block position, the cache slot, batch neighbours or the
/// thread count. Prefill vs decode, chunked prefill, preempt→resume and
/// continuous joins are bit-exact against the reference because of it.
///   * kScalar is bit-defining: per (row, head) it scores every position
///     with a dot accumulated from 0.0f over ascending head features,
///     scaled by 1/sqrt(dh), runs softmax() over the whole span, then
///     accumulates the weighted values from 0.0f over ascending positions.
///   * The vector levels vectorize over head features and keys. They walk
///     the row's causal prefix in kAttnTile-key tiles anchored at cache
///     position 0 (tile b covers positions [b*T, (b+1)*T), the last one
///     clipped to the row's span), reduce a key group's lane partials with
///     one transpose-add tree, and keep a FlashAttention-2 online softmax
///     (running max, rescaled sum and accumulator, one division at the
///     end) with a polynomial exp. They reassociate within a documented
///     tolerance of an fp64 reference (see DESIGN.md).

/// Keys per online-softmax tile of the vector kernels (a multiple of
/// every vector width).
inline constexpr std::size_t kAttnTile = 64;

/// Query rows per task: the rows that share each loaded K/V tile.
inline constexpr std::size_t kAttnQueryBlock = 16;

/// Row kernel for one (sequence, head): query row i < n attends cache
/// positions [0, span0 + i). Row i's query is q + i * q_stride and its
/// output out + i * out_stride, both already offset to the head; the K/V
/// vector of position p is k_rows[p] + kv_off / v_rows[p] + kv_off, dh
/// floats each. Writes (never accumulates) dh output floats per row.
using AttendRowsFn = void (*)(const float* q, std::size_t q_stride,
                              const float* const* k_rows,
                              const float* const* v_rows, std::size_t kv_off,
                              std::size_t dh, std::size_t span0, std::size_t n,
                              float scale, float* out, std::size_t out_stride);

/// Kernel entry point for `level` (clamped to available).
AttendRowsFn attend_rows_kernel(SimdLevel level);

/// The bit-defining reference kernel (always present).
void attend_rows_scalar(const float* q, std::size_t q_stride,
                        const float* const* k_rows, const float* const* v_rows,
                        std::size_t kv_off, std::size_t dh, std::size_t span0,
                        std::size_t n, float scale, float* out,
                        std::size_t out_stride);

#if defined(LLMPQ_HAVE_AVX2)
void attend_rows_avx2(const float* q, std::size_t q_stride,
                      const float* const* k_rows, const float* const* v_rows,
                      std::size_t kv_off, std::size_t dh, std::size_t span0,
                      std::size_t n, float scale, float* out,
                      std::size_t out_stride);
/// The vector kernels' exp, y[i] = e^x[i] for x[i] <= 0 (inputs below
/// -104 give 0); exposed for its accuracy test.
void attn_exp_avx2(const float* x, std::size_t n, float* y);
#endif
#if defined(LLMPQ_HAVE_AVX512)
void attend_rows_avx512(const float* q, std::size_t q_stride,
                        const float* const* k_rows, const float* const* v_rows,
                        std::size_t kv_off, std::size_t dh, std::size_t span0,
                        std::size_t n, float scale, float* out,
                        std::size_t out_stride);
void attn_exp_avx512(const float* x, std::size_t n, float* y);
#endif

/// One sequence's share of an attention pass: `rows` new query rows over
/// `ctx` cached positions (these rows' own K/V included), so row t
/// attends positions [0, ctx - rows + t].
struct AttnSeq {
  const float* q = nullptr;  ///< first query row (row stride q_stride)
  float* out = nullptr;      ///< first output row (row stride out_stride)
  const float* const* k_rows = nullptr;  ///< [ctx] hidden-wide K rows
  const float* const* v_rows = nullptr;  ///< [ctx] hidden-wide V rows
  std::size_t rows = 0;
  std::size_t ctx = 0;
};

/// Causal attention for a ragged batch: writes `heads * dh` output floats
/// per query row of every sequence. Runs serially on a 1-thread pool,
/// from inside a pool worker, or when the pass attends fewer than
/// kAttnParallelWorkThreshold (position, feature) pairs; otherwise splits
/// (sequence, head, query block) tasks over ThreadPool::shared().
void attend(std::span<const AttnSeq> seqs, std::size_t heads, std::size_t dh,
            std::size_t q_stride, std::size_t out_stride);

/// Attended positions of `rows` query rows over `ctx` cached positions
/// (rows included): sum over the rows of their causal span.
inline std::size_t attended_positions(std::size_t rows, std::size_t ctx) {
  return rows * (ctx - rows) + rows * (rows + 1) / 2;
}

}  // namespace llmpq
