#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "quant/quantize.hpp"

namespace llmpq {

/// y[m x rows] = x[m x cols] * W^T where W is [rows x cols]. Weights are
/// stored output-channel-major (each W row produces one output feature),
/// matching the per-row quantization scales. `bias` (size rows) is optional.
///
/// This is the CPU "weight-only kernel": each output channel is dequantized
/// once per call and accumulated in fp32. The row microkernel is picked at
/// runtime (scalar / AVX2 / AVX-512 — see quant/qgemm_kernels.hpp); work
/// is partitioned over output-channel blocks across the shared ThreadPool
/// when the problem is large enough to amortize the fork/join (small
/// problems and single-core hosts run one kernel call inline). Every
/// output element is produced by exactly one task, so results are
/// bit-for-bit identical regardless of thread count at a fixed dispatch
/// level; across levels the dequantization is bit-identical and only the
/// dot-product accumulation order differs (documented tolerance).
void qgemm(std::span<const float> x, std::size_t m, std::size_t cols,
           const QuantizedMatrix& w, std::span<const float> bias,
           std::span<float> y);

/// Single-threaded scalar reference kernel (the seed implementation,
/// always dispatch-independent); the bit-defining baseline for tests and
/// `bench_micro_quant`.
void qgemm_serial(std::span<const float> x, std::size_t m, std::size_t cols,
                  const QuantizedMatrix& w, std::span<const float> bias,
                  std::span<float> y);

/// The tied LM head's fused GEMV + greedy argmax: best_index[i] is the
/// row r of the fp32 matrix e[rows x cols] maximizing dot(x_i, e_r) for
/// each of the m rows of x[m x cols]. `e` is read in place, one pass per
/// call, through the argmax row kernel picked at runtime (see
/// quant/qgemm_kernels.hpp), split into vocab blocks over the shared
/// ThreadPool like qgemm(). Contract: every dot is computed by exactly one
/// task; candidates start at -1e30f and win only when strictly greater,
/// inside a block and in the ascending-order merge of the block winners,
/// so ties go to the lowest index, NaN logits never win, and the result
/// does not depend on the thread count. At SimdLevel::kScalar each dot
/// accumulates from 0.0f over ascending columns (bit-defining); vector
/// levels reassociate it within qgemm's documented tolerance.
void gemv_argmax(std::span<const float> x, std::size_t m, std::size_t cols,
                 std::span<const float> e, std::size_t rows,
                 std::span<std::size_t> best_index);

/// Plain fp32 GEMM with the same layout (used as the ground truth in tests).
void gemm_f32(std::span<const float> x, std::size_t m, std::size_t cols,
              std::span<const float> w, std::size_t rows,
              std::span<const float> bias, std::span<float> y);

}  // namespace llmpq
