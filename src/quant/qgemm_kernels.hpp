#pragma once

#include <cstddef>
#include <string>

#include "quant/quantize.hpp"

namespace llmpq {

/// Dispatch levels of the dequantize-then-GEMM row microkernels, ordered
/// by capability. The scalar kernel is the bit-defining reference: the
/// vector kernels must reproduce its *dequantization* bit-for-bit (the
/// per-element `code * scale (+ min)` is evaluated with the same two
/// IEEE roundings — no FMA contraction there) and may only differ in the
/// dot-product accumulation order (vector lanes + FMA), which tests cover
/// with a documented tolerance.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* simd_level_name(SimdLevel level);
/// Inverse of simd_level_name ("scalar" | "avx2" | "avx512"); throws
/// InvalidArgumentError on anything else.
SimdLevel simd_level_from_name(const std::string& name);

/// True when `level`'s kernel is both compiled in (-mavx2 / -mavx512*)
/// and supported by this CPU. kScalar is always available.
bool simd_level_available(SimdLevel level);

/// Highest available level on this machine.
SimdLevel detected_simd_level();

/// The level qgemm() dispatches to. Resolution order: set_simd_level()
/// override if any, else the LLMPQ_SIMD env var (scalar|avx2|avx512,
/// clamped to what is available), else detected_simd_level().
SimdLevel active_simd_level();

/// Forces the dispatch level (clamped to available); used by tests and
/// benches to pin a kernel. Not thread-safe against concurrent qgemm
/// calls — set it before spawning work.
void set_simd_level(SimdLevel level);

/// RAII pin for tests: forces `level` for the scope, restores on exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(active_simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

/// Row-range microkernel contract shared by every dispatch level:
/// computes output channels [r0, r1) of y[m x rows] = x[m x cols] * W^T
/// (+ bias), with `scratch` (size cols) available for the dequantized
/// row. 16-bit matrices are read in place via the fp-row cache.
using QgemmRowsFn = void (*)(const float* x, std::size_t m, std::size_t cols,
                             const QuantizedMatrix& w, const float* bias,
                             float* y, std::size_t r0, std::size_t r1,
                             float* scratch);

/// Kernel entry point for `level` (clamped to available).
QgemmRowsFn qgemm_rows_kernel(SimdLevel level);

/// The reference kernel (always present).
void qgemm_rows_scalar(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch);

/// Fused GEMV + argmax row-range kernel (the tied LM head): for each of
/// the m rows x_i of x[m x cols], scans rows [r0, r1) of the plain fp32
/// matrix e[rows x cols] in ascending order and replaces (best_logit[i],
/// best_index[i]) with (dot(x_i, e_r), r) whenever that dot is strictly
/// greater — the caller seeds both arrays. Each e row is read once and
/// dotted against every x_i while it is hot. Strict `>` makes ties keep
/// the lowest index and NaN logits never win. The scalar kernel
/// accumulates each dot from 0.0f over ascending columns (bit-defining);
/// the vector kernels reassociate it like qgemm's.
using ArgmaxRowsFn = void (*)(const float* x, std::size_t m, std::size_t cols,
                              const float* e, std::size_t r0, std::size_t r1,
                              float* best_logit, std::size_t* best_index);

/// Argmax kernel entry point for `level` (clamped to available).
ArgmaxRowsFn argmax_rows_kernel(SimdLevel level);

void argmax_rows_scalar(const float* x, std::size_t m, std::size_t cols,
                        const float* e, std::size_t r0, std::size_t r1,
                        float* best_logit, std::size_t* best_index);

#if defined(LLMPQ_HAVE_AVX2)
void qgemm_rows_avx2(const float* x, std::size_t m, std::size_t cols,
                     const QuantizedMatrix& w, const float* bias, float* y,
                     std::size_t r0, std::size_t r1, float* scratch);
void argmax_rows_avx2(const float* x, std::size_t m, std::size_t cols,
                      const float* e, std::size_t r0, std::size_t r1,
                      float* best_logit, std::size_t* best_index);
#endif
#if defined(LLMPQ_HAVE_AVX512)
void qgemm_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch);
void argmax_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                        const float* e, std::size_t r0, std::size_t r1,
                        float* best_logit, std::size_t* best_index);
#endif

}  // namespace llmpq
