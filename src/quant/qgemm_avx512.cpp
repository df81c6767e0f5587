// AVX-512 dequant-GEMM microkernel TU: 256-bit decode shared with the
// AVX2 kernel, 512-bit FMA dot product. Built only when the compiler
// accepts -mavx512f; the dispatcher requires avx512f+bw+vl at runtime.

#define LLMPQ_SIMD_IMPL_AVX512 1
#include "quant/qgemm_simd_impl.hpp"

namespace llmpq {

void qgemm_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch) {
  qgemm_rows_impl(x, m, cols, w, bias, y, r0, r1, scratch);
}

void argmax_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                        const float* e, std::size_t r0, std::size_t r1,
                        float* best_logit, std::size_t* best_index) {
  argmax_rows_impl(x, m, cols, e, r0, r1, best_logit, best_index);
}

}  // namespace llmpq
