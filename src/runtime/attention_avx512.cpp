// AVX-512 attention row kernel TU: 16-key groups and 16-feature chunks.
// Built only when the compiler accepts -mavx512f; the dispatcher requires
// avx512f+bw+vl at runtime.

#define LLMPQ_SIMD_IMPL_AVX512 1
#include "runtime/attention_simd_impl.hpp"

namespace llmpq {

void attend_rows_avx512(const float* q, std::size_t q_stride,
                        const float* const* k_rows, const float* const* v_rows,
                        std::size_t kv_off, std::size_t dh, std::size_t span0,
                        std::size_t n, float scale, float* out,
                        std::size_t out_stride) {
  attend_rows_impl(q, q_stride, k_rows, v_rows, kv_off, dh, span0, n, scale,
                   out, out_stride);
}

void attn_exp_avx512(const float* x, std::size_t n, float* y) {
  attn_exp_impl(x, n, y);
}

}  // namespace llmpq
