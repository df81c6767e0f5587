// Shared implementation of the vector dequant-GEMM row microkernels.
// Included (not compiled standalone) by qgemm_avx2.cpp and
// qgemm_avx512.cpp, each built with its own -m... flags; everything here
// has internal linkage so the two TUs cannot collide. The including TU
// defines LLMPQ_SIMD_IMPL_AVX512 (0 or 1) to pick the dot-product width;
// the decode/dequantize step is 256-bit in both.
//
// Contract (see qgemm_kernels.hpp): dequantization is elementwise
// bit-identical to QuantizedMatrix::dequantize_row — same convert,
// multiply and add in the same IEEE order, no FMA contraction (these TUs
// are built with -ffp-contract=off so the compiler cannot fuse the
// `code * scale + min` pair either). Only the dot product reassociates
// (vector lanes + explicit FMA).

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "quant/qgemm_kernels.hpp"
#include "quant/rounding.hpp"

namespace llmpq {
namespace {

// Little-endian bit-order unpack, identical to quantize.cpp's
// unpack_value. The +1 spill word per packed row makes reading
// row_words[word + 1] safe for the last element.
inline std::uint32_t unpack_code(const std::uint32_t* row_words,
                                 std::size_t idx, int bits) {
  const std::size_t bit_pos = idx * static_cast<std::size_t>(bits);
  const std::size_t word = bit_pos / 32;
  const std::size_t offset = bit_pos % 32;
  const std::uint32_t mask = (1u << bits) - 1u;
  std::uint32_t v = row_words[word] >> offset;
  if (offset + static_cast<std::size_t>(bits) > 32)
    v |= row_words[word + 1] << (32 - offset);
  return v & mask;
}

// Decodes 8 consecutive codes starting at element c0 (c0 % 8 == 0) into
// one epi32 vector. 8-bit codes are whole bytes and 4-bit codes are the 8
// nibbles of one word, so both decode branch-free; 3-bit codes straddle
// word boundaries and go through the scalar unpack.
inline __m256i decode8(const std::uint32_t* row_words, std::size_t c0,
                       int bits) {
  if (bits == 8) {
    const std::uint8_t* bytes =
        reinterpret_cast<const std::uint8_t*>(row_words);
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + c0));
    return _mm256_cvtepu8_epi32(b);
  }
  if (bits == 4) {
    const __m256i shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    const __m256i word = _mm256_set1_epi32(
        static_cast<int>(row_words[c0 / 8]));
    return _mm256_and_si256(_mm256_srlv_epi32(word, shifts),
                            _mm256_set1_epi32(0xF));
  }
  alignas(32) std::int32_t tmp[8];
  for (int i = 0; i < 8; ++i)
    tmp[i] = static_cast<std::int32_t>(
        unpack_code(row_words, c0 + static_cast<std::size_t>(i), bits));
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
}

// Dequantizes row r of a packed (bits < 16) matrix into `out`,
// bit-identical to QuantizedMatrix::dequantize_row.
inline void dequant_row_vec(const QuantizedMatrix& w, std::size_t r,
                            float* out) {
  const int bits = w.bits();
  const std::size_t cols = w.cols();
  const std::uint32_t* rw = w.packed_row(r);
  if (w.format() == QuantFormat::kPerChannel) {
    const std::int32_t qmax = qmax_for_bits(bits);
    const float scale = w.scales()[r];
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256i vqmax = _mm256_set1_epi32(qmax);
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256i q = _mm256_sub_epi32(decode8(rw, c, bits), vqmax);
      _mm256_storeu_ps(out + c,
                       _mm256_mul_ps(_mm256_cvtepi32_ps(q), vs));
    }
    for (; c < cols; ++c) {
      const std::int32_t qi =
          static_cast<std::int32_t>(unpack_code(rw, c, bits)) - qmax;
      out[c] = static_cast<float>(qi) * scale;
    }
    return;
  }
  // Group-wise: group boundaries (32/64) are multiples of 8, so within a
  // full group the vector loop stays 8-aligned; only the final, possibly
  // partial group has a scalar tail.
  const std::size_t gs = w.group_size();
  const float* gscale = w.group_scales(r);
  const float* gmin = w.group_mins(r);
  std::size_t c = 0, g = 0;
  while (c < cols) {
    const std::size_t gend = std::min(cols, c + gs);
    const __m256 vs = _mm256_set1_ps(gscale[g]);
    const __m256 vm = _mm256_set1_ps(gmin[g]);
    for (; c + 8 <= gend; c += 8) {
      const __m256 codes = _mm256_cvtepi32_ps(decode8(rw, c, bits));
      _mm256_storeu_ps(out + c,
                       _mm256_add_ps(_mm256_mul_ps(codes, vs), vm));
    }
    for (; c < gend; ++c)
      out[c] = static_cast<float>(unpack_code(rw, c, bits)) * gscale[g] +
               gmin[g];
    ++g;
  }
}

#if LLMPQ_SIMD_IMPL_AVX512

inline float dot_vec(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t c = 0;
  for (; c + 32 <= n; c += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + c), _mm512_loadu_ps(b + c),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + c + 16),
                           _mm512_loadu_ps(b + c + 16), acc1);
  }
  for (; c + 16 <= n; c += 16)
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + c), _mm512_loadu_ps(b + c),
                           acc0);
  // Spilled horizontal sum instead of _mm512_reduce_add_ps: GCC's reduce
  // implementation trips -Wmaybe-uninitialized via _mm256_undefined_pd.
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, _mm512_add_ps(acc0, acc1));
  float total = 0.0f;
  for (int i = 0; i < 16; ++i) total += lanes[i];
  for (; c < n; ++c) total += a[c] * b[c];
  return total;
}

#else  // AVX2

inline float hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

inline float dot_vec(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + c), _mm256_loadu_ps(b + c),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + c + 8),
                           _mm256_loadu_ps(b + c + 8), acc1);
  }
  for (; c + 8 <= n; c += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + c), _mm256_loadu_ps(b + c),
                           acc0);
  float total = hsum256(_mm256_add_ps(acc0, acc1));
  for (; c < n; ++c) total += a[c] * b[c];
  return total;
}

#endif  // LLMPQ_SIMD_IMPL_AVX512

inline void qgemm_rows_impl(const float* x, std::size_t m, std::size_t cols,
                            const QuantizedMatrix& w, const float* bias,
                            float* y, std::size_t r0, std::size_t r1,
                            float* scratch) {
  const std::size_t rows = w.rows();
  for (std::size_t r = r0; r < r1; ++r) {
    const float* wrow = w.fp_row(r);
    if (wrow == nullptr) {
      dequant_row_vec(w, r, scratch);
      wrow = scratch;
    }
    const float b = bias == nullptr ? 0.0f : bias[r];
    for (std::size_t i = 0; i < m; ++i)
      y[i * rows + r] = b + dot_vec(x + i * cols, wrow, cols);
  }
}

inline void argmax_rows_impl(const float* x, std::size_t m, std::size_t cols,
                             const float* e, std::size_t r0, std::size_t r1,
                             float* best_logit, std::size_t* best_index) {
  for (std::size_t r = r0; r < r1; ++r) {
    const float* er = e + r * cols;
    for (std::size_t i = 0; i < m; ++i) {
      const float logit = dot_vec(x + i * cols, er, cols);
      if (logit > best_logit[i]) {
        best_logit[i] = logit;
        best_index[i] = r;
      }
    }
  }
}

}  // namespace
}  // namespace llmpq
