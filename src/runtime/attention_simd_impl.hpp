// Shared implementation of the vector attention row kernels. Included
// (not compiled standalone) by attention_avx2.cpp and attention_avx512.cpp,
// each built with its own -m... flags and -ffp-contract=off; everything
// here has internal linkage so the two TUs cannot collide. The including
// TU defines LLMPQ_SIMD_IMPL_AVX512 (0 or 1) to pick the vector width.
//
// Contract (see attention.hpp): a row's bits depend only on its query,
// its causal K/V prefix and the level. Each row walks kAttnTile-key tiles
// anchored at position 0 and folds them, in ascending order, into its own
// online-softmax state; nothing in that sequence of operations depends on
// which other rows share the call.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "runtime/attention.hpp"

namespace llmpq {
namespace {

#if LLMPQ_SIMD_IMPL_AVX512

struct Isa {
  using V = __m512;
  using M = __mmask16;
  static constexpr std::size_t kW = 16;

  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  /// Lanes [0, n), n <= kW.
  static M mask(std::size_t n) { return static_cast<M>((1u << n) - 1u); }
  static V load(const float* p, M m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v, M m) { _mm512_mask_storeu_ps(p, m, v); }
  /// Lanes in `m` from `a`, the rest from `b`.
  static V select(M m, V a, V b) { return _mm512_mask_blend_ps(m, b, a); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V fnmadd(V a, V b, V c) { return _mm512_fnmadd_ps(a, b, c); }
  static V round(V x) {
    return _mm512_roundscale_ps(x, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  }
  /// 2^n for integral n in [-126, 127].
  static V pow2(V n) {
    const __m512i e =
        _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127));
    return _mm512_castsi512_ps(_mm512_slli_epi32(e, 23));
  }
  static float lane0(V v) { return _mm512_cvtss_f32(v); }

  /// Transpose-add tree: lane j of the result is the lane sum of a[j].
  static V tree(const V* a) {
    V t[8], u[4];
    for (int i = 0; i < 8; ++i)
      t[i] = _mm512_add_ps(_mm512_unpacklo_ps(a[2 * i], a[2 * i + 1]),
                           _mm512_unpackhi_ps(a[2 * i], a[2 * i + 1]));
    for (int i = 0; i < 4; ++i)
      u[i] = _mm512_add_ps(
          _mm512_shuffle_ps(t[2 * i], t[2 * i + 1], _MM_SHUFFLE(1, 0, 1, 0)),
          _mm512_shuffle_ps(t[2 * i], t[2 * i + 1], _MM_SHUFFLE(3, 2, 3, 2)));
    const V v0 = _mm512_add_ps(
        _mm512_shuffle_f32x4(u[0], u[1], _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_f32x4(u[0], u[1], _MM_SHUFFLE(3, 1, 3, 1)));
    const V v1 = _mm512_add_ps(
        _mm512_shuffle_f32x4(u[2], u[3], _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_f32x4(u[2], u[3], _MM_SHUFFLE(3, 1, 3, 1)));
    return _mm512_add_ps(_mm512_shuffle_f32x4(v0, v1, _MM_SHUFFLE(2, 0, 2, 0)),
                         _mm512_shuffle_f32x4(v0, v1, _MM_SHUFFLE(3, 1, 3, 1)));
  }

  /// Folds the four 128-bit blocks with `op`, then the four lanes of the
  /// result, in a fixed order.
  template <typename Op512, typename Op128>
  static float fold(V v, Op512 op512, Op128 op128) {
    v = op512(v, _mm512_shuffle_f32x4(v, v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = op512(v, _mm512_shuffle_f32x4(v, v, _MM_SHUFFLE(2, 3, 0, 1)));
    __m128 x = _mm512_castps512_ps128(v);
    x = op128(x, _mm_movehl_ps(x, x));
    x = op128(x, _mm_movehdup_ps(x));
    return _mm_cvtss_f32(x);
  }
  static float reduce_add(V v) {
    return fold(
        v, [](V a, V b) { return _mm512_add_ps(a, b); },
        [](__m128 a, __m128 b) { return _mm_add_ps(a, b); });
  }
  static float reduce_max(V v) {
    return fold(
        v, [](V a, V b) { return _mm512_max_ps(a, b); },
        [](__m128 a, __m128 b) { return _mm_max_ps(a, b); });
  }
};

#else  // AVX2

struct Isa {
  using V = __m256;
  using M = __m256i;
  static constexpr std::size_t kW = 8;

  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static M mask(std::size_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load(const float* p, M m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v, M m) { _mm256_maskstore_ps(p, m, v); }
  static V select(M m, V a, V b) {
    return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
  }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_ps(a, b, c); }
  static V round(V x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V pow2(V n) {
    const __m256i e =
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
    return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }
  static float lane0(V v) { return _mm256_cvtss_f32(v); }

  static V tree(const V* a) {
    V t[4], u[2];
    for (int i = 0; i < 4; ++i)
      t[i] = _mm256_add_ps(_mm256_unpacklo_ps(a[2 * i], a[2 * i + 1]),
                           _mm256_unpackhi_ps(a[2 * i], a[2 * i + 1]));
    for (int i = 0; i < 2; ++i)
      u[i] = _mm256_add_ps(
          _mm256_shuffle_ps(t[2 * i], t[2 * i + 1], _MM_SHUFFLE(1, 0, 1, 0)),
          _mm256_shuffle_ps(t[2 * i], t[2 * i + 1], _MM_SHUFFLE(3, 2, 3, 2)));
    return _mm256_add_ps(_mm256_permute2f128_ps(u[0], u[1], 0x20),
                         _mm256_permute2f128_ps(u[0], u[1], 0x31));
  }

  template <typename Op128>
  static float fold(V v, Op128 op) {
    __m128 x = op(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    x = op(x, _mm_movehl_ps(x, x));
    x = op(x, _mm_movehdup_ps(x));
    return _mm_cvtss_f32(x);
  }
  static float reduce_add(V v) {
    return fold(v, [](__m128 a, __m128 b) { return _mm_add_ps(a, b); });
  }
  static float reduce_max(V v) {
    return fold(v, [](__m128 a, __m128 b) { return _mm_max_ps(a, b); });
  }
};

#endif  // LLMPQ_SIMD_IMPL_AVX512

using V = Isa::V;
constexpr std::size_t kW = Isa::kW;
static_assert(kAttnTile % kW == 0, "tiles hold whole key groups");
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// e^x for x <= 0 (Cephes expf): x = n ln2 + r with |r| <= ln2/2, a
/// degree-7 polynomial in r, then the 2^n scale in two exact steps so
/// results below FLT_MIN round once, as denormals. Inputs below -104
/// (where e^x < 2^-150) clamp there and give 0.
inline V exp_vec(V x) {
  x = Isa::max(x, Isa::set1(-104.0f));
  const V n = Isa::round(Isa::mul(x, Isa::set1(1.44269504088896341f)));
  V r = Isa::fnmadd(n, Isa::set1(0.693359375f), x);
  r = Isa::fnmadd(n, Isa::set1(-2.12194440e-4f), r);
  V p = Isa::set1(1.9875691500e-4f);
  p = Isa::fmadd(p, r, Isa::set1(1.3981999507e-3f));
  p = Isa::fmadd(p, r, Isa::set1(8.3334519073e-3f));
  p = Isa::fmadd(p, r, Isa::set1(4.1665795894e-2f));
  p = Isa::fmadd(p, r, Isa::set1(1.6666665459e-1f));
  p = Isa::fmadd(p, r, Isa::set1(5.0000001201e-1f));
  const V y =
      Isa::add(Isa::fmadd(p, Isa::mul(r, r), r), Isa::set1(1.0f));
  return Isa::mul(Isa::mul(y, Isa::pow2(Isa::add(n, Isa::set1(64.0f)))),
                  Isa::set1(0x1p-64f));
}

/// Online-softmax state of one query row: running max and sum. The
/// running (unnormalized) accumulator lives in the row's output slice.
struct RowState {
  float m = kNegInf;
  float l = 0.0f;
};

/// Feature chunks of kW one PV sweep accumulates at once.
constexpr std::size_t kPv = 4;

/// Chunk loads and stores at feature f: plain when every chunk is full
/// (kFull: dh a multiple of kPv * kW), else masked by `m`, which may be
/// empty past the row's end (masked lanes are never touched).
template <bool kFull>
inline V load_at(const float* p, std::size_t f, Isa::M m) {
  if constexpr (kFull)
    return Isa::load(p + f);
  else
    return Isa::load(p + f, m);
}
template <bool kFull>
inline void store_at(float* p, std::size_t f, V v, Isa::M m) {
  if constexpr (kFull)
    Isa::store(p + f, v);
  else
    Isa::store(p + f, v, m);
}
inline Isa::M chunk_mask(std::size_t dh, std::size_t f) {
  return Isa::mask(f < dh ? std::min(kW, dh - f) : 0);
}

/// Folds the n keys of one tile (k_rows/v_rows point at its first
/// position) into one query row's state. Scores: kW keys at a time, one
/// accumulator per key over the feature chunks, then one transpose-add
/// tree for the group. Then the tile max, exp, and the alpha-rescaled sum.
/// Values: kPv feature chunks per sweep, even and odd keys in separate
/// accumulators (summed at the end) so the FMA chains overlap. `first`
/// marks the row's tile 0, which starts the state; `acc` is the row's
/// output slice.
template <bool kFull>
inline void fold_tile(const float* q, const float* const* k_rows,
                      const float* const* v_rows, std::size_t off,
                      std::size_t dh, std::size_t n, float scale, bool first,
                      RowState& st, float* acc) {
  alignas(64) float s[kAttnTile];
  const std::size_t chunks = (dh + kW - 1) / kW;

  V vmax = Isa::set1(kNegInf);
  for (std::size_t g = 0; g < n; g += kW) {
    const std::size_t gn = std::min(kW, n - g);
    // Lanes past the tile's end recompute its last key; the select below
    // discards them.
    const float* kp[kW];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < kW; ++j)
      kp[j] = k_rows[g + std::min(j, gn - 1)] + off;
    V a[kW];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < kW; ++j) a[j] = Isa::zero();
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t f = c * kW;
      const Isa::M m = chunk_mask(dh, f);
      const V qc = load_at<kFull>(q, f, m);
#pragma GCC unroll 16
      for (std::size_t j = 0; j < kW; ++j)
        a[j] = Isa::fmadd(qc, load_at<kFull>(kp[j], f, m), a[j]);
    }
    V sv = Isa::mul(Isa::tree(a), Isa::set1(scale));
    if (gn < kW) sv = Isa::select(Isa::mask(gn), sv, Isa::set1(kNegInf));
    Isa::store(s + g, sv);
    vmax = Isa::max(vmax, sv);
  }

  const float m_new = std::max(st.m, Isa::reduce_max(vmax));
  const V mv = Isa::set1(m_new);
  V psum = Isa::zero();
  for (std::size_t g = 0; g < n; g += kW) {
    V pv = exp_vec(Isa::sub(Isa::load(s + g), mv));
    if (n - g < kW) pv = Isa::select(Isa::mask(n - g), pv, Isa::zero());
    Isa::store(s + g, pv);
    psum = Isa::add(psum, pv);
  }
  const float tile_sum = Isa::reduce_add(psum);
  V alpha = Isa::zero();
  if (first) {
    st.l = tile_sum;
  } else {
    alpha = exp_vec(Isa::set1(st.m - m_new));
    st.l = st.l * Isa::lane0(alpha) + tile_sum;
  }
  st.m = m_new;

  for (std::size_t c0 = 0; c0 < chunks; c0 += kPv) {
    Isa::M m[kPv];
    V even[kPv], odd[kPv];
#pragma GCC unroll 4
    for (std::size_t u = 0; u < kPv; ++u) {
      const std::size_t f = (c0 + u) * kW;
      m[u] = chunk_mask(dh, f);
      even[u] = first ? Isa::zero()
                      : Isa::mul(load_at<kFull>(acc, f, m[u]), alpha);
      odd[u] = Isa::zero();
    }
    const std::size_t base = off + c0 * kW;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const V pe = Isa::set1(s[j]), po = Isa::set1(s[j + 1]);
      const float* ve = v_rows[j] + base;
      const float* vo = v_rows[j + 1] + base;
#pragma GCC unroll 4
      for (std::size_t u = 0; u < kPv; ++u) {
        even[u] = Isa::fmadd(pe, load_at<kFull>(ve, u * kW, m[u]), even[u]);
        odd[u] = Isa::fmadd(po, load_at<kFull>(vo, u * kW, m[u]), odd[u]);
      }
    }
    if (j < n) {
      const V pe = Isa::set1(s[j]);
      const float* ve = v_rows[j] + base;
#pragma GCC unroll 4
      for (std::size_t u = 0; u < kPv; ++u)
        even[u] = Isa::fmadd(pe, load_at<kFull>(ve, u * kW, m[u]), even[u]);
    }
#pragma GCC unroll 4
    for (std::size_t u = 0; u < kPv; ++u)
      store_at<kFull>(acc, (c0 + u) * kW, Isa::add(even[u], odd[u]), m[u]);
  }
}

template <bool kFull>
inline void attend_rows_full(const float* q, std::size_t q_stride,
                             const float* const* k_rows,
                             const float* const* v_rows, std::size_t kv_off,
                             std::size_t dh, std::size_t span0, std::size_t n,
                             float scale, float* out, std::size_t out_stride) {
  RowState st[kAttnQueryBlock];
  // A block's K/V tile, packed head-contiguous: cache rows sit a hidden
  // width apart, which maps a tile onto a quarter of the L1 sets.
  thread_local std::vector<float> pack;
  const float* pk[kAttnTile];
  const float* pv[kAttnTile];
  for (std::size_t r0 = 0; r0 < n; r0 += kAttnQueryBlock) {
    const std::size_t rn = std::min(kAttnQueryBlock, n - r0);
    const std::size_t max_span = span0 + r0 + rn - 1;
    for (std::size_t i = 0; i < rn; ++i) st[i] = RowState{};
    // Tile-outer, row-inner: each K/V tile is read once from memory and
    // then from cache by every row of the block whose span reaches it.
    for (std::size_t t0 = 0; t0 < max_span; t0 += kAttnTile) {
      const std::size_t tn = std::min(kAttnTile, max_span - t0);
      const float* const* kt = k_rows + t0;
      const float* const* vt = v_rows + t0;
      std::size_t off = kv_off;
      if (rn > 1) {
        pack.resize(2 * kAttnTile * dh);
        for (std::size_t p = 0; p < tn; ++p) {
          float* k = pack.data() + p * dh;
          float* v = k + kAttnTile * dh;
          std::copy(k_rows[t0 + p] + kv_off, k_rows[t0 + p] + kv_off + dh, k);
          std::copy(v_rows[t0 + p] + kv_off, v_rows[t0 + p] + kv_off + dh, v);
          pk[p] = k;
          pv[p] = v;
        }
        kt = pk;
        vt = pv;
        off = 0;
      }
      for (std::size_t i = 0; i < rn; ++i) {
        const std::size_t span = span0 + r0 + i;
        if (span <= t0) continue;
        fold_tile<kFull>(q + (r0 + i) * q_stride, kt, vt, off, dh,
                         std::min(kAttnTile, span - t0), scale, t0 == 0,
                         st[i], out + (r0 + i) * out_stride);
      }
    }
    for (std::size_t i = 0; i < rn; ++i) {
      float* o = out + (r0 + i) * out_stride;
      const V l = Isa::set1(st[i].l);
      for (std::size_t f = 0; f < dh; f += kW) {
        const Isa::M m = chunk_mask(dh, f);
        store_at<kFull>(o, f, Isa::div(load_at<kFull>(o, f, m), l), m);
      }
    }
  }
}

inline void attend_rows_impl(const float* q, std::size_t q_stride,
                             const float* const* k_rows,
                             const float* const* v_rows, std::size_t kv_off,
                             std::size_t dh, std::size_t span0, std::size_t n,
                             float scale, float* out, std::size_t out_stride) {
  if (dh % (kPv * kW) == 0)
    attend_rows_full<true>(q, q_stride, k_rows, v_rows, kv_off, dh, span0, n,
                           scale, out, out_stride);
  else
    attend_rows_full<false>(q, q_stride, k_rows, v_rows, kv_off, dh, span0, n,
                            scale, out, out_stride);
}

inline void attn_exp_impl(const float* x, std::size_t n, float* y) {
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) Isa::store(y + i, exp_vec(Isa::load(x + i)));
  if (i < n) {
    const Isa::M m = Isa::mask(n - i);
    Isa::store(y + i, exp_vec(Isa::load(x + i, m)), m);
  }
}

}  // namespace
}  // namespace llmpq
