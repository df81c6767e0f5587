// Attention row kernels (runtime/attention.hpp): the scalar level is
// bit-identical to the loop it replaced; at every level a row's output
// bits do not depend on the span it is computed in, the tile it falls in,
// the cache slot, batch neighbours or the thread count; the vector levels
// stay within a stated bound of an fp64 reference; and the vector exp
// stays within a stated ulp bound of std::exp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "quant/qgemm_kernels.hpp"
#include "runtime/attention.hpp"
#include "runtime/tensor.hpp"

namespace llmpq {
namespace {

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_level_available(l)) out.push_back(l);
  return out;
}

/// One sequence's cached K/V ([ctx x hidden] each) and query rows, laid
/// out like the layer's qkv activation ([rows x 3 hidden], q first). `pad`
/// shifts the K/V storage so a copy sits at a different address (slot).
struct Seq {
  std::size_t hidden = 0;
  std::vector<float> kv;  // pad, then K rows, then V rows
  std::vector<float> qkv;
  std::vector<const float*> k_rows, v_rows;

  Seq(std::size_t ctx, std::size_t hidden_, std::uint64_t seed,
      std::size_t pad = 0)
      : hidden(hidden_), kv(pad + 2 * ctx * hidden_), qkv(ctx * 3 * hidden_) {
    Rng rng(seed);
    for (std::size_t i = pad; i < kv.size(); ++i)
      kv[i] = static_cast<float>(rng.normal());
    for (float& x : qkv) x = static_cast<float>(rng.normal());
    for (std::size_t p = 0; p < ctx; ++p) {
      k_rows.push_back(kv.data() + pad + p * hidden);
      v_rows.push_back(kv.data() + pad + (ctx + p) * hidden);
    }
  }

  /// Query rows [r0, r0 + rows) over the first `ctx` positions; their
  /// outputs go to out rows [r0, r0 + rows) of a [* x hidden] buffer.
  AttnSeq pass(std::size_t r0, std::size_t rows, std::size_t ctx,
               std::vector<float>& out) const {
    return AttnSeq{qkv.data() + r0 * 3 * hidden, out.data() + r0 * hidden,
                   k_rows.data(), v_rows.data(), rows, ctx};
  }
};

void run_attend(std::span<const AttnSeq> seqs, std::size_t heads,
                std::size_t dh, ThreadPool* one_thread) {
  const std::size_t hidden = heads * dh;
  if (one_thread == nullptr) {
    attend(seqs, heads, dh, 3 * hidden, hidden);
    return;
  }
  one_thread->submit([&] { attend(seqs, heads, dh, 3 * hidden, hidden); })
      .get();
}

// The layer's attention loop before the row kernels, verbatim: per row
// and head, dependent-add dots over the span, softmax(), then weighted
// values accumulated into the zero-initialized output.
void loop_attention(const Seq& s, std::size_t rows, std::size_t ctx_len,
                    std::size_t heads, std::size_t dh, std::vector<float>& out) {
  const std::size_t h = heads * dh;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  std::fill(out.begin(), out.end(), 0.0f);
  std::vector<float> scores;
  for (std::size_t t = 0; t < rows; ++t) {
    const float* q = s.qkv.data() + t * 3 * h;
    const std::size_t span = ctx_len - rows + t + 1;
    scores.resize(span);
    float* ctx_out = out.data() + t * h;
    for (std::size_t head = 0; head < heads; ++head) {
      const std::size_t off = head * dh;
      for (std::size_t p = 0; p < span; ++p) {
        const float* k = s.k_rows[p] + off;
        float dot = 0.0f;
        for (std::size_t d = 0; d < dh; ++d) dot += q[off + d] * k[d];
        scores[p] = dot * inv_sqrt_dh;
      }
      softmax(std::span<float>(scores.data(), span));
      for (std::size_t p = 0; p < span; ++p) {
        const float* v = s.v_rows[p] + off;
        const float sp_w = scores[p];
        for (std::size_t d = 0; d < dh; ++d) ctx_out[off + d] += sp_w * v[d];
      }
    }
  }
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

constexpr std::size_t kHeads = 2;
constexpr std::size_t kCtx = 513;
// 8: the tiny test models; 64: OPT-125m; 20: a tail at both vector widths.
constexpr std::size_t kHeadDims[] = {8, 64, 20};

TEST(Attention, ScalarLevelMatchesOriginalLoopExactly) {
  const ScopedSimdLevel pin(SimdLevel::kScalar);
  for (std::size_t dh : kHeadDims) {
    const std::size_t h = kHeads * dh;
    const Seq s(kCtx, h, 7 + dh);
    // (rows, ctx): decode, short prefill, chunk after a prefix, long prefill.
    for (auto [rows, ctx] : {std::pair<std::size_t, std::size_t>{1, 300},
                             {5, 5}, {70, 200}, {kCtx, kCtx}}) {
      std::vector<float> want(rows * h), got(rows * h, -1.0f);
      loop_attention(s, rows, ctx, kHeads, dh, want);
      const AttnSeq pass = s.pass(0, rows, ctx, got);
      run_attend({&pass, 1}, kHeads, dh, nullptr);
      EXPECT_TRUE(same_bits(want.data(), got.data(), want.size()))
          << "dh=" << dh << " rows=" << rows << " ctx=" << ctx;
    }
  }
}

TEST(Attention, RowBitsIndependentOfSpanTileSlotNeighboursAndThreads) {
  ThreadPool one_thread(1);
  for (SimdLevel level : available_levels()) {
    const ScopedSimdLevel pin(level);
    for (std::size_t dh : kHeadDims) {
      const std::size_t h = kHeads * dh;
      const Seq s(kCtx, h, 11 + dh);
      const Seq neighbour(kCtx, h, 12 + dh);
      const Seq moved(kCtx, h, 11 + dh, 3);  // same data, another slot
      for (ThreadPool* pool : {&one_thread, static_cast<ThreadPool*>(nullptr)}) {
        const std::string where =
            std::string(simd_level_name(level)) + " dh=" + std::to_string(dh) +
            (pool != nullptr ? " one-thread pool" : " shared pool");

        // Decoded one position at a time: the reference bits.
        std::vector<float> decode(kCtx * h);
        for (std::size_t t = 0; t < kCtx; ++t) {
          const AttnSeq step = s.pass(t, 1, t + 1, decode);
          run_attend({&step, 1}, kHeads, dh, pool);
        }

        // Prefill spans of 1, tile - 1, tile, tile + 1 and 513 rows, with
        // a 513-row neighbour sequence in the same call.
        for (std::size_t n :
             {std::size_t{1}, kAttnTile - 1, kAttnTile, kAttnTile + 1, kCtx}) {
          std::vector<float> out(kCtx * h), other(kCtx * h);
          const AttnSeq batch[] = {s.pass(0, n, n, out),
                                   neighbour.pass(0, kCtx, kCtx, other)};
          run_attend(batch, kHeads, dh, pool);
          EXPECT_TRUE(same_bits(out.data(), decode.data(), n * h))
              << where << " prefill span " << n;
        }

        // Split across two chunked passes at a cut aligned to nothing.
        std::vector<float> chunked(kCtx * h);
        const std::size_t cut = 200;
        const AttnSeq first = s.pass(0, cut, cut, chunked);
        run_attend({&first, 1}, kHeads, dh, pool);
        const AttnSeq second = s.pass(cut, kCtx - cut, kCtx, chunked);
        run_attend({&second, 1}, kHeads, dh, pool);
        EXPECT_TRUE(same_bits(chunked.data(), decode.data(), kCtx * h))
            << where << " chunked";

        // Single rows computed alone from a copy at another address.
        for (std::size_t t :
             {std::size_t{0}, kAttnTile - 2, kAttnTile - 1, kAttnTile,
              kCtx - 1}) {
          std::vector<float> alone(kCtx * h);
          const AttnSeq one = moved.pass(t, 1, t + 1, alone);
          run_attend({&one, 1}, kHeads, dh, pool);
          EXPECT_TRUE(same_bits(alone.data() + t * h, decode.data() + t * h, h))
              << where << " row " << t << " alone";
        }
      }
    }
  }
}

// Vector levels reassociate the dots, run an online softmax and use a
// polynomial exp; outputs are convex combinations of V rows, so the
// error is bounded relative to max |v| (unit-normal here).
TEST(Attention, EveryLevelWithinBoundOfFp64Reference) {
  constexpr double kBound = 1e-6;
  for (SimdLevel level : available_levels()) {
    const ScopedSimdLevel pin(level);
    for (std::size_t dh : kHeadDims) {
      const std::size_t h = kHeads * dh;
      const Seq s(kCtx, h, 21 + dh);
      std::vector<float> out(kCtx * h);
      const AttnSeq pass = s.pass(0, kCtx, kCtx, out);
      run_attend({&pass, 1}, kHeads, dh, nullptr);
      double max_v = 0.0, worst = 0.0;
      for (std::size_t p = 0; p < kCtx; ++p)
        for (std::size_t c = 0; c < h; ++c)
          max_v = std::max(max_v, std::fabs(double{s.v_rows[p][c]}));
      std::vector<double> w;
      for (std::size_t t = 0; t < kCtx; ++t) {
        const float* q = s.qkv.data() + t * 3 * h;
        w.resize(t + 1);
        for (std::size_t head = 0; head < kHeads; ++head) {
          const std::size_t off = head * dh;
          double mx = -std::numeric_limits<double>::infinity(), sum = 0.0;
          for (std::size_t p = 0; p <= t; ++p) {
            double dot = 0.0;
            for (std::size_t d = 0; d < dh; ++d)
              dot += double{q[off + d]} * double{s.k_rows[p][off + d]};
            w[p] = dot / std::sqrt(static_cast<double>(dh));
            mx = std::max(mx, w[p]);
          }
          for (double& x : w) sum += (x = std::exp(x - mx));
          for (std::size_t d = 0; d < dh; ++d) {
            double ref = 0.0;
            for (std::size_t p = 0; p <= t; ++p)
              ref += w[p] / sum * double{s.v_rows[p][off + d]};
            worst = std::max(worst,
                             std::fabs(double{out[t * h + off + d]} - ref));
          }
        }
      }
      EXPECT_LE(worst, kBound * max_v)
          << simd_level_name(level) << " dh=" << dh;
    }
  }
}

// Distance in units in the last place between two non-negative floats.
std::int64_t ulp_distance(float a, float b) {
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(float));
  std::memcpy(&ib, &b, sizeof(float));
  return std::abs(static_cast<std::int64_t>(ia) - ib);
}

TEST(Attention, VectorExpWithinUlpBoundOfStdExp) {
  constexpr std::int64_t kMaxUlp = 2;
  std::vector<float> x;
  for (int i = 0; i <= 1 << 20; ++i)
    x.push_back(-88.0f * static_cast<float>(i) / static_cast<float>(1 << 20));
  x.push_back(-0.0f);
  x.push_back(std::nextafter(0.0f, -1.0f));
  std::vector<float> y(x.size());
  using ExpFn = void (*)(const float*, std::size_t, float*);
  std::vector<std::pair<const char*, ExpFn>> fns;
#if defined(LLMPQ_HAVE_AVX2)
  if (simd_level_available(SimdLevel::kAvx2))
    fns.push_back({"avx2", &attn_exp_avx2});
#endif
#if defined(LLMPQ_HAVE_AVX512)
  if (simd_level_available(SimdLevel::kAvx512))
    fns.push_back({"avx512", &attn_exp_avx512});
#endif
  if (fns.empty()) GTEST_SKIP() << "no vector level on this host";
  for (const auto& [name, fn] : fns) {
    // An odd length exercises the masked tail.
    fn(x.data(), x.size(), y.data());
    std::int64_t worst = 0;
    float worst_x = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::int64_t d = ulp_distance(y[i], std::exp(x[i]));
      if (d > worst) {
        worst = d;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, kMaxUlp) << name << " worst at x=" << worst_x;
    // Far below the float range the kernels give exactly 0.
    const float deep[] = {-104.5f, -200.0f,
                          -std::numeric_limits<float>::infinity()};
    float out[3];
    fn(deep, 3, out);
    for (float v : out) EXPECT_EQ(v, 0.0f) << name;
  }
}

TEST(Attention, ChatSizedPassesStaySerial) {
  EXPECT_EQ(attended_positions(1, 30), 30u);
  EXPECT_EQ(attended_positions(6, 6), 21u);
  EXPECT_EQ(attended_positions(3, 10), 3u * 7u + 6u);
  // A full chat decode round (8 rows over 30-token contexts) and a full
  // chat prefill (8 prompts of 6 tokens) at OPT-125m's width.
  EXPECT_LT(8 * attended_positions(1, 30) * 768, kAttnParallelWorkThreshold);
  EXPECT_LT(8 * attended_positions(6, 6) * 768, kAttnParallelWorkThreshold);
  // An offline decode step (4 rows over ~520 positions) forks.
  EXPECT_GE(4 * attended_positions(1, 520) * 768, kAttnParallelWorkThreshold);
}

}  // namespace
}  // namespace llmpq
