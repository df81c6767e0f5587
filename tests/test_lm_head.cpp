// Tied LM head (project_and_sample over gemv_argmax): scalar-level
// bit-exactness against the original per-sequence loop, independence from
// the thread count, lowest-index tie-breaking, NaN handling, ragged
// vocab/hidden tails, and the vector levels' accuracy bound against an
// fp64 argmax.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "model/model_spec.hpp"
#include "quant/qgemm.hpp"
#include "quant/qgemm_kernels.hpp"
#include "runtime/transformer.hpp"

namespace llmpq {
namespace {

// The LM head before gemv_argmax, verbatim: final norm on each span's last
// row, then one dependent-add dot per vocab row and sequence.
std::vector<TokenId> loop_project_and_sample(const ModelWeights& mw,
                                             const Tensor2D& hidden,
                                             std::span<const SeqSpan> spans) {
  const std::size_t h = static_cast<std::size_t>(mw.spec.hidden);
  const std::size_t vocab = static_cast<std::size_t>(mw.spec.vocab);
  const std::size_t seqs = spans.size();
  std::vector<TokenId> out(seqs);
  Tensor2D last(seqs, h);
  std::size_t row_base = 0;
  for (std::size_t s = 0; s < seqs; ++s) {
    const float* src = hidden.row(row_base + spans[s].len - 1);
    std::copy(src, src + h, last.row(s));
    row_base += spans[s].len;
  }
  if (mw.spec.use_rms_norm)
    rms_norm(last, mw.final_gamma);
  else
    layer_norm(last, mw.final_gamma, mw.final_beta);
  for (std::size_t s = 0; s < seqs; ++s) {
    const float* v = last.row(s);
    std::size_t best = 0;
    float best_logit = -1e30f;
    for (std::size_t tok = 0; tok < vocab; ++tok) {
      const float* te = mw.token_embedding.data() + tok * h;
      float logit = 0.0f;
      for (std::size_t c = 0; c < h; ++c) logit += v[c] * te[c];
      if (logit > best_logit) {
        best_logit = logit;
        best = tok;
      }
    }
    out[s] = static_cast<TokenId>(best);
  }
  return out;
}

// Just the head of a model: a random tied embedding (the scale
// build_random_model uses) and an identity final norm.
ModelWeights head_weights(std::int64_t vocab, std::int64_t hidden,
                          std::uint64_t seed) {
  ModelWeights mw;
  mw.spec.name = "lm-head-test";
  mw.spec.hidden = hidden;
  mw.spec.vocab = vocab;
  const auto h = static_cast<std::size_t>(hidden);
  const double scale = 1.0 / std::sqrt(static_cast<double>(hidden));
  Rng rng(seed);
  mw.token_embedding.resize(static_cast<std::size_t>(vocab) * h);
  for (float& v : mw.token_embedding)
    v = static_cast<float>(scale * rng.normal());
  mw.final_gamma.assign(h, 1.0f);
  mw.final_beta.assign(h, 0.0f);
  return mw;
}

// OPT-125m's head (50272 x 768, 154 MB), built once for the suite.
const ModelWeights& opt125m_head() {
  static const ModelWeights mw = [] {
    const ModelSpec& spec = model_registry_get("opt-125m");
    return head_weights(spec.vocab, spec.hidden, 125);
  }();
  return mw;
}

// m ragged spans (lengths 1, 2, 1, 2, ...) over random hidden rows.
struct HeadInput {
  Tensor2D hidden;
  std::vector<SeqSpan> spans;
};

HeadInput head_input(std::size_t m, std::size_t h, std::uint64_t seed) {
  HeadInput in;
  std::size_t rows = 0;
  for (std::size_t s = 0; s < m; ++s) {
    in.spans.push_back(SeqSpan{static_cast<int>(s), 1 + s % 2});
    rows += 1 + s % 2;
  }
  in.hidden = Tensor2D(rows, h);
  Rng rng(seed);
  for (float& v : in.hidden.flat()) v = static_cast<float>(rng.normal());
  return in;
}

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_level_available(l)) out.push_back(l);
  return out;
}

// project_and_sample from inside a pool task, where gemv_argmax takes its
// serial fallback.
std::vector<TokenId> sample_in_worker(const ModelWeights& mw,
                                      const HeadInput& in) {
  return ThreadPool::shared()
      .submit([&] { return project_and_sample(mw, in.hidden, in.spans); })
      .get();
}

TEST(LmHead, ScalarLevelMatchesOriginalLoopExactly) {
  const ScopedSimdLevel pin(SimdLevel::kScalar);
  const ModelWeights small = head_weights(257, 32, 3);
  for (const ModelWeights* mw : {&small, &opt125m_head()}) {
    const auto h = static_cast<std::size_t>(mw->spec.hidden);
    for (std::size_t m : {1u, 4u, 8u}) {
      const HeadInput in = head_input(m, h, 10 + m);
      EXPECT_EQ(project_and_sample(*mw, in.hidden, in.spans),
                loop_project_and_sample(*mw, in.hidden, in.spans))
          << "vocab=" << mw->spec.vocab << " m=" << m;
    }
  }
}

TEST(LmHead, ThreadedEqualsSerialAtEveryLevel) {
  const ModelWeights& mw = opt125m_head();
  for (SimdLevel level : available_levels()) {
    const ScopedSimdLevel pin(level);
    for (std::size_t m : {1u, 4u, 8u}) {
      const HeadInput in = head_input(m, 768, 20 + m);
      EXPECT_EQ(project_and_sample(mw, in.hidden, in.spans),
                sample_in_worker(mw, in))
          << simd_level_name(level) << " m=" << m;
    }
  }
}

TEST(LmHead, TiesGoToLowestIndexAcrossBlocks) {
  // 4099 x 35 at m = 4 is above the parallel threshold, so with a pool the
  // winners below sit in different vocab blocks (and two share one).
  const std::size_t rows = 4099, cols = 35, m = 4;
  Rng rng(5);
  std::vector<float> e(rows * cols);
  for (float& v : e) v = static_cast<float>(0.1 * rng.uniform(-1.0, 1.0));
  for (std::size_t r : {700u, 701u, 2100u, 4098u})
    std::fill(e.begin() + static_cast<std::ptrdiff_t>(r * cols),
              e.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols), 1.0f);
  std::vector<float> x(m * cols);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.5, 1.0));
  for (SimdLevel level : available_levels()) {
    const ScopedSimdLevel pin(level);
    std::vector<std::size_t> best(m), serial(m);
    gemv_argmax(x, m, cols, e, rows, best);
    ThreadPool::shared()
        .submit([&] { gemv_argmax(x, m, cols, e, rows, serial); })
        .get();
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(best[i], 700u) << simd_level_name(level) << " i=" << i;
      EXPECT_EQ(serial[i], 700u) << simd_level_name(level) << " i=" << i;
    }
  }
}

TEST(LmHead, NanLogitsNeverWin) {
  const std::size_t rows = 50, cols = 19;
  std::vector<float> e(rows * cols, 0.01f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t c = 0; c < cols; ++c) {
    e[3 * cols + c] = nan;   // row 3's logit is NaN
    e[41 * cols + c] = 2.0f;  // row 41 is the finite maximum
  }
  std::vector<float> x(2 * cols, 1.0f);
  std::fill(x.begin() + static_cast<std::ptrdiff_t>(cols), x.end(), nan);
  for (SimdLevel level : available_levels()) {
    const ScopedSimdLevel pin(level);
    std::vector<std::size_t> best(2);
    gemv_argmax(x, 2, cols, e, rows, best);
    EXPECT_EQ(best[0], 41u) << simd_level_name(level);
    EXPECT_EQ(best[1], 0u) << simd_level_name(level);  // all NaN: row 0
  }
}

TEST(LmHead, PrimeVocabAndOddHiddenTails) {
  // Neither 4099 rows nor 37 columns divide any block or vector width.
  const ModelWeights mw = head_weights(4099, 37, 7);
  for (std::size_t m : {1u, 4u, 8u}) {
    const HeadInput in = head_input(m, 37, 30 + m);
    const std::vector<TokenId> loop =
        loop_project_and_sample(mw, in.hidden, in.spans);
    {
      const ScopedSimdLevel pin(SimdLevel::kScalar);
      EXPECT_EQ(project_and_sample(mw, in.hidden, in.spans), loop);
    }
    for (SimdLevel level : available_levels()) {
      const ScopedSimdLevel pin(level);
      EXPECT_EQ(project_and_sample(mw, in.hidden, in.spans),
                sample_in_worker(mw, in))
          << simd_level_name(level) << " m=" << m;
    }
  }
}

// At a vector level the dots are reassociated, so the chosen token need
// not be the scalar loop's. Its exact logit must still be within the
// worst-case fp32 dot-product error of the exact maximum: each computed
// logit is off by at most n * u * sum_c |x_c * e_rc| (u = 2^-24), and the
// chosen one beat every other computed logit, hence the factor 2.
TEST(LmHead, DetectedLevelPicksWithinFp32BoundOfFp64Max) {
  const ModelWeights tails = head_weights(4099, 37, 9);
  for (const ModelWeights* mw : {&tails, &opt125m_head()}) {
    const auto h = static_cast<std::size_t>(mw->spec.hidden);
    const auto vocab = static_cast<std::size_t>(mw->spec.vocab);
    const std::size_t m = 4;
    const HeadInput in = head_input(m, h, 40);
    const std::vector<TokenId> toks =
        project_and_sample(*mw, in.hidden, in.spans);
    // The normalized rows the head dots against (same norm code).
    Tensor2D last(m, h);
    std::size_t row = 0;
    for (std::size_t s = 0; s < m; ++s) {
      row += in.spans[s].len;
      const float* src = in.hidden.row(row - 1);
      std::copy(src, src + h, last.row(s));
    }
    layer_norm(last, mw->final_gamma, mw->final_beta);
    const double u = std::ldexp(1.0, -24);
    for (std::size_t s = 0; s < m; ++s) {
      const float* v = last.row(s);
      double best = -std::numeric_limits<double>::infinity(), mag = 0.0,
             chosen = 0.0;
      for (std::size_t r = 0; r < vocab; ++r) {
        const float* er = mw->token_embedding.data() + r * h;
        double dot = 0.0, abs_sum = 0.0;
        for (std::size_t c = 0; c < h; ++c) {
          dot += static_cast<double>(v[c]) * er[c];
          abs_sum += std::fabs(static_cast<double>(v[c]) * er[c]);
        }
        best = std::max(best, dot);
        mag = std::max(mag, abs_sum);
        if (r == static_cast<std::size_t>(toks[s])) chosen = dot;
      }
      EXPECT_GE(chosen, best - 2.0 * static_cast<double>(h) * u * mag)
          << simd_level_name(active_simd_level()) << " vocab=" << vocab
          << " s=" << s;
    }
  }
}

}  // namespace
}  // namespace llmpq
