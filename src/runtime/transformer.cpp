#include "runtime/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "quant/qgemm.hpp"
#include "runtime/attention.hpp"

namespace llmpq {

namespace {

void apply_norm(const ModelSpec& spec, Tensor2D& x,
                std::span<const float> gamma, std::span<const float> beta) {
  if (spec.use_rms_norm)
    rms_norm(x, gamma);
  else
    layer_norm(x, gamma, beta);
}

float silu(float v) { return v / (1.0f + std::exp(-v)); }

/// Per-thread memo of the inverse-frequency table: the head dimension is
/// constant per model, so after the first layer pass this is a branch and
/// a pointer read instead of dh/2 calls to std::pow per (token, head) —
/// the seed recomputed the pow for every rotated pair, which dominated
/// RoPE models' attention prologue.
const std::vector<float>& rope_inv_freq_cache(std::size_t dh) {
  thread_local std::size_t cached_dh = 0;
  thread_local std::vector<float> table;
  if (cached_dh != dh) {
    table = rope_inv_freqs(dh);
    cached_dh = dh;
  }
  return table;
}

}  // namespace

std::vector<float> rope_inv_freqs(std::size_t dh) {
  const std::size_t half = dh / 2;
  std::vector<float> table(half);
  for (std::size_t i = 0; i < half; ++i)
    table[i] = std::pow(10000.0f, -2.0f * static_cast<float>(i) /
                                      static_cast<float>(dh));
  return table;
}

void apply_rope(float* v, std::size_t dh, std::size_t pos,
                const float* inv_freq) {
  const std::size_t half = dh / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const float angle = static_cast<float>(pos) * inv_freq[i];
    const float c = std::cos(angle), sn = std::sin(angle);
    const float a = v[i], b = v[i + half];
    v[i] = a * c - b * sn;
    v[i + half] = a * sn + b * c;
  }
}

/// Shared layer body for the uniform (KvCache, [batch, max_seq] slots) and
/// ragged (KvCacheManager, per-sequence page tables) paths. `Cache` only
/// needs filled/append/k_at/v_at; per-sequence K/V pointers are gathered
/// once per sequence so the per-head inner loops cost the same for both
/// backends (the paged lookup is a map find, not pointer arithmetic).
template <typename Cache>
void layer_forward_core(const ModelSpec& spec, const LayerWeights& w,
                        Tensor2D& x, Cache& cache,
                        std::span<const SeqSpan> spans,
                        ActivationObserver* observer, int layer_index,
                        StageMetrics* metrics) {
  // Times one qgemm call (or the attention block) into `metrics`; a null
  // metrics pointer compiles down to the plain call.
  StopwatchNs sw;
  auto timed_qgemm = [&](std::span<const float> in, std::size_t m,
                         std::size_t k, const QuantizedMatrix& qw,
                         std::span<const float> bias, std::span<float> out) {
    TRACE_SPAN1("engine", "qgemm", "n", qw.rows());
    if (metrics == nullptr) {
      qgemm(in, m, k, qw, bias, out);
      return;
    }
    sw.restart();
    qgemm(in, m, k, qw, bias, out);
    metrics->add_qgemm_ns(sw.elapsed_ns());
  };

  const std::size_t h = static_cast<std::size_t>(spec.hidden);
  const std::size_t heads = static_cast<std::size_t>(spec.heads);
  const std::size_t dh = h / heads;
  const std::size_t f = static_cast<std::size_t>(spec.ffn);
  std::size_t rows = 0;
  for (const SeqSpan& sp : spans) rows += sp.len;
  check_arg(x.rows() == rows && x.cols() == h,
            "decoder_layer_forward: activation shape mismatch");

  // ---- Self-attention (pre-LN).
  Tensor2D normed = x;
  apply_norm(spec, normed, w.ln1_gamma, w.ln1_beta);
  if (observer != nullptr)
    observer->on_linear_input(layer_index, 0, normed.flat());
  Tensor2D qkv(rows, 3 * h);
  timed_qgemm(normed.flat(), rows, h, w.qkv, w.qkv_bias, qkv.flat());

  // Append K/V to the cache, then attend over everything cached. Each
  // sequence attends only over its own filled positions — a ragged batch
  // has no pad rows, so there is nothing wrong to attend to.
  std::size_t max_ctx = 0, positions = 0, kv_slots = 0;
  for (const SeqSpan& sp : spans) {
    const std::size_t ctx = cache.filled(sp.seq) + sp.len;
    max_ctx = std::max(max_ctx, ctx);
    positions += attended_positions(sp.len, ctx);
    kv_slots += 2 * ctx;
  }
  std::optional<TraceSpan> attn_span;
  attn_span.emplace("engine", "attn", "rows", static_cast<double>(rows),
                    "ctx", static_cast<double>(max_ctx));
  if (metrics != nullptr) sw.restart();
  Tensor2D attn_ctx(rows, h);
  // Per-position K/V pointers: [k of ctx positions, v of ctx positions]
  // per sequence.
  std::vector<const float*> kv_rows(kv_slots);
  std::vector<AttnSeq> seqs(spans.size());
  std::size_t row_base = 0, slot = 0;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const SeqSpan& sp = spans[s];
    const auto sid = sp.seq;
    for (std::size_t t = 0; t < sp.len; ++t) {
      float* qkv_row = qkv.row(row_base + t);
      if (spec.use_rope) {
        const std::size_t pos = cache.filled(sid);  // this token's position
        const float* inv_freq = rope_inv_freq_cache(dh).data();
        for (std::size_t head = 0; head < heads; ++head) {
          apply_rope(qkv_row + head * dh, dh, pos, inv_freq);      // q
          apply_rope(qkv_row + h + head * dh, dh, pos, inv_freq);  // k
        }
      }
      cache.append(sid, qkv_row + h, qkv_row + 2 * h);
    }
    const std::size_t ctx = cache.filled(sid);
    const float** k_rows = kv_rows.data() + slot;
    const float** v_rows = k_rows + ctx;
    for (std::size_t p = 0; p < ctx; ++p) {
      k_rows[p] = cache.k_at(sid, p);
      v_rows[p] = cache.v_at(sid, p);
    }
    seqs[s] = AttnSeq{qkv.flat().data() + row_base * 3 * h,
                      attn_ctx.flat().data() + row_base * h,
                      k_rows,
                      v_rows,
                      sp.len,
                      ctx};
    slot += 2 * ctx;
    row_base += sp.len;
  }
  attend(seqs, heads, dh, 3 * h, h);

  if (metrics != nullptr) {
    metrics->add_attn_ns(sw.elapsed_ns());
    metrics->add_attn_positions(positions * heads);
  }
  attn_span.reset();

  if (observer != nullptr)
    observer->on_linear_input(layer_index, 1, attn_ctx.flat());
  Tensor2D attn_out(rows, h);
  timed_qgemm(attn_ctx.flat(), rows, h, w.out, w.out_bias, attn_out.flat());
  for (std::size_t r = 0; r < rows; ++r) {
    float* xr = x.row(r);
    const float* ar = attn_out.row(r);
    for (std::size_t c = 0; c < h; ++c) xr[c] += ar[c];
  }

  // ---- MLP (pre-LN).
  normed = x;
  apply_norm(spec, normed, w.ln2_gamma, w.ln2_beta);
  if (observer != nullptr)
    observer->on_linear_input(layer_index, 2, normed.flat());
  Tensor2D inter(rows, f);
  timed_qgemm(normed.flat(), rows, h, w.fc1, w.fc1_bias, inter.flat());
  if (spec.gated_mlp) {
    // SwiGLU: down(silu(gate(x)) * up(x)).
    Tensor2D up(rows, f);
    timed_qgemm(normed.flat(), rows, h, w.fc3, w.fc3_bias, up.flat());
    auto gate = inter.flat();
    auto up_flat = up.flat();
    for (std::size_t i = 0; i < gate.size(); ++i)
      gate[i] = silu(gate[i]) * up_flat[i];
  } else {
    relu(inter.flat());
  }
  if (observer != nullptr)
    observer->on_linear_input(layer_index, 3, inter.flat());
  Tensor2D mlp_out(rows, h);
  timed_qgemm(inter.flat(), rows, f, w.fc2, w.fc2_bias, mlp_out.flat());
  for (std::size_t r = 0; r < rows; ++r) {
    float* xr = x.row(r);
    const float* mr = mlp_out.row(r);
    for (std::size_t c = 0; c < h; ++c) xr[c] += mr[c];
  }
}

/// Uniform spans for the legacy [batch_start, seqs, seq_len] calling
/// convention: sequence s maps to cache slot batch_start + s.
std::vector<SeqSpan> uniform_spans(std::size_t batch_start, std::size_t seqs,
                                   std::size_t seq_len) {
  std::vector<SeqSpan> spans(seqs);
  for (std::size_t s = 0; s < seqs; ++s)
    spans[s] = SeqSpan{static_cast<int>(batch_start + s), seq_len};
  return spans;
}

void decoder_layer_forward(const ModelSpec& spec, const LayerWeights& w,
                           Tensor2D& x, KvCache& cache,
                           std::size_t batch_start, std::size_t seqs,
                           std::size_t seq_len, ActivationObserver* observer,
                           int layer_index, StageMetrics* metrics) {
  const std::vector<SeqSpan> spans =
      uniform_spans(batch_start, seqs, seq_len);
  layer_forward_core(spec, w, x, cache, spans, observer, layer_index,
                     metrics);
}

void decoder_layer_forward(const ModelSpec& spec, const LayerWeights& w,
                           Tensor2D& x, KvCacheManager& cache,
                           std::span<const SeqSpan> spans,
                           ActivationObserver* observer, int layer_index,
                           StageMetrics* metrics) {
  layer_forward_core(spec, w, x, cache, spans, observer, layer_index,
                     metrics);
}

Tensor2D embed(const ModelWeights& mw, const std::vector<TokenId>& tokens,
               std::span<const SeqSpan> spans,
               std::span<const std::size_t> pos_offsets) {
  const std::size_t h = static_cast<std::size_t>(mw.spec.hidden);
  check_arg(spans.size() == pos_offsets.size(),
            "embed: spans/pos_offsets size mismatch");
  std::size_t rows = 0;
  for (const SeqSpan& sp : spans) rows += sp.len;
  check_arg(tokens.size() == rows, "embed: token count mismatch");
  Tensor2D x(rows, h);
  std::size_t row = 0;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    for (std::size_t t = 0; t < spans[s].len; ++t, ++row) {
      const TokenId tok = tokens[row];
      check_arg(tok >= 0 && tok < mw.spec.vocab, "embed: token out of range");
      const std::size_t pos = pos_offsets[s] + t;
      check_arg(pos < static_cast<std::size_t>(mw.spec.max_pos),
                "embed: position out of range");
      const float* te =
          mw.token_embedding.data() + static_cast<std::size_t>(tok) * h;
      float* out = x.row(row);
      if (mw.spec.use_rope) {
        // Rotary models carry position inside attention, not the embedding.
        for (std::size_t c = 0; c < h; ++c) out[c] = te[c];
      } else {
        const float* pe = mw.pos_embedding.data() + pos * h;
        for (std::size_t c = 0; c < h; ++c) out[c] = te[c] + pe[c];
      }
    }
  }
  return x;
}

Tensor2D embed(const ModelWeights& mw, const std::vector<TokenId>& tokens,
               std::size_t seqs, std::size_t seq_len,
               std::size_t pos_offset) {
  const std::vector<SeqSpan> spans = uniform_spans(0, seqs, seq_len);
  const std::vector<std::size_t> offsets(seqs, pos_offset);
  return embed(mw, tokens, spans, offsets);
}

std::vector<TokenId> project_and_sample(const ModelWeights& mw,
                                        const Tensor2D& hidden,
                                        std::span<const SeqSpan> spans) {
  const std::size_t h = static_cast<std::size_t>(mw.spec.hidden);
  const std::size_t vocab = static_cast<std::size_t>(mw.spec.vocab);
  const std::size_t seqs = spans.size();
  std::vector<TokenId> out(seqs);
  // Final norm applied to a copy of each span's last row only.
  Tensor2D last(seqs, h);
  std::size_t row_base = 0;
  for (std::size_t s = 0; s < seqs; ++s) {
    check_arg(spans[s].len >= 1, "project_and_sample: empty span");
    const float* src = hidden.row(row_base + spans[s].len - 1);
    std::copy(src, src + h, last.row(s));
    row_base += spans[s].len;
  }
  if (mw.spec.use_rms_norm)
    rms_norm(last, mw.final_gamma);
  else
    layer_norm(last, mw.final_gamma, mw.final_beta);
  std::vector<std::size_t> best(seqs);
  gemv_argmax(last.flat(), seqs, h, mw.token_embedding, vocab, best);
  for (std::size_t s = 0; s < seqs; ++s)
    out[s] = static_cast<TokenId>(best[s]);
  return out;
}

std::vector<TokenId> project_and_sample(const ModelWeights& mw,
                                        const Tensor2D& hidden,
                                        std::size_t seqs,
                                        std::size_t seq_len) {
  return project_and_sample(mw, hidden, uniform_spans(0, seqs, seq_len));
}

std::vector<std::vector<TokenId>> reference_generate(
    const ModelWeights& mw, const std::vector<std::vector<TokenId>>& prompts,
    int gen_tokens) {
  check_arg(!prompts.empty() && gen_tokens >= 1,
            "reference_generate: bad arguments");
  const std::size_t batch = prompts.size();
  const std::size_t prompt_len = prompts.front().size();
  for (const auto& p : prompts)
    check_arg(p.size() == prompt_len,
              "reference_generate: prompts must be padded to equal length");
  const std::size_t max_seq =
      prompt_len + static_cast<std::size_t>(gen_tokens);

  std::vector<KvCache> caches;
  caches.reserve(mw.layers.size());
  for (std::size_t i = 0; i < mw.layers.size(); ++i)
    caches.emplace_back(batch, max_seq,
                        static_cast<std::size_t>(mw.spec.hidden));

  std::vector<std::vector<TokenId>> generated(batch);

  // ---- Prefill.
  std::vector<TokenId> flat;
  flat.reserve(batch * prompt_len);
  for (const auto& p : prompts) flat.insert(flat.end(), p.begin(), p.end());
  Tensor2D x = embed(mw, flat, batch, prompt_len, 0);
  for (std::size_t i = 0; i < mw.layers.size(); ++i)
    decoder_layer_forward(mw.spec, mw.layers[i], x, caches[i], 0, batch,
                          prompt_len);
  std::vector<TokenId> next = project_and_sample(mw, x, batch, prompt_len);
  for (std::size_t b = 0; b < batch; ++b) generated[b].push_back(next[b]);

  // ---- Decode.
  for (int step = 1; step < gen_tokens; ++step) {
    Tensor2D xd =
        embed(mw, next, batch, 1, prompt_len + static_cast<std::size_t>(step) - 1);
    for (std::size_t i = 0; i < mw.layers.size(); ++i)
      decoder_layer_forward(mw.spec, mw.layers[i], xd, caches[i], 0, batch, 1);
    next = project_and_sample(mw, xd, batch, 1);
    for (std::size_t b = 0; b < batch; ++b) generated[b].push_back(next[b]);
  }
  return generated;
}

}  // namespace llmpq
