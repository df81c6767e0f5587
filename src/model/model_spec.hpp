#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace llmpq {

/// Index into a model's vocabulary.
using TokenId = std::int32_t;

/// One linear operator inside a decoder layer (the unit the variance
/// indicator reasons about: D_W is the weight's row dimension).
struct LinearOp {
  std::string name;      ///< "qkv", "out", "fc1", "fc2"
  std::int64_t in_dim;   ///< columns of W (input features)
  std::int64_t out_dim;  ///< rows of W (output features)

  std::int64_t weight_params() const { return in_dim * out_dim; }
};

/// Architecture metadata for a decoder-only transformer. Everything the
/// planner needs is derivable from these numbers; no checkpoint is loaded.
struct ModelSpec {
  std::string name;          ///< e.g. "opt-30b"
  std::string family;        ///< "opt" or "bloom"
  std::int64_t hidden = 0;   ///< h1: model (hidden) dimension
  std::int64_t ffn = 0;      ///< h2: MLP intermediate dimension
  std::int64_t heads = 0;    ///< attention heads
  int layers = 0;            ///< number of decoder layers
  std::int64_t vocab = 0;    ///< vocabulary size
  std::int64_t max_pos = 0;  ///< maximum position embeddings
  /// LLaMA-style gated MLP (SwiGLU): three MLP projections instead of two.
  bool gated_mlp = false;
  /// LLaMA-style normalization (RMSNorm instead of LayerNorm).
  bool use_rms_norm = false;
  /// Rotary position embeddings instead of a learned position table.
  bool use_rope = false;

  // Reference model quality at FP16, used by the synthetic quality model
  // (`quant/quality`): average perplexity over WikiText2/PTB/C4 and average
  // zero-shot accuracy over LAMBADA/ARC/PIQA as the paper reports them.
  double ppl_fp16 = 0.0;
  double acc_fp16 = 0.0;

  /// Head dimension (hidden / heads).
  std::int64_t head_dim() const { return hidden / heads; }

  /// The linear operators of one decoder layer (four for OPT/BLOOM-style
  /// MLPs, five for LLaMA-style gated MLPs).
  std::vector<LinearOp> layer_linear_ops() const;

  /// Weight parameters in one decoder layer (linears + layer norms + biases).
  std::int64_t layer_params() const;

  /// Parameters of the embedding (token + positional) and final norm; the
  /// LM head is weight-tied with the token embedding as in OPT/BLOOM.
  std::int64_t embedding_params() const;

  /// Total parameters of the full model.
  std::int64_t total_params() const;
};

/// Looks up a model by canonical name ("opt-13b", "bloom-176b", ...).
/// Throws InvalidArgumentError for unknown names.
const ModelSpec& model_registry_get(const std::string& name);

/// All registered model names in registration order.
std::vector<std::string> model_registry_names();

}  // namespace llmpq
