#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cost/mem_model.hpp"
#include "runtime/engine.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/microbatch.hpp"
#include "runtime/otf_quantizer.hpp"
#include "runtime/tensor.hpp"
#include "runtime/transformer.hpp"
#include "runtime/weights_io.hpp"

namespace llmpq {
namespace {

ModelSpec tiny_spec(int layers = 6, std::int64_t hidden = 32) {
  ModelSpec m;
  m.name = "tiny-test";
  m.family = "opt";
  m.hidden = hidden;
  m.ffn = 4 * hidden;
  m.heads = 4;
  m.layers = layers;
  m.vocab = 96;
  m.max_pos = 64;
  m.ppl_fp16 = 20.0;
  m.acc_fp16 = 50.0;
  return m;
}

std::vector<std::vector<TokenId>> make_prompts(const ModelSpec& m,
                                               std::size_t batch,
                                               std::size_t len,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<TokenId>> prompts(batch);
  for (auto& p : prompts)
    for (std::size_t t = 0; t < len; ++t)
      p.push_back(static_cast<TokenId>(rng.uniform_int(0, m.vocab - 1)));
  return prompts;
}

TEST(Tensor, LayerNormNormalizesRows) {
  Tensor2D x(2, 8);
  Rng rng(1);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal(3.0, 2.0));
  std::vector<float> gamma(8, 1.0f), beta(8, 0.0f);
  layer_norm(x, gamma, beta);
  for (std::size_t r = 0; r < 2; ++r) {
    float mean = 0, var = 0;
    for (std::size_t c = 0; c < 8; ++c) mean += x.at(r, c);
    mean /= 8;
    for (std::size_t c = 0; c < 8; ++c)
      var += (x.at(r, c) - mean) * (x.at(r, c) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(Tensor, RmsNormNormalizesScale) {
  Tensor2D x(2, 8);
  Rng rng(2);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal(0.5, 3.0));
  std::vector<float> gamma(8, 1.0f);
  Tensor2D orig = x;
  rms_norm(x, gamma);
  for (std::size_t r = 0; r < 2; ++r) {
    float ms = 0;
    for (std::size_t c = 0; c < 8; ++c) ms += x.at(r, c) * x.at(r, c);
    EXPECT_NEAR(ms / 8, 1.0f, 1e-3f);
    // No recentring: signs are preserved.
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(x.at(r, c) >= 0, orig.at(r, c) >= 0);
  }
}

TEST(Tensor, SoftmaxSumsToOne) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f, -1.0f};
  softmax(x);
  float sum = 0;
  for (float v : x) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(x[2], x[1]);
  EXPECT_GT(x[1], x[0]);
}

TEST(KvCacheTest, AppendAndReadBack) {
  KvCache cache(2, 4, 3);
  const float k[3] = {1, 2, 3}, v[3] = {4, 5, 6};
  cache.append(1, k, v);
  EXPECT_EQ(cache.filled(1), 1u);
  EXPECT_EQ(cache.filled(0), 0u);
  EXPECT_FLOAT_EQ(cache.k_at(1, 0)[2], 3.0f);
  EXPECT_FLOAT_EQ(cache.v_at(1, 0)[0], 4.0f);
  EXPECT_EQ(cache.footprint_bytes(), 2u * 4u * 3u * 4u * 2u);
}

TEST(KvCacheTest, OverflowThrows) {
  KvCache cache(1, 1, 2);
  const float kv[2] = {0, 0};
  cache.append(0, kv, kv);
  EXPECT_THROW(cache.append(0, kv, kv), Error);
}

TEST(KvCacheTest, OutOfRangeSequenceIdThrows) {
  // Regression: append/filled used to index filled_[b] before validating
  // b, so an out-of-range sequence id read past the vector instead of
  // throwing.
  KvCache cache(2, 4, 3);
  const float kv[3] = {0, 0, 0};
  EXPECT_THROW(cache.append(2, kv, kv), InvalidArgumentError);
  EXPECT_THROW((void)cache.filled(2), InvalidArgumentError);
  KvCache empty;
  EXPECT_THROW((void)empty.filled(0), InvalidArgumentError);
}

TEST(MicrobatchManagerTest, SlicesCoverBatch) {
  MicrobatchManager mbm(10, 4, 3);
  std::size_t covered = 0;
  for (const auto& s : mbm.prefill_slices()) covered += s.count;
  EXPECT_EQ(covered, 10u);
  EXPECT_EQ(mbm.prefill_slices().size(), 3u);  // 4+4+2
  EXPECT_EQ(mbm.decode_slices().size(), 4u);   // 3+3+3+1
  mbm.begin_phase(3);
  EXPECT_FALSE(mbm.complete_one());
  EXPECT_FALSE(mbm.complete_one());
  EXPECT_TRUE(mbm.complete_one());
  EXPECT_THROW(mbm.complete_one(), Error);
}

TEST(ReferenceGenerate, DeterministicAndCorrectShape) {
  const ModelSpec spec = tiny_spec();
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 99);
  const auto prompts = make_prompts(spec, 3, 8, 5);
  const auto g1 = reference_generate(mw, prompts, 6);
  const auto g2 = reference_generate(mw, prompts, 6);
  ASSERT_EQ(g1.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(g1[b].size(), 6u);
    EXPECT_EQ(g1[b], g2[b]);
    for (TokenId t : g1[b]) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, spec.vocab);
    }
  }
}

TEST(ReferenceGenerate, QuantizationChangesOutputsGracefully) {
  const ModelSpec spec = tiny_spec();
  const std::vector<int> fp(static_cast<std::size_t>(spec.layers), 16);
  std::vector<int> q3(static_cast<std::size_t>(spec.layers), 3);
  const auto prompts = make_prompts(spec, 2, 8, 6);
  const auto g16 = reference_generate(build_random_model(spec, fp, 42),
                                      prompts, 5);
  const auto g3 = reference_generate(build_random_model(spec, q3, 42),
                                     prompts, 5);
  // 3-bit weights are a different (degraded) model; generation still works.
  ASSERT_EQ(g3.size(), 2u);
  EXPECT_EQ(g3[0].size(), 5u);
  (void)g16;
}

// ---- The core runtime contract: the threaded pipeline engine reproduces
// the single-threaded reference bit-for-bit, across stage splits and
// micro-batch sizings (parameterized sweep).
struct EngineCase {
  int stages;
  int prefill_mb;
  int decode_mb;
};

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineEquivalence, MatchesReferenceTokens) {
  const EngineCase c = GetParam();
  const ModelSpec spec = tiny_spec(6, 32);
  std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  // Mixed precision: alternate 8/16/4 to exercise quantized paths.
  for (int i = 0; i < spec.layers; ++i)
    bits[static_cast<std::size_t>(i)] = (i % 3 == 0) ? 8 : (i % 3 == 1 ? 16 : 4);
  const ModelWeights mw = build_random_model(spec, bits, 1234);
  const auto prompts = make_prompts(spec, 6, 10, 7);
  const auto ref = reference_generate(mw, prompts, 8);

  std::vector<std::pair<int, int>> ranges;
  const int per = (spec.layers + c.stages - 1) / c.stages;
  for (int p = 0; p < c.stages; ++p)
    ranges.push_back({std::min(spec.layers, p * per),
                      std::min(spec.layers, (p + 1) * per)});
  PipelineEngine engine(mw, ranges, c.prefill_mb, c.decode_mb);
  const auto got = engine.generate(prompts, 8);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t b = 0; b < ref.size(); ++b) EXPECT_EQ(got[b], ref[b]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Values(EngineCase{1, 6, 6}, EngineCase{1, 2, 3},
                      EngineCase{2, 3, 2}, EngineCase{2, 1, 6},
                      EngineCase{3, 2, 2}, EngineCase{3, 6, 1},
                      EngineCase{4, 2, 3}, EngineCase{6, 1, 1}));

TEST(Engine, ReusableAcrossGenerateCalls) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 5);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);
  const auto prompts = make_prompts(spec, 4, 6, 9);
  const auto a = engine.generate(prompts, 4);
  const auto b = engine.generate(prompts, 4);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Engine, RejectsNonTilingRanges) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 5);
  EXPECT_THROW(PipelineEngine(mw, {{0, 2}, {3, 4}}, 2, 2),
               InvalidArgumentError);
  EXPECT_THROW(PipelineEngine(mw, {{0, 2}}, 2, 2), InvalidArgumentError);
}

TEST(Engine, RejectsBadGenerateArguments) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 5);
  // Non-positive micro-batch sizes are a construction-time error.
  EXPECT_THROW(PipelineEngine(mw, {{0, 2}, {2, 4}}, 0, 2),
               InvalidArgumentError);
  EXPECT_THROW(PipelineEngine(mw, {{0, 2}, {2, 4}}, 2, -1),
               InvalidArgumentError);

  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);
  EXPECT_THROW(engine.generate({}, 4), InvalidArgumentError);
  // Zero-length prompts would otherwise slip through as prompt_len == 0.
  std::vector<std::vector<TokenId>> empty_prompts(3);
  EXPECT_THROW(engine.generate(empty_prompts, 4), InvalidArgumentError);
  const auto prompts = make_prompts(spec, 3, 6, 9);
  EXPECT_THROW(engine.generate(prompts, 0), InvalidArgumentError);
  // The engine stays usable after rejected calls.
  EXPECT_EQ(engine.generate(prompts, 4), reference_generate(mw, prompts, 4));
}

// ---- Exception safety: a throw mid-generate() (master side, while
// micro-batches are in flight) must neither terminate nor hang, and the
// same engine must produce correct tokens afterwards.
TEST(Engine, CallerExceptionMidGenerateRecovers) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 21);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);

  // Slice {0,2} embeds and enters the pipeline; slice {2,4} contains an
  // out-of-range token, so embed() throws with one micro-batch in flight.
  auto prompts = make_prompts(spec, 4, 6, 17);
  prompts[2][3] = static_cast<TokenId>(spec.vocab);
  EXPECT_THROW(engine.generate(prompts, 5), InvalidArgumentError);

  // The pipeline drained: a clean call on the same engine is exact.
  const auto good = make_prompts(spec, 4, 6, 18);
  EXPECT_EQ(engine.generate(good, 5), reference_generate(mw, good, 5));
}

TEST(Engine, CallerExceptionMidDecodeRecovers) {
  // Positions overflow max_pos during a late decode round, long after
  // prefill succeeded — the engine must unwind from deep inside generate().
  const ModelSpec spec = tiny_spec(4, 32);  // max_pos = 64
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 23);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);
  const auto prompts = make_prompts(spec, 4, 8, 19);
  EXPECT_THROW(engine.generate(prompts, 60), InvalidArgumentError);
  EXPECT_EQ(engine.generate(prompts, 6), reference_generate(mw, prompts, 6));
}

TEST(Engine, WorkerExceptionPropagatesAndRecovers) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  ModelWeights mw = build_random_model(spec, bits, 29);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);
  const auto prompts = make_prompts(spec, 4, 6, 31);
  const auto ref = reference_generate(mw, prompts, 5);

  // Wipe stage 1's first layer: decoder_layer_forward now throws inside
  // the worker thread; the poisoned micro-batch must carry the error back
  // to the caller instead of terminating the process.
  const LayerWeights saved = std::move(mw.layers[2]);
  mw.layers[2] = LayerWeights{};
  EXPECT_THROW(engine.generate(prompts, 5), Error);

  // Restore the weights (shared, not copied) — the engine works again.
  mw.layers[2] = saved;
  EXPECT_EQ(engine.generate(prompts, 5), ref);
}

TEST(Engine, ReusableAcrossShapesAndResetsKvCaches) {
  // Repeated generate() calls with different batch/prompt shapes on one
  // persistent engine: caches must re-size or reset correctly every time.
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 37);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);
  const auto a = make_prompts(spec, 4, 6, 41);
  const auto b = make_prompts(spec, 3, 9, 43);
  EXPECT_EQ(engine.generate(a, 4), reference_generate(mw, a, 4));
  EXPECT_EQ(engine.generate(b, 5), reference_generate(mw, b, 5));  // resize
  EXPECT_EQ(engine.generate(b, 5), reference_generate(mw, b, 5));  // reuse
  EXPECT_EQ(engine.generate(a, 4), reference_generate(mw, a, 4));  // back
}

TEST(Engine, StatsReportPerStageAndPerPhaseProgress) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 47);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}}, 2, 2);
  const auto prompts = make_prompts(spec, 4, 6, 53);
  (void)engine.generate(prompts, 5);
  (void)engine.generate(prompts, 5);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.generate_calls, 2u);
  ASSERT_EQ(s.stages.size(), 2u);
  for (const StageStats& st : s.stages) {
    EXPECT_GT(st.busy_s, 0.0);
    EXPECT_GT(st.microbatches, 0u);
    EXPECT_GE(st.utilization(), 0.0);
    EXPECT_LE(st.utilization(), 1.0);
    // The busy split is itemized and cannot exceed the total.
    EXPECT_LE(st.qgemm_s + st.attn_s, st.busy_s + 1e-3);
    // Attended positions x heads, per stage: each of the 4 sequences
    // attends 1 + ... + 6 = 21 positions in prefill and 7 + 8 + 9 + 10
    // = 34 over its 4 decode steps, in each of the stage's 2 layers under
    // each of 4 heads, in each of 2 calls.
    EXPECT_EQ(st.attn_positions, 2u * 4u * (21u + 34u) * 2u * 4u);
  }
  EXPECT_EQ(s.head_dim, 8u);
  EXPECT_GT(s.attn_gflops(0), 0.0);
  // 2 calls x 4 prompts x 6 prompt tokens / x 4 decoded tokens.
  EXPECT_EQ(s.prefill.tokens, 2u * 4u * 6u);
  EXPECT_EQ(s.decode.tokens, 2u * 4u * 4u);
  EXPECT_GT(s.prefill.seconds, 0.0);
  EXPECT_GT(s.decode.tokens_per_s(), 0.0);
  // The master's LM head samples one row per prompt per pass: the
  // prefill's 4 plus 4 decode rounds of 4, per call.
  EXPECT_EQ(s.lm_head.tokens, 2u * 4u * 5u);
  EXPECT_GT(s.lm_head.seconds, 0.0);

  const std::string report = format_engine_stats(s);
  EXPECT_NE(report.find("prefill"), std::string::npos);
  EXPECT_NE(report.find("lm_head: 40 rows"), std::string::npos);
  EXPECT_NE(report.find("attn_gflops"), std::string::npos);
  EXPECT_NE(report.find("generate() calls: 2"), std::string::npos);
}

TEST(KvCacheTest, ResetClearsFillKeepsCapacity) {
  KvCache cache(2, 3, 4);
  std::vector<float> kv(4, 1.0f);
  cache.append(0, kv.data(), kv.data());
  cache.append(1, kv.data(), kv.data());
  cache.reset();
  EXPECT_EQ(cache.filled(0), 0u);
  EXPECT_EQ(cache.filled(1), 0u);
  EXPECT_EQ(cache.max_seq(), 3u);
  cache.append(0, kv.data(), kv.data());  // usable again after reset
  EXPECT_EQ(cache.filled(0), 1u);
}

TEST(WeightsIo, ShardRoundTrips) {
  const ModelSpec spec = tiny_spec(2, 32);
  Rng rng(11);
  const LayerMaster master = random_layer_master(spec, 0, rng);
  const std::string dir = ::testing::TempDir() + "lpq_shards";
  std::filesystem::create_directories(dir);
  save_layer_shard(shard_filename(dir, 0), spec, 0, master);
  const LayerMaster back = load_layer_shard(shard_filename(dir, 0), spec, 0);
  EXPECT_EQ(back.qkv, master.qkv);
  EXPECT_EQ(back.fc2, master.fc2);
  EXPECT_EQ(back.ln2_beta, master.ln2_beta);
  // Wrong layer index must be rejected.
  EXPECT_THROW(load_layer_shard(shard_filename(dir, 0), spec, 1), Error);
}

TEST(WeightsIo, CorruptArraySizeThrowsBeforeAllocating) {
  // A 31-byte shard whose first array header claims 2^31 floats (8 GiB):
  // the reader must compare the claim with the bytes left and throw, not
  // allocate it.
  const std::string path = ::testing::TempDir() + "lpq_corrupt.lpqw";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint32_t version = 1, layer = 0, name_len = 3;
    const std::uint64_t count = 1ull << 31;
    out.write("LPQW", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&layer), sizeof(layer));
    out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    out.write("qkv", 3);
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write("\0\0\0\0", 4);
  }
  try {
    (void)load_layer_shard(path, tiny_spec(2, 32), 0);
    FAIL() << "corrupt shard was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the remaining file"),
              std::string::npos)
        << e.what();
  }
}

TEST(OtfQuantizer, MatchesDirectlyBuiltModel) {
  const ModelSpec spec = tiny_spec(5, 32);
  std::vector<int> bits = {16, 8, 4, 3, 16};
  const std::string dir = ::testing::TempDir() + "lpq_ckpt";
  std::filesystem::create_directories(dir);
  write_random_checkpoint(dir, spec, 77);
  OtfOptions opt;
  opt.seed = 77;
  OtfLoadStats stats;
  const ModelWeights otf =
      otf_load_model(dir, spec, bits, 0, spec.layers, opt, &stats);
  const ModelWeights direct = build_random_model(spec, bits, 77);

  // Identical generations prove identical weights.
  const auto prompts = make_prompts(spec, 3, 6, 3);
  EXPECT_EQ(reference_generate(otf, prompts, 5),
            reference_generate(direct, prompts, 5));
  EXPECT_GT(stats.total_loaded_bytes, 0u);
}

TEST(OtfQuantizer, BoundedPeakDram) {
  const ModelSpec spec = tiny_spec(8, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 4);
  const std::string dir = ::testing::TempDir() + "lpq_ckpt2";
  std::filesystem::create_directories(dir);
  const std::size_t full = write_random_checkpoint(dir, spec, 3);
  OtfOptions opt;
  opt.seed = 3;
  opt.prefetch_depth = 2;
  OtfLoadStats stats;
  (void)otf_load_model(dir, spec, bits, 0, spec.layers, opt, &stats);
  // Peak master-weight DRAM stays at ~(depth+1) of 8 layers (plus bias
  // arrays), far below the whole checkpoint.
  EXPECT_LE(stats.peak_master_bytes, full * 5 / 8);
  EXPECT_GE(stats.peak_master_bytes, full / spec.layers);
}

TEST(OtfQuantizer, PartialRangeLoadsOnlyRequestedLayers) {
  const ModelSpec spec = tiny_spec(6, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 8);
  const std::string dir = ::testing::TempDir() + "lpq_ckpt3";
  std::filesystem::create_directories(dir);
  write_random_checkpoint(dir, spec, 9);
  OtfLoadStats stats;
  const ModelWeights partial =
      otf_load_model(dir, spec, bits, 2, 4, {}, &stats);
  // Only layers [2, 4) hold weights.
  EXPECT_EQ(partial.layers[2].qkv.rows(), 3u * 32u);
  EXPECT_EQ(partial.layers[0].qkv.rows(), 0u);
  EXPECT_EQ(partial.layers[5].qkv.rows(), 0u);
}

ModelSpec tiny_llama(int layers = 5, std::int64_t hidden = 32) {
  ModelSpec m = tiny_spec(layers, hidden);
  m.name = "tiny-llama";
  m.family = "llama";
  m.ffn = 3 * hidden;  // non-4x, as in real LLaMA
  m.gated_mlp = true;
  m.use_rms_norm = true;
  m.use_rope = true;
  return m;
}

TEST(LlamaRuntime, ReferenceGenerationWorks) {
  const ModelSpec spec = tiny_llama();
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights mw = build_random_model(spec, bits, 31);
  const auto prompts = make_prompts(spec, 3, 8, 4);
  const auto g = reference_generate(mw, prompts, 6);
  ASSERT_EQ(g.size(), 3u);
  for (const auto& seq : g) {
    EXPECT_EQ(seq.size(), 6u);
    for (TokenId t : seq) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, spec.vocab);
    }
  }
  // Deterministic.
  EXPECT_EQ(reference_generate(mw, prompts, 6), g);
}

TEST(LlamaRuntime, RopeMakesOutputPositionDependent) {
  // Without RoPE (and without a position table) a 1-token prompt at
  // different positions would be indistinguishable; RoPE must break that.
  ModelSpec spec = tiny_llama();
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights with_rope = build_random_model(spec, bits, 77);
  spec.use_rope = false;
  const ModelWeights no_rope = build_random_model(spec, bits, 77);
  const auto prompts = make_prompts(spec, 2, 8, 9);
  const auto a = reference_generate(with_rope, prompts, 4);
  const auto b = reference_generate(no_rope, prompts, 4);
  // Same weights, different position handling: sequences should diverge.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= a[i] != b[i];
  EXPECT_TRUE(any_diff);
}

TEST(LlamaRuntime, PipelineEngineMatchesReference) {
  const ModelSpec spec = tiny_llama(6, 32);
  std::vector<int> bits(static_cast<std::size_t>(spec.layers), 16);
  for (int i = 0; i < spec.layers; ++i)
    bits[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 8 : 4;
  const ModelWeights mw = build_random_model(spec, bits, 555);
  const auto prompts = make_prompts(spec, 4, 10, 13);
  const auto ref = reference_generate(mw, prompts, 7);
  PipelineEngine engine(mw, {{0, 2}, {2, 4}, {4, 6}}, 2, 2);
  const auto got = engine.generate(prompts, 7);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t b = 0; b < ref.size(); ++b) EXPECT_EQ(got[b], ref[b]);
}

TEST(LlamaRuntime, OtfLoadMatchesDirectBuild) {
  const ModelSpec spec = tiny_llama();
  std::vector<int> bits = {16, 8, 4, 16, 8};
  const std::string dir = ::testing::TempDir() + "lpq_llama_ckpt";
  std::filesystem::create_directories(dir);
  write_random_checkpoint(dir, spec, 91);
  OtfOptions opt;
  opt.seed = 91;
  const ModelWeights otf = otf_load_model(dir, spec, bits, 0, spec.layers, opt);
  const ModelWeights direct = build_random_model(spec, bits, 91);
  const auto prompts = make_prompts(spec, 2, 6, 8);
  EXPECT_EQ(reference_generate(otf, prompts, 4),
            reference_generate(direct, prompts, 4));
}

TEST(OtfQuantizer, StageFailureRecovery) {
  // Paper Sec. 5: module-level shards "improve recovery speed from the
  // possible failure". Simulate a stage crash: rebuild only that stage's
  // layers from the checkpoint and verify generation is unaffected.
  const ModelSpec spec = tiny_spec(6, 32);
  std::vector<int> bits = {8, 8, 16, 16, 4, 4};
  const std::string dir = ::testing::TempDir() + "lpq_recover";
  std::filesystem::create_directories(dir);
  write_random_checkpoint(dir, spec, 55);
  OtfOptions opt;
  opt.seed = 55;
  ModelWeights weights = otf_load_model(dir, spec, bits, 0, spec.layers, opt);
  const auto prompts = make_prompts(spec, 4, 6, 2);
  const auto before = reference_generate(weights, prompts, 5);

  // "Crash" stage 1 (layers 2..4): wipe its weights, then recover via a
  // partial OTF reload of just that range.
  weights.layers[2] = LayerWeights{};
  weights.layers[3] = LayerWeights{};
  OtfLoadStats stats;
  const ModelWeights recovered =
      otf_load_model(dir, spec, bits, 2, 4, opt, &stats);
  weights.layers[2] = recovered.layers[2];
  weights.layers[3] = recovered.layers[3];
  EXPECT_EQ(reference_generate(weights, prompts, 5), before);
  // Recovery touched only the failed stage's shards (2 of 6 layers).
  OtfLoadStats full_stats;
  (void)otf_load_model(dir, spec, bits, 0, spec.layers, opt, &full_stats);
  EXPECT_NEAR(static_cast<double>(stats.total_loaded_bytes),
              static_cast<double>(full_stats.total_loaded_bytes) / 3.0,
              static_cast<double>(full_stats.total_loaded_bytes) * 0.05);
  PipelineEngine engine(weights, {{0, 2}, {2, 4}, {4, 6}}, 2, 2);
  EXPECT_EQ(engine.generate(prompts, 5), before);
}

// ---- Rotary embeddings: the precomputed inverse-frequency table must be
// bit-identical to the inline pow the seed evaluated per (token, head,
// pair) — the hot-path fix is a pure hoist, not a numeric change.
TEST(Rope, InvFreqTableBitIdenticalToInlinePow) {
  for (std::size_t dh : {std::size_t{8}, std::size_t{16}, std::size_t{64}}) {
    const std::vector<float> table = rope_inv_freqs(dh);
    ASSERT_EQ(table.size(), dh / 2);
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_EQ(table[i], std::pow(10000.0f, -2.0f * static_cast<float>(i) /
                                                 static_cast<float>(dh)))
          << "dh=" << dh << " i=" << i;
    }
  }
}

TEST(Rope, ApplyMatchesLegacyInlineComputationExactly) {
  const std::size_t dh = 16;
  Rng rng(21);
  std::vector<float> v(dh), legacy(dh);
  for (std::size_t i = 0; i < dh; ++i) v[i] = static_cast<float>(rng.normal());
  for (std::size_t pos : {std::size_t{0}, std::size_t{1}, std::size_t{63}}) {
    legacy = v;
    // The seed's per-pair computation, verbatim.
    const std::size_t half = dh / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const float freq = std::pow(
          10000.0f, -2.0f * static_cast<float>(i) / static_cast<float>(dh));
      const float angle = static_cast<float>(pos) * freq;
      const float c = std::cos(angle), sn = std::sin(angle);
      const float a = legacy[i], b = legacy[i + half];
      legacy[i] = a * c - b * sn;
      legacy[i + half] = a * sn + b * c;
    }
    std::vector<float> got = v;
    apply_rope(got.data(), dh, pos, rope_inv_freqs(dh).data());
    for (std::size_t i = 0; i < dh; ++i) EXPECT_EQ(got[i], legacy[i]) << i;
  }
}

// ---- Group-wise formats through the runtime: the packed bytes the model
// actually holds must equal the planner's formula (the satellite-1
// regression: the seed under-charged scale bytes), and the quantized
// pipeline must still generate deterministically.
TEST(Weights, GroupFormatBytesReconcileWithPlannerExactly) {
  const ModelSpec spec = tiny_spec(3, 32);
  for (QuantFormat format : kQuantFormats) {
    for (int bits : {3, 4, 8}) {
      const std::vector<int> all_bits(static_cast<std::size_t>(spec.layers),
                                      bits);
      const ModelWeights mw = build_random_model(spec, all_bits, 5, format);
      for (const LayerWeights& lw : mw.layers) {
        EXPECT_EQ(lw.format, format);
        const std::int64_t packed = static_cast<std::int64_t>(
            lw.qkv.packed_bytes() + lw.out.packed_bytes() +
            lw.fc1.packed_bytes() + lw.fc2.packed_bytes() +
            lw.fc3.packed_bytes());
        EXPECT_EQ(packed, layer_quantized_weight_bytes(spec, bits, format))
            << quant_format_name(format) << " bits=" << bits;
      }
    }
  }
}

TEST(Weights, GroupFormatServesSameMastersAndGenerates) {
  const ModelSpec spec = tiny_spec(4, 32);
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 4);
  const ModelWeights g32 =
      build_random_model(spec, bits, 9, QuantFormat::kGroup32);
  const auto prompts = make_prompts(spec, 2, 5, 17);
  // Deterministic: same build, same generation.
  const auto out1 = reference_generate(g32, prompts, 4);
  const auto out2 = reference_generate(
      build_random_model(spec, bits, 9, QuantFormat::kGroup32), prompts, 4);
  EXPECT_EQ(out1, out2);
  // Same masters requantized: at 16 bits the format is moot, so builds
  // under different formats are identical (the degrade-ladder property).
  const std::vector<int> fp(static_cast<std::size_t>(spec.layers), 16);
  const ModelWeights a = build_random_model(spec, fp, 9);
  const ModelWeights b =
      build_random_model(spec, fp, 9, QuantFormat::kGroup64);
  EXPECT_EQ(reference_generate(a, prompts, 4), reference_generate(b, prompts, 4));
  // And the threaded engine reproduces the group-format reference exactly.
  PipelineEngine engine(g32, {{0, 2}, {2, 4}}, 1, 1);
  EXPECT_EQ(engine.generate(prompts, 4), out1);
}

TEST(OtfQuantizer, GroupFormatMatchesDirectlyBuiltModel) {
  const ModelSpec spec = tiny_spec(3, 32);
  const std::vector<int> bits = {8, 4, 3};
  const std::string dir = ::testing::TempDir() + "lpq_ckpt_group";
  std::filesystem::create_directories(dir);
  write_random_checkpoint(dir, spec, 31);
  OtfOptions opt;
  opt.seed = 31;
  opt.format = QuantFormat::kGroup64;
  const ModelWeights otf = otf_load_model(dir, spec, bits, 0, spec.layers, opt);
  for (const LayerWeights& lw : otf.layers)
    EXPECT_EQ(lw.format, QuantFormat::kGroup64);
  const ModelWeights direct =
      build_random_model(spec, bits, 31, QuantFormat::kGroup64);
  const auto prompts = make_prompts(spec, 2, 5, 7);
  EXPECT_EQ(reference_generate(otf, prompts, 4),
            reference_generate(direct, prompts, 4));
}

}  // namespace
}  // namespace llmpq
