// Dequant-GEMM microkernel bench: times every available dispatch level
// (scalar / AVX2 / AVX-512) against the scalar reference across the
// bits x format matrix, on a serving-sized decode projection. The
// speedup_vs_scalar numbers are what CI gates (scripts/ci.sh stage_bench
// vs bench/baselines/ext_qgemm_kernels.json) and what calibrated the
// format_kernel_factor table in quant/scheme.cpp — re-run with --json and
// re-bake both when the kernels change.
//
// Kernels are driven directly (qgemm_rows_kernel, single thread) so the
// measurement isolates SIMD gain from thread-pool scaling. The tied LM
// head's argmax kernel (argmax_rows_kernel) is timed the same way at
// OPT-125m's shape, 50272 x 768 at m = 4, and reported as bits 32,
// format "lm_head". The attention row kernel (attend_rows_kernel) is
// timed at OPT-125m's 12 heads x 64 as bits 32, format "attn_prefill"
// (one 512-row causal prefill) and "attn_decode" (4 sequences, one row
// each over 520 cached positions).
//
// Flags:
//   --json PATH   write a "llmpq-kernels/v1" artifact
//   --min_ms N    minimum measured wall time per cell (default 50)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "quant/format.hpp"
#include "quant/qgemm_kernels.hpp"
#include "quant/quantize.hpp"
#include "runtime/attention.hpp"

namespace {

using namespace llmpq;

std::vector<float> random_values(std::size_t n, std::uint64_t seed,
                                 float scale) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = scale * static_cast<float>(rng.normal());
  return v;
}

struct Cell {
  int bits;
  std::string format;
  SimdLevel dispatch;
  double ms_per_call;
  double gflops;
  double speedup_vs_scalar;
};

// Mean wall time of one `pass` (one full kernel call).
template <typename Pass>
double time_ms(const Pass& pass, double min_ms) {
  // Warm up, then grow the repetition count until the batch is long
  // enough to be timer-noise-free.
  pass();
  int reps = 1;
  for (;;) {
    StopwatchNs sw;
    for (int i = 0; i < reps; ++i) pass();
    const double ms = static_cast<double>(sw.elapsed_ns()) / 1e6;
    if (ms >= min_ms || reps >= (1 << 20)) return ms / reps;
    reps = ms <= 0.0 ? reps * 8 : reps * 2;
  }
}

Cell record(int bits, const std::string& format, SimdLevel level, double ms,
            double flop, double scalar_ms) {
  Cell c;
  c.bits = bits;
  c.format = format;
  c.dispatch = level;
  c.ms_per_call = ms;
  c.gflops = flop / (ms * 1e6);
  c.speedup_vs_scalar = scalar_ms / ms;
  std::printf("%5d %12s %8s %10.3f %9.2f %8.2fx\n", bits, format.c_str(),
              simd_level_name(level), ms, c.gflops, c.speedup_vs_scalar);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double min_ms = std::stod(args.get_or("min_ms", "50"));

  // OPT-350m-scale decode projection: micro-batch 4, [3h x h] at h = 768.
  const std::size_t m = 4, k = 768, n = 3 * 768;
  const auto x = random_values(m * k, 1, 1.0f);
  const auto w = random_values(n * k, 2, 0.05f);
  std::vector<float> y(m * n), scratch(k);
  const double flop = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);

  std::vector<SimdLevel> levels;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_level_available(l)) levels.push_back(l);

  std::printf("dequant-GEMM kernels, [%zu x %zu] * W^T[%zu x %zu], "
              "detected %s\n\n",
              m, k, n, k, simd_level_name(detected_simd_level()));
  std::printf("%5s %12s %8s %10s %9s %9s\n", "bits", "format", "dispatch",
              "ms/call", "GFLOP/s", "vs scalar");

  std::vector<Cell> cells;
  for (const QuantFormat format : kQuantFormats) {
    for (const int bits : {3, 4, 8}) {
      Rng rng(3);
      const QuantizedMatrix qw = QuantizedMatrix::quantize(
          w, n, k, bits, Rounding::kDeterministic, rng, format);
      double scalar_ms = 0.0;
      for (const SimdLevel level : levels) {
        const QgemmRowsFn fn = qgemm_rows_kernel(level);
        const double ms = time_ms(
            [&] {
              fn(x.data(), m, k, qw, nullptr, y.data(), 0, n, scratch.data());
            },
            min_ms);
        if (level == SimdLevel::kScalar) scalar_ms = ms;
        cells.push_back(record(bits, quant_format_name(format), level, ms,
                               flop, scalar_ms));
      }
    }
  }

  // The tied LM head: fused GEMV + argmax over the fp32 embedding.
  {
    const std::size_t vocab = 50272, h = 768;
    const auto hx = random_values(m * h, 4, 1.0f);
    const auto e = random_values(vocab * h, 5, 0.036f);
    std::vector<float> best_logit(m);
    std::vector<std::size_t> best_index(m);
    const double head_flop = 2.0 * static_cast<double>(m) *
                             static_cast<double>(vocab) *
                             static_cast<double>(h);
    double scalar_ms = 0.0;
    for (const SimdLevel level : levels) {
      const ArgmaxRowsFn fn = argmax_rows_kernel(level);
      const double ms = time_ms(
          [&] {
            std::fill(best_logit.begin(), best_logit.end(), -1e30f);
            fn(hx.data(), m, h, e.data(), 0, vocab, best_logit.data(),
               best_index.data());
          },
          min_ms);
      if (level == SimdLevel::kScalar) scalar_ms = ms;
      cells.push_back(record(32, "lm_head", level, ms, head_flop, scalar_ms));
    }
  }

  // Causal attention at OPT-125m's head shape, one (sequence, head) call
  // after another on this thread.
  {
    const std::size_t heads = 12, dh = 64, h = heads * dh;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    struct Shape {
      const char* format;
      std::size_t seqs, rows, ctx;
    };
    for (const Shape& sh : {Shape{"attn_prefill", 1, 512, 512},
                            Shape{"attn_decode", 4, 1, 520}}) {
      const auto kv = random_values(sh.seqs * 2 * sh.ctx * h, 6, 1.0f);
      const auto q = random_values(sh.seqs * sh.rows * 3 * h, 7, 1.0f);
      std::vector<float> out(sh.seqs * sh.rows * h);
      std::vector<const float*> rows_kv(sh.seqs * 2 * sh.ctx);
      for (std::size_t i = 0; i < rows_kv.size(); ++i)
        rows_kv[i] = kv.data() + i * h;
      const double attn_flop =
          4.0 * static_cast<double>(sh.seqs * heads * dh) *
          static_cast<double>(attended_positions(sh.rows, sh.ctx));
      double scalar_ms = 0.0;
      for (const SimdLevel level : levels) {
        const AttendRowsFn fn = attend_rows_kernel(level);
        const double ms = time_ms(
            [&] {
              for (std::size_t s = 0; s < sh.seqs; ++s) {
                const float* const* k = rows_kv.data() + s * 2 * sh.ctx;
                for (std::size_t head = 0; head < heads; ++head)
                  fn(q.data() + s * sh.rows * 3 * h + head * dh, 3 * h, k,
                     k + sh.ctx, head * dh, dh, sh.ctx - sh.rows + 1, sh.rows,
                     scale, out.data() + s * sh.rows * h + head * dh, h);
              }
            },
            min_ms);
        if (level == SimdLevel::kScalar) scalar_ms = ms;
        cells.push_back(record(32, sh.format, level, ms, attn_flop, scalar_ms));
      }
    }
  }

  if (const auto json_path = args.get("json")) {
    std::ofstream os(*json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", json_path->c_str());
      return 1;
    }
    JsonWriter jw(os, 1);
    jw.begin_object();
    jw.kv("schema", "llmpq-kernels/v1");
    jw.kv("bench", "ext_qgemm_kernels");
    jw.kv("m", static_cast<std::int64_t>(m));
    jw.kv("n", static_cast<std::int64_t>(n));
    jw.kv("k", static_cast<std::int64_t>(k));
    jw.key("rows");
    jw.begin_array();
    for (const Cell& c : cells) {
      jw.begin_object();
      jw.kv("bits", c.bits);
      jw.kv("format", c.format);
      jw.kv("dispatch", simd_level_name(c.dispatch));
      jw.kv("ms_per_call", c.ms_per_call);
      jw.kv("gflops", c.gflops);
      jw.kv("speedup_vs_scalar", c.speedup_vs_scalar);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    os << "\n";
    std::printf("\nwrote %s\n", json_path->c_str());
  }
  return 0;
}
