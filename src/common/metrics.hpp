#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace llmpq {

class JsonWriter;

/// Lightweight runtime observability for the pipeline engine (and any other
/// long-lived worker): lock-free accumulators written by worker threads and
/// plain-value snapshots handed to callers. The shape mirrors what the
/// paper's runtime reports per stage (busy/idle split, queue pressure,
/// per-phase token throughput) and what `sim/` models analytically — so the
/// real threaded runtime and the simulator can be compared on the same
/// quantities.

/// Monotonic nanosecond stopwatch (steady_clock).
class StopwatchNs {
 public:
  StopwatchNs() : start_(std::chrono::steady_clock::now()) {}

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  double elapsed_s() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Snapshot of one pipeline stage's counters (plain values, safe to copy).
struct StageStats {
  double busy_s = 0.0;   ///< wall time inside decoder-layer compute
  double idle_s = 0.0;   ///< wall time blocked on the stage inbox
  double qgemm_s = 0.0;  ///< busy-time share spent in linear (qgemm) ops
  double attn_s = 0.0;   ///< busy-time share spent in attention
  /// Attention work: the sum over query rows of the attended span, times
  /// heads. One position costs 4 * head_dim FLOPs (QK^T and PV).
  std::uint64_t attn_positions = 0;
  std::uint64_t microbatches = 0;    ///< micro-batches processed
  std::size_t inbox_high_water = 0;  ///< max queued micro-batches observed

  /// busy / (busy + idle); 0 when the stage never ran.
  double utilization() const;
};

/// Snapshot of one execution phase (prefill or decode).
struct PhaseStats {
  std::uint64_t tokens = 0;  ///< token positions pushed through the pipeline
  double seconds = 0.0;      ///< wall time spent in this phase

  double tokens_per_s() const;
};

/// Everything `PipelineEngine::stats()` exposes.
struct EngineStats {
  std::vector<StageStats> stages;
  PhaseStats prefill;
  PhaseStats decode;
  /// The master thread's LM head (final norm + tied-embedding argmax):
  /// `tokens` counts the rows it sampled, `seconds` its wall time —
  /// the master's share of each pass, next to the stages' busy time.
  PhaseStats lm_head;
  std::uint64_t generate_calls = 0;  ///< completed generate() calls
  /// The model's attention head width; with StageStats::attn_positions it
  /// gives the stages' attention FLOPs.
  std::size_t head_dim = 0;

  /// Achieved attention GFLOP/s of stage `p` (0 when it spent no time).
  double attn_gflops(std::size_t p) const;
};

/// Per-stage accumulator: written by exactly one worker thread, read
/// concurrently by `stats()`. Relaxed atomics — each counter is independent
/// and snapshots only need eventual per-counter consistency.
class StageMetrics {
 public:
  void add_busy_ns(std::uint64_t ns) { busy_ns_ += ns; }
  void add_idle_ns(std::uint64_t ns) { idle_ns_ += ns; }
  void add_qgemm_ns(std::uint64_t ns) { qgemm_ns_ += ns; }
  void add_attn_ns(std::uint64_t ns) { attn_ns_ += ns; }
  void add_attn_positions(std::uint64_t n) {
    attn_positions_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_microbatch() { ++microbatches_; }

  /// Consistent-enough copy for reporting (inbox high-water is filled in by
  /// the engine, which owns the queues).
  StageStats snapshot() const;

 private:
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> idle_ns_{0};
  std::atomic<std::uint64_t> qgemm_ns_{0};
  std::atomic<std::uint64_t> attn_ns_{0};
  std::atomic<std::uint64_t> attn_positions_{0};
  std::atomic<std::uint64_t> microbatches_{0};
};

/// Per-phase accumulator (tokens + wall time across generate() calls).
/// Relaxed adds: each counter is independent, snapshots only read them.
class PhaseMetrics {
 public:
  void add(std::uint64_t tokens, std::uint64_t ns) {
    tokens_.fetch_add(tokens, std::memory_order_relaxed);
    ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  PhaseStats snapshot() const;

 private:
  std::atomic<std::uint64_t> tokens_{0};
  std::atomic<std::uint64_t> ns_{0};
};

/// Human-readable multi-line report (used by the bench harness and the
/// `llmpq-dist`-style launchers).
std::string format_engine_stats(const EngineStats& stats);

/// Tail-aware summary of a latency-like sample (seconds). Shared by the
/// serving back-ends: the online simulator and the real `OnlineEngine`
/// report request latency / queue delay / prefill time in this shape so
/// the two can be compared side by side. `p99_s` is the tail statistic
/// SLO gates and the serving benches key on — bench rows, metrics
/// snapshots and per-tenant SLO reports all read the same field.
struct LatencySummary {
  std::size_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

LatencySummary summarize_latency(std::vector<double> seconds);

/// One-line rendering:
/// "n=12 mean=0.31s p50=0.25s p95=0.80s p99=1.02s max=1.10s".
std::string format_latency_summary(const LatencySummary& summary);

/// JSON projections of the metric structs (objects with snake_case keys,
/// derived rates included) — the machine-readable counterpart to the
/// format_* renderers above, shared by the metrics registry, the bench
/// artifacts and any launcher that wants to dump stats.
void write_json(JsonWriter& w, const StageStats& s);
void write_json(JsonWriter& w, const PhaseStats& s);
void write_json(JsonWriter& w, const EngineStats& s);
void write_json(JsonWriter& w, const LatencySummary& s);

/// Named collection of metric snapshots exported as one JSON document
/// (schema "llmpq-metrics/v1"): scalar gauges, latency summaries and full
/// engine stats. Plain value type — fill it at report time from the lock-
/// free accumulators above; it does no synchronization of its own.
class MetricsRegistry {
 public:
  void set_value(const std::string& name, double value);
  void set_latency(const std::string& name, const LatencySummary& summary);
  void set_engine(const std::string& name, const EngineStats& stats);

  void write_json(JsonWriter& w) const;
  /// Serializes to `path`; false (with a log line) on I/O failure.
  bool write_json_file(const std::string& path) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, LatencySummary> latencies_;
  std::map<std::string, EngineStats> engines_;
};

}  // namespace llmpq
