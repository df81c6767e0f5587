#include "common/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace llmpq {

namespace {

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

double StageStats::utilization() const {
  const double total = busy_s + idle_s;
  return total > 0.0 ? busy_s / total : 0.0;
}

double PhaseStats::tokens_per_s() const {
  return seconds > 0.0 ? static_cast<double>(tokens) / seconds : 0.0;
}

StageStats StageMetrics::snapshot() const {
  StageStats s;
  s.busy_s = ns_to_s(busy_ns_.load(std::memory_order_relaxed));
  s.idle_s = ns_to_s(idle_ns_.load(std::memory_order_relaxed));
  s.qgemm_s = ns_to_s(qgemm_ns_.load(std::memory_order_relaxed));
  s.attn_s = ns_to_s(attn_ns_.load(std::memory_order_relaxed));
  s.attn_positions = attn_positions_.load(std::memory_order_relaxed);
  s.microbatches = microbatches_.load(std::memory_order_relaxed);
  return s;
}

double EngineStats::attn_gflops(std::size_t p) const {
  const StageStats& s = stages[p];
  return s.attn_s > 0.0 ? 4.0 * static_cast<double>(s.attn_positions) *
                              static_cast<double>(head_dim) / s.attn_s * 1e-9
                        : 0.0;
}

PhaseStats PhaseMetrics::snapshot() const {
  PhaseStats s;
  s.tokens = tokens_.load(std::memory_order_relaxed);
  s.seconds = ns_to_s(ns_.load(std::memory_order_relaxed));
  return s;
}

std::string format_engine_stats(const EngineStats& stats) {
  std::ostringstream out;
  Table t({"stage", "busy_ms", "idle_ms", "util", "qgemm_ms", "attn_ms",
           "attn_gflops", "ubatches", "inbox_hw"});
  for (std::size_t p = 0; p < stats.stages.size(); ++p) {
    const StageStats& s = stats.stages[p];
    t.add_row({std::to_string(p), Table::fmt(s.busy_s * 1e3),
               Table::fmt(s.idle_s * 1e3), Table::fmt(s.utilization()),
               Table::fmt(s.qgemm_s * 1e3), Table::fmt(s.attn_s * 1e3),
               Table::fmt(stats.attn_gflops(p)),
               std::to_string(s.microbatches),
               std::to_string(s.inbox_high_water)});
  }
  out << t.to_string();
  out << "prefill: " << stats.prefill.tokens << " tokens in "
      << Table::fmt(stats.prefill.seconds * 1e3) << " ms ("
      << Table::fmt(stats.prefill.tokens_per_s()) << " tok/s)\n";
  out << "decode:  " << stats.decode.tokens << " tokens in "
      << Table::fmt(stats.decode.seconds * 1e3) << " ms ("
      << Table::fmt(stats.decode.tokens_per_s()) << " tok/s)\n";
  out << "lm_head: " << stats.lm_head.tokens << " rows in "
      << Table::fmt(stats.lm_head.seconds * 1e3) << " ms ("
      << Table::fmt(stats.lm_head.tokens > 0
                        ? stats.lm_head.seconds * 1e3 /
                              static_cast<double>(stats.lm_head.tokens)
                        : 0.0)
      << " ms/row)\n";
  out << "generate() calls: " << stats.generate_calls << "\n";
  return out.str();
}

LatencySummary summarize_latency(std::vector<double> seconds) {
  LatencySummary s;
  s.count = seconds.size();
  if (seconds.empty()) return s;
  s.mean_s = mean(seconds);
  s.max_s = *std::max_element(seconds.begin(), seconds.end());
  s.p50_s = percentile(seconds, 50);
  s.p95_s = percentile(seconds, 95);
  s.p99_s = percentile(std::move(seconds), 99);
  return s;
}

std::string format_latency_summary(const LatencySummary& summary) {
  std::ostringstream out;
  out << "n=" << summary.count << " mean=" << Table::fmt(summary.mean_s)
      << "s p50=" << Table::fmt(summary.p50_s) << "s p95="
      << Table::fmt(summary.p95_s) << "s p99=" << Table::fmt(summary.p99_s)
      << "s max=" << Table::fmt(summary.max_s) << "s";
  return out.str();
}

void write_json(JsonWriter& w, const StageStats& s) {
  w.begin_object();
  w.kv("busy_s", s.busy_s);
  w.kv("idle_s", s.idle_s);
  w.kv("qgemm_s", s.qgemm_s);
  w.kv("attn_s", s.attn_s);
  w.kv("attn_positions", s.attn_positions);
  w.kv("utilization", s.utilization());
  w.kv("microbatches", s.microbatches);
  w.kv("inbox_high_water", s.inbox_high_water);
  w.end_object();
}

void write_json(JsonWriter& w, const PhaseStats& s) {
  w.begin_object();
  w.kv("tokens", s.tokens);
  w.kv("seconds", s.seconds);
  w.kv("tokens_per_s", s.tokens_per_s());
  w.end_object();
}

void write_json(JsonWriter& w, const EngineStats& s) {
  w.begin_object();
  w.kv("generate_calls", s.generate_calls);
  w.kv("head_dim", s.head_dim);
  w.key("prefill");
  write_json(w, s.prefill);
  w.key("decode");
  write_json(w, s.decode);
  w.key("lm_head");
  write_json(w, s.lm_head);
  w.key("stages");
  w.begin_array();
  for (const StageStats& st : s.stages) write_json(w, st);
  w.end_array();
  w.end_object();
}

void write_json(JsonWriter& w, const LatencySummary& s) {
  w.begin_object();
  w.kv("count", s.count);
  w.kv("mean_s", s.mean_s);
  w.kv("p50_s", s.p50_s);
  w.kv("p95_s", s.p95_s);
  w.kv("p99_s", s.p99_s);
  w.kv("max_s", s.max_s);
  w.end_object();
}

void MetricsRegistry::set_value(const std::string& name, double value) {
  values_[name] = value;
}

void MetricsRegistry::set_latency(const std::string& name,
                                  const LatencySummary& summary) {
  latencies_[name] = summary;
}

void MetricsRegistry::set_engine(const std::string& name,
                                 const EngineStats& stats) {
  engines_[name] = stats;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", "llmpq-metrics/v1");
  w.key("values");
  w.begin_object();
  for (const auto& [name, v] : values_) w.kv(name, v);
  w.end_object();
  w.key("latencies");
  w.begin_object();
  for (const auto& [name, s] : latencies_) {
    w.key(name);
    llmpq::write_json(w, s);
  }
  w.end_object();
  w.key("engines");
  w.begin_object();
  for (const auto& [name, s] : engines_) {
    w.key(name);
    llmpq::write_json(w, s);
  }
  w.end_object();
  w.end_object();
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    LOG_WARN << "metrics: cannot open " << path << " for writing";
    return false;
  }
  JsonWriter w(os, /*indent=*/1);
  write_json(w);
  os << '\n';
  os.flush();
  if (!os) {
    LOG_WARN << "metrics: short write to " << path;
    return false;
  }
  return true;
}

}  // namespace llmpq
