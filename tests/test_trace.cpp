// Tests for the observability layer: the JSON writer/reader pair, the
// span/counter tracer (concurrency, ring wrap, disabled-path cost, Chrome
// trace export) and the JSON schemas the CI perf gate consumes
// ("llmpq-bench/v1" via the bench harness, "llmpq-metrics/v1" via
// MetricsRegistry).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "harness.hpp"

// ---- Global allocation counter for the zero-allocation regression test.
// Replacing the global operator new in the test binary counts every heap
// allocation made anywhere in the process; the disabled-tracer test pins
// the TRACE_* fast path at exactly zero of them. Every replaceable form
// (throwing / nothrow / aligned, scalar / array) must be overridden
// together: a partial set lets some allocations reach the default (or
// sanitizer) operator new while their deallocation hits our free(),
// which ASan rightly reports as an alloc-dealloc mismatch.
namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  return posix_memalign(&p, align, size ? size : 1) == 0 ? p : nullptr;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace llmpq;

// A scope guard so a failing ASSERT cannot leak an armed session into the
// next test.
struct SessionGuard {
  explicit SessionGuard(std::size_t capacity = 1 << 12) {
    TraceSession::instance().start(capacity);
  }
  ~SessionGuard() { TraceSession::instance().stop(); }
};

// ---- JsonWriter / parse_json round trips.

TEST(JsonWriter, WritesAndParsesNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "he said \"hi\"\n\ttab");
  w.kv("pi", 3.25);
  w.kv("count", std::int64_t{-7});
  w.kv("big", std::uint64_t{1} << 53);
  w.kv("flag", true);
  w.key("missing");
  w.null();
  w.key("items");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("deep", false);
  w.end_object();
  w.end_array();
  w.end_object();
  ASSERT_TRUE(w.done());

  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").string, "he said \"hi\"\n\ttab");
  EXPECT_DOUBLE_EQ(doc.at("pi").number, 3.25);
  EXPECT_DOUBLE_EQ(doc.at("count").number, -7.0);
  EXPECT_DOUBLE_EQ(doc.at("big").number,
                   static_cast<double>(std::uint64_t{1} << 53));
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_TRUE(doc.at("missing").is_null());
  ASSERT_EQ(doc.at("items").array.size(), 3u);
  EXPECT_EQ(doc.at("items").array[1].string, "two");
  EXPECT_FALSE(doc.at("items").array[2].at("deep").boolean);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  const JsonValue doc = parse_json(os.str());
  ASSERT_EQ(doc.array.size(), 2u);
  EXPECT_TRUE(doc.array[0].is_null());
  EXPECT_TRUE(doc.array[1].is_null());
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), Error);       // value where a key is required
  EXPECT_THROW(w.end_array(), Error);    // mismatched container
  w.kv("k", 1);
  w.end_object();
  EXPECT_THROW(w.value(2), Error);       // second top-level value
}

TEST(ParseJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  const JsonValue v = parse_json(" {\"u\": \"\\u0041\\u00e9\"} ");
  EXPECT_EQ(v.at("u").string, "A\xc3\xa9");
}

// ---- Tracer.

TEST(Trace, ConcurrentSpansExportValidChronologicalTrace) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  SessionGuard session;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      TraceSession::set_thread_name("worker " + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN1("test", "unit-of-work", "i", i);
        TRACE_COUNTER("test", "progress", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  TraceSession::instance().stop();
  EXPECT_EQ(TraceSession::instance().dropped(), 0u);

  // Snapshot: every event present, globally sorted by timestamp.
  const std::vector<TraceEvent> events = TraceSession::instance().snapshot();
  int spans = 0, counters = 0;
  std::uint64_t prev_ts = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.ts_ns, prev_ts);
    prev_ts = e.ts_ns;
    if (e.phase == 'X') ++spans;
    if (e.phase == 'C') ++counters;
  }
  EXPECT_EQ(spans, kThreads * kSpansPerThread);
  EXPECT_EQ(counters, kThreads * kSpansPerThread);

  // Export: parses back as Chrome trace JSON with named runtime threads.
  std::ostringstream os;
  TraceSession::instance().write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.has("traceEvents"));
  int named_threads = 0, exported_spans = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M" && e.at("name").string == "thread_name" &&
        e.at("args").at("name").string.rfind("worker ", 0) == 0)
      ++named_threads;
    if (ph == "X") {
      ++exported_spans;
      EXPECT_EQ(e.at("name").string, "unit-of-work");
      EXPECT_EQ(e.at("cat").string, "test");
      EXPECT_GE(e.at("dur").number, 0.0);
      EXPECT_DOUBLE_EQ(e.at("pid").number, trace_pids::kRuntime);
    }
  }
  EXPECT_EQ(named_threads, kThreads);
  EXPECT_EQ(exported_spans, kThreads * kSpansPerThread);
}

TEST(Trace, DisabledTracerRecordsNothingAndAllocatesNothing) {
  ASSERT_FALSE(TraceSession::enabled());
  // Warm up any lazy statics (session instance, TLS) outside the window.
  { TRACE_SPAN("test", "warmup"); }
  TRACE_COUNTER("test", "warmup", 1);
  TRACE_INSTANT("test", "warmup");

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    TRACE_SPAN1("test", "off", "i", i);
    TRACE_COUNTER("test", "off", i);
    TRACE_INSTANT("test", "off");
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "disabled TRACE_* macros must not allocate";

  SessionGuard session;
  TraceSession::instance().stop();
  EXPECT_TRUE(TraceSession::instance().snapshot().empty())
      << "disabled-path events leaked into the next session";
}

TEST(Trace, FullRingDropsOldestAndCountsDrops) {
  constexpr std::size_t kCapacity = 16;
  constexpr int kEvents = 100;
  SessionGuard session(kCapacity);
  for (int i = 0; i < kEvents; ++i) TRACE_SPAN1("test", "wrap", "i", i);
  TraceSession::instance().stop();

  const std::vector<TraceEvent> events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(TraceSession::instance().dropped(), kEvents - kCapacity);
  // The survivors are the newest events.
  for (const TraceEvent& e : events)
    EXPECT_GE(e.arg_value, static_cast<double>(kEvents - kCapacity));
}

TEST(Trace, ExplicitTimestampEventsCarryVirtualClocks) {
  SessionGuard session;
  TraceSession::instance().set_track_name(trace_pids::kSim, 2, "sim stage 2");
  TraceSession::emit_complete("sim", "decode", /*ts_s=*/1.5, /*dur_s=*/0.25,
                              trace_pids::kSim, 2, "round", 7);
  TraceSession::emit_async('b', "request", "queue", 0.5, /*id=*/42,
                           trace_pids::kServe);
  TraceSession::emit_async('e', "request", "queue", 2.0, /*id=*/42,
                           trace_pids::kServe);
  TraceSession::instance().stop();

  const std::vector<TraceEvent> events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'b');
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].ts_ns, 1'500'000'000u);
  EXPECT_EQ(events[1].dur_ns, 250'000'000u);
  EXPECT_EQ(events[1].pid, trace_pids::kSim);
  EXPECT_EQ(events[2].phase, 'e');

  std::ostringstream os;
  TraceSession::instance().write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  bool saw_track_name = false, saw_begin = false, saw_end = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M" && e.at("name").string == "thread_name" &&
        e.at("args").at("name").string == "sim stage 2")
      saw_track_name = true;
    if (ph == "b" || ph == "e") {
      (ph == "b" ? saw_begin : saw_end) = true;
      EXPECT_EQ(e.at("id").string, "0x2a");  // async ids export as hex
      EXPECT_DOUBLE_EQ(e.at("pid").number, trace_pids::kServe);
    }
    if (ph == "X") {
      EXPECT_DOUBLE_EQ(e.at("ts").number, 1.5e6);  // microseconds
    }
  }
  EXPECT_TRUE(saw_track_name);
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

TEST(Trace, RestartClearsPreviousSession) {
  {
    SessionGuard session;
    TRACE_SPAN("test", "first-session");
  }
  SessionGuard session;
  { TRACE_SPAN1("test", "second-session", "x", 1); }
  TraceSession::instance().stop();
  const std::vector<TraceEvent> events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second-session");
}

// ---- Export schemas consumed by CI.

TEST(BenchJson, ReportRoundTripsThroughSchemaV1) {
  using bench::ClusterReport;
  using bench::SchemeRow;
  ClusterReport report;
  report.cluster_index = 4;
  report.model_name = "opt-30b";
  report.devices = "3xT4-16G + 1xV100-32G";
  SchemeRow ok_row;
  ok_row.scheme = "LLM-PQ";
  ok_row.ok = true;
  ok_row.ppl = 10.5;
  ok_row.latency_s = 12.25;
  ok_row.throughput = 261.2;
  report.rows.push_back(ok_row);
  SchemeRow oom_row;
  oom_row.scheme = "Uniform";
  oom_row.note = "OOM";
  report.rows.push_back(oom_row);

  const std::string path =
      testing::TempDir() + "/llmpq_bench_roundtrip.json";
  ASSERT_TRUE(bench::write_reports_json(path, "unit-test", {report}));

  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  const JsonValue doc = parse_json(buf.str());
  EXPECT_EQ(doc.at("schema").string, "llmpq-bench/v1");
  EXPECT_EQ(doc.at("bench").string, "unit-test");
  ASSERT_EQ(doc.at("clusters").array.size(), 1u);
  const JsonValue& cluster = doc.at("clusters").array[0];
  EXPECT_DOUBLE_EQ(cluster.at("cluster").number, 4.0);
  EXPECT_EQ(cluster.at("model").string, "opt-30b");
  ASSERT_EQ(cluster.at("rows").array.size(), 2u);
  const JsonValue& row = cluster.at("rows").array[0];
  EXPECT_EQ(row.at("scheme").string, "LLM-PQ");
  EXPECT_TRUE(row.at("ok").boolean);
  EXPECT_DOUBLE_EQ(row.at("ppl").number, 10.5);
  EXPECT_DOUBLE_EQ(row.at("latency_s").number, 12.25);
  EXPECT_DOUBLE_EQ(row.at("throughput_tok_s").number, 261.2);
  EXPECT_FALSE(cluster.at("rows").array[1].at("ok").boolean);
  EXPECT_EQ(cluster.at("rows").array[1].at("note").string, "OOM");
}

TEST(MetricsJson, RegistryExportsSchemaV1) {
  MetricsRegistry registry;
  registry.set_value("engine.generated_tok_per_s", 123.5);

  LatencySummary lat;
  lat.count = 3;
  lat.mean_s = 0.5;
  lat.p50_s = 0.4;
  lat.p95_s = 0.9;
  lat.p99_s = 0.97;
  lat.max_s = 1.0;
  registry.set_latency("request", lat);

  EngineStats stats;
  stats.generate_calls = 2;
  stats.prefill.tokens = 128;
  stats.prefill.seconds = 0.25;
  stats.lm_head.tokens = 40;
  stats.lm_head.seconds = 0.125;
  StageStats stage;
  stage.busy_s = 0.75;
  stage.microbatches = 8;
  stats.stages.push_back(stage);
  registry.set_engine("pipeline", stats);

  std::ostringstream os;
  JsonWriter w(os);
  registry.write_json(w);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.at("schema").string, "llmpq-metrics/v1");
  EXPECT_DOUBLE_EQ(
      doc.at("values").at("engine.generated_tok_per_s").number, 123.5);
  EXPECT_DOUBLE_EQ(doc.at("latencies").at("request").at("p95_s").number, 0.9);
  EXPECT_DOUBLE_EQ(doc.at("latencies").at("request").at("p99_s").number,
                   0.97);
  const JsonValue& engine = doc.at("engines").at("pipeline");
  EXPECT_DOUBLE_EQ(engine.at("generate_calls").number, 2.0);
  EXPECT_DOUBLE_EQ(engine.at("prefill").at("tokens").number, 128.0);
  EXPECT_DOUBLE_EQ(engine.at("lm_head").at("tokens").number, 40.0);
  EXPECT_DOUBLE_EQ(engine.at("lm_head").at("seconds").number, 0.125);
  ASSERT_EQ(engine.at("stages").array.size(), 1u);
  EXPECT_DOUBLE_EQ(engine.at("stages").array[0].at("busy_s").number, 0.75);
}

}  // namespace
