// llmpq benchmark program: runs llmpq the way a user does and prints the raw
// measurements as one JSON line on stdout (perfbench/run.py derives the
// metrics from it).
//
//   1. assign() plans the model for the workload's shape on the cluster;
//   2. build_random_model() builds the weights at the plan's bits;
//   3. a PipelineEngine is built from the plan's stages and micro-batches
//      and warmed up with one small generate();
//   4. the timed window drives the workload: repeated generate() calls of
//      one fixed batch (mode "offline") or an open-loop request schedule
//      through a live OnlineEngine with continuous batching (mode "serve");
//   5. a fixed sample of outputs is compared with reference_generate();
//   6. with --trace 1, the transformer and qgemm probes run at the shapes
//      the timed window produced, and the spans recorded around every call
//      into the library are written to --trace-out.
//
//   llmpq_perfbench --config perfbench/workloads.json --workload chat
//                   --seed 1 --seconds 32 --trace 0 [--trace-out PATH]
//                   [--setups N]
//
// Steps 1-3 are repeated "setups" times (from the config, or --setups); the
// last engine serves. All times are seconds on the steady clock since main()
// was entered; main_entry_ns is that origin on the raw steady clock, so a
// parent process can add the exec cost before main().
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/assigner.hpp"
#include "hw/cluster.hpp"
#include "model/model_spec.hpp"
#include "quant/qgemm.hpp"
#include "quant/qgemm_kernels.hpp"
#include "runtime/engine.hpp"
#include "runtime/transformer.hpp"
#include "runtime/weights.hpp"
#include "serve/online_engine.hpp"

namespace {

using namespace llmpq;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

// ---- Spans around the calls into the library. Timing is taken in both
// modes (the metrics need it); only recording is conditional, and the time
// spent recording is itself measured so the overhead is visible.

struct SpanRec {
  std::string name;
  int parent = -1;
  int request = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int open(const std::string& name, int parent, int request, double start) {
    if (!on_) return -1;
    const double t0 = now_s();
    spans_.push_back({name, parent, request, start, start});
    record_s_ += now_s() - t0;
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, double end) {
    if (id < 0) return;
    const double t0 = now_s();
    spans_[static_cast<std::size_t>(id)].end_s = end;
    record_s_ += now_s() - t0;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }
  double record_s() const { return record_s_; }

 private:
  bool on_;
  std::vector<SpanRec> spans_;
  double record_s_ = 0.0;
};

/// Times one call into a layer and records it as a span when tracing.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, int parent = -1,
        int request = -1)
      : tracer_(tracer), start_(now_s()),
        id_(tracer.open(name, parent, request, start_)) {}
  ~Scope() { stop(); }
  double stop() {
    if (!stopped_) {
      end_ = now_s();
      tracer_.close(id_, end_);
      stopped_ = true;
    }
    return end_ - start_;
  }
  int id() const { return id_; }
  double start() const { return start_; }

 private:
  Tracer& tracer_;
  double start_;
  int id_;
  double end_ = 0.0;
  bool stopped_ = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<TokenId> random_tokens(Rng& rng, int len, std::int64_t vocab) {
  std::vector<TokenId> p(static_cast<std::size_t>(len));
  for (TokenId& t : p) t = static_cast<TokenId>(rng.uniform_int(0, vocab - 1));
  return p;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  return 0.0;
}

// ---- Configuration: the workload's constants come from the config file
// (perfbench/workloads.json, which records why each has its value); the
// command line picks the workload, seed, window and tracing.

struct Config {
  std::string workload, mode, model, trace_out;
  std::vector<std::string> gpus;
  std::uint64_t seed = 1, weights_seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int setups = 1;
  std::vector<int> probe_bits;
  Workload plan_shape;
  double theta = 0.0;
  // offline
  int batch = 0, prompt_len = 0, gen_tokens = 0;
  std::vector<int> check_rows;
  // serve
  double rate_rps = 0.0;
  int burst = 1, prompt_min = 0, prompt_max = 0, gen_mult_min = 0,
      gen_mult_max = 0, max_batch = 0, check_requests = 0;
};

Config parse(int argc, char** argv) {
  const ArgParser a(argc, argv);
  const std::string path = a.get_or("config", "perfbench/workloads.json");
  std::ifstream in(path);
  if (!in) throw Error("cannot open config " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = parse_json(text.str());
  auto ints = [](const JsonValue& v) {
    std::vector<int> out;
    for (const JsonValue& x : v.array) out.push_back(static_cast<int>(x.number));
    return out;
  };

  Config c;
  c.workload = a.get_or("workload", "");
  c.seed = static_cast<std::uint64_t>(a.get_long("seed", 1));
  c.seconds = a.get_double("seconds", 10.0);
  c.trace = a.get_long("trace", 0) != 0;
  c.trace_out = a.get_or("trace-out", "");
  c.model = root.at("model").string;
  for (const JsonValue& g : root.at("cluster").array) c.gpus.push_back(g.string);
  c.weights_seed = static_cast<std::uint64_t>(root.at("weights_seed").number);
  c.setups = std::max(1, static_cast<int>(a.get_long(
                            "setups", static_cast<long>(root.at("setups").number))));
  c.probe_bits = ints(root.at("probe_bits"));

  const JsonValue& w = root.at("workloads").at(c.workload);
  auto num = [&](const char* key) { return w.at(key).number; };
  c.mode = w.at("mode").string;
  c.theta = num("theta");
  if (c.mode == "offline") {
    c.batch = static_cast<int>(num("batch"));
    c.prompt_len = static_cast<int>(num("prompt_len"));
    c.gen_tokens = static_cast<int>(num("gen_tokens"));
    c.check_rows = ints(w.at("check_rows"));
    c.plan_shape = {c.batch, c.prompt_len, c.gen_tokens};
  } else if (c.mode == "serve") {
    c.rate_rps = num("rate_rps");
    c.burst = std::max(1, static_cast<int>(num("burst")));
    c.prompt_min = static_cast<int>(num("prompt_min"));
    c.prompt_max = static_cast<int>(num("prompt_max"));
    c.gen_mult_min = static_cast<int>(num("gen_mult_min"));
    c.gen_mult_max = static_cast<int>(num("gen_mult_max"));
    c.max_batch = static_cast<int>(num("max_batch"));
    c.check_requests = static_cast<int>(num("check_requests"));
    // Plan for the largest request the schedule can send, at full batch.
    c.plan_shape = {c.max_batch, c.prompt_max, c.prompt_max * c.gen_mult_max};
  } else {
    throw InvalidArgumentError("mode must be offline or serve, got " + c.mode);
  }
  return c;
}

std::string plan_fingerprint(const ExecutionPlan& p) {
  std::ostringstream s;
  s << "bits=";
  for (std::size_t i = 0; i < p.layer_bits.size(); ++i)
    s << (i ? "," : "") << p.layer_bits[i];
  s << " stages=";
  for (int st = 0; st < p.num_stages(); ++st) {
    const auto [b, e] = p.stage_range(st);
    s << (st ? "," : "") << "[" << b << "," << e << ")@dev"
      << p.device_order[static_cast<std::size_t>(st)];
  }
  s << " mb=" << p.prefill_micro_batch << "/" << p.decode_micro_batch;
  return s.str();
}

// ---- Set-up: plan, weights, engine, warm-up.

struct Setup {
  AssignerResult planned;
  std::unique_ptr<ModelWeights> weights;
  std::unique_ptr<PipelineEngine> engine;
  double assign_s = 0, build_s = 0, engine_s = 0, warmup_s = 0;
  double start_s = 0, end_s = 0;
};

std::size_t weight_bytes(const ModelWeights& mw) {
  std::size_t bytes = (mw.token_embedding.size() + mw.pos_embedding.size() +
                       mw.final_gamma.size() + mw.final_beta.size()) *
                      sizeof(float);
  for (const LayerWeights& l : mw.layers) bytes += l.footprint_bytes();
  return bytes;
}

void run_setup(const Config& c, const ModelSpec& spec,
               const ClusterSpec& cluster, Tracer& tr, Setup& s) {
  Scope whole(tr, "setup");
  s.start_s = now_s();
  {
    Scope sc(tr, "core.assign", whole.id());
    CostProvider cost(spec, cluster, CostMode::kFitted);
    cost.set_workload(c.plan_shape);
    AssignerOptions opt;
    opt.theta = c.theta;
    s.planned = assign(cost, opt);
    s.assign_s = sc.stop();
  }
  const ExecutionPlan& plan = s.planned.plan;
  {
    Scope sc(tr, "runtime.build_random_model", whole.id());
    s.weights = std::make_unique<ModelWeights>(build_random_model(
        spec, plan.layer_bits, c.weights_seed, plan.weight_format));
    s.build_s = sc.stop();
  }
  {
    Scope sc(tr, "runtime.engine_ctor", whole.id());
    std::vector<std::pair<int, int>> stages;
    for (int p = 0; p < plan.num_stages(); ++p)
      stages.push_back(plan.stage_range(p));
    s.engine = std::make_unique<PipelineEngine>(*s.weights, stages,
                                                plan.prefill_micro_batch,
                                                plan.decode_micro_batch);
    s.engine_s = sc.stop();
  }
  {
    Scope sc(tr, "runtime.generate(warmup)", whole.id());
    Rng rng(c.weights_seed + 1);
    (void)s.engine->generate({random_tokens(rng, 16, spec.vocab)}, 4);
    s.warmup_s = sc.stop();
  }
  s.end_s = now_s();
}

// ---- Workloads.

struct ServeReq {
  double due_s = 0.0;
  std::vector<TokenId> prompt;
  int gen = 0;
};

/// Open-loop schedule of round(rate * seconds) requests, due in bursts of
/// --burst every burst / rate seconds (arrival times do not depend on
/// completions). Request shapes cycle through every (prompt length, output
/// multiplier) pair, so every seed offers the same load and length mix;
/// the seed decides which request gets which shape and the token content.
std::vector<ServeReq> make_schedule(const Config& c, std::int64_t vocab) {
  Rng rng(c.seed * 0x9E3779B97F4A7C15ull + 17);
  const int n = std::max(1, static_cast<int>(std::lround(c.rate_rps * c.seconds)));
  const int np = c.prompt_max - c.prompt_min + 1;
  const int nm = c.gen_mult_max - c.gen_mult_min + 1;
  std::vector<std::pair<int, int>> shapes;  // (prompt, gen)
  for (int i = 0; i < n; ++i) {
    const int p = c.prompt_min + i % np;
    shapes.emplace_back(p, p * (c.gen_mult_min + (i / np) % nm));
  }
  shuffle(shapes, rng);
  std::vector<ServeReq> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ServeReq& r = out[static_cast<std::size_t>(i)];
    r.due_s = (i / c.burst) * c.burst / c.rate_rps;
    r.prompt = random_tokens(rng, shapes[static_cast<std::size_t>(i)].first, vocab);
    r.gen = shapes[static_cast<std::size_t>(i)].second;
  }
  return out;
}

void write_engine_stats(JsonWriter& w, const EngineStats& a,
                        const EngineStats& b) {
  // Delta b - a: the timed window only.
  w.begin_object();
  w.kv("prefill_tokens", static_cast<std::uint64_t>(b.prefill.tokens - a.prefill.tokens));
  w.kv("prefill_s", b.prefill.seconds - a.prefill.seconds);
  w.kv("decode_tokens", static_cast<std::uint64_t>(b.decode.tokens - a.decode.tokens));
  w.kv("decode_s", b.decode.seconds - a.decode.seconds);
  w.key("stages");
  w.begin_array();
  for (std::size_t p = 0; p < b.stages.size(); ++p) {
    const StageStats& x = b.stages[p];
    const StageStats y = p < a.stages.size() ? a.stages[p] : StageStats{};
    w.begin_object();
    w.kv("busy_s", x.busy_s - y.busy_s);
    w.kv("idle_s", x.idle_s - y.idle_s);
    w.kv("qgemm_s", x.qgemm_s - y.qgemm_s);
    w.kv("attn_s", x.attn_s - y.attn_s);
    w.kv("inbox_hw", static_cast<std::uint64_t>(x.inbox_high_water));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

struct CheckResult {
  int checked = 0;
  int matched = 0;
};

/// Offline: repeated generate() of one fixed batch; a batch starts only if
/// it is expected to end inside the window (at least one always runs).
CheckResult run_offline(const Config& c, const Setup& s, Tracer& tr,
                        JsonWriter& w) {
  const ModelSpec& spec = s.weights->spec;
  Rng rng(c.seed * 0x9E3779B97F4A7C15ull + 5);
  std::vector<std::vector<TokenId>> prompts;
  for (int b = 0; b < c.batch; ++b)
    prompts.push_back(random_tokens(rng, c.prompt_len, spec.vocab));

  PipelineEngine& engine = *s.engine;
  const EngineStats before = engine.stats();
  Scope window(tr, "window");
  std::vector<std::vector<TokenId>> first;
  int batches = 0, differing = 0;
  w.key("batches");
  w.begin_array();
  for (double last = 0.0;
       batches == 0 || now_s() - window.start() + last <= c.seconds;) {
    const EngineStats pre = engine.stats();
    Scope call(tr, "runtime.generate", window.id());
    auto out = engine.generate(prompts, c.gen_tokens);
    last = call.stop();
    const EngineStats post = engine.stats();
    w.begin_object();
    w.kv("latency_s", last);
    w.kv("prefill_s", post.prefill.seconds - pre.prefill.seconds);
    w.end_object();
    if (batches++ == 0)
      first = std::move(out);
    else if (out != first)
      ++differing;
  }
  w.end_array();
  const double window_s = window.stop();
  w.kv("window_s", window_s);
  w.kv("batch", c.batch);
  w.kv("prompt_len", c.prompt_len);
  w.kv("gen_tokens", c.gen_tokens);
  w.kv("batches_differing", differing);
  w.key("engine");
  write_engine_stats(w, before, engine.stats());
  w.kv("kv_bytes", static_cast<std::uint64_t>(engine.kv_footprint_bytes()));
  w.kv("peak_rss_mb", peak_rss_mb());

  // Output check on a fixed sample of rows (rows are independent, so a
  // sub-batch reproduces them exactly).
  CheckResult cr;
  std::vector<std::vector<TokenId>> sample;
  std::vector<int> rows;
  for (int r : c.check_rows)
    if (r >= 0 && r < c.batch) {
      rows.push_back(r);
      sample.push_back(prompts[static_cast<std::size_t>(r)]);
    }
  if (!sample.empty()) {
    Scope sc(tr, "runtime.reference_generate");
    const auto ref = reference_generate(*s.weights, sample, c.gen_tokens);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ++cr.checked;
      cr.matched += ref[i] == first[static_cast<std::size_t>(rows[i])];
    }
  }
  if (differing) cr.checked += differing;  // a drifting batch is a mismatch
  return cr;
}

/// The shapes the timed window ran at, replayed by the probes.
struct RunShapes {
  double decode_rows = 1.0;     // mean decode rows per decode pass
  double decode_context = 1.0;  // mean context of a decoding row
  double prefill_len = 1.0;     // median prompt length of a prefill
  double prefill_m = 1.0;       // median prefill tokens per pass
};

CheckResult run_serve(const Config& c, const Setup& s, Tracer& tr,
                      JsonWriter& w, RunShapes& shapes) {
  const ModelSpec& spec = s.weights->spec;
  const std::vector<ServeReq> sched = make_schedule(c, spec.vocab);
  PipelineEngine& engine = *s.engine;
  const EngineStats before = engine.stats();

  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.exec = DecodeExec::kContinuous;
  opt.scheduler.max_batch = c.max_batch;

  std::vector<double> submit_s(sched.size());
  std::vector<int> ids(sched.size());
  OnlineReport rep;
  Scope window(tr, "window");
  double base = 0.0;
  {
    OnlineEngine online(engine, opt);
    base = now_s();
    for (std::size_t i = 0; i < sched.size(); ++i) {
      std::this_thread::sleep_until(
          kOrigin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(base + sched[i].due_s)));
      Scope sc(tr, "serve.submit", window.id(), static_cast<int>(i));
      submit_s[i] = now_s() - base;
      ids[i] = online.submit(sched[i].prompt, sched[i].gen);
    }
    online.close();
    Scope sc(tr, "serve.wait", window.id());
    rep = online.wait();
  }
  const double done_s = now_s() - base;
  window.stop();

  std::map<int, const RequestStats*> by_id;
  for (const RequestStats& r : rep.requests) by_id[r.id] = &r;
  w.kv("window_s", done_s);
  w.kv("schedule_s", c.seconds);
  w.key("requests");
  w.begin_array();
  for (std::size_t i = 0; i < sched.size(); ++i) {
    w.begin_object();
    w.kv("due_s", sched[i].due_s);
    w.kv("submit_s", submit_s[i]);
    w.kv("prompt_len", static_cast<int>(sched[i].prompt.size()));
    w.kv("gen_tokens", sched[i].gen);
    const auto it = by_id.find(ids[i]);
    if (it == by_id.end()) {
      w.kv("outcome", "missing");
    } else {
      const RequestStats& r = *it->second;
      w.kv("outcome", request_outcome_name(r.outcome));
      w.kv("arrival_s", r.arrival_s);
      w.kv("admit_s", r.admit_s);
      w.kv("prefill_s", r.prefill_s);
      w.kv("finish_s", r.finish_s);
      w.kv("queue_delay_s", r.queue_delay_s);
      w.kv("resume_wait_s", r.resume_wait_s);
      const auto& gen = rep.generated[static_cast<std::size_t>(ids[i])];
      w.kv("generated", static_cast<int>(gen.size()));
    }
    w.end_object();
  }
  w.end_array();

  // Dispatch log summary: the shapes the probes replay. In continuous
  // batching the last num_join rows of a round are joins (prefills).
  std::vector<double> decode_rows, decode_ctx, join_lens, join_tokens;
  double rows_total = 0.0;
  for (const DispatchDecision& d : rep.decisions) {
    rows_total += static_cast<double>(d.request_ids.size());
    const std::size_t dec = d.request_ids.size() - static_cast<std::size_t>(d.num_join);
    if (dec > 0) decode_rows.push_back(static_cast<double>(dec));
    double jt = 0.0;
    for (std::size_t k = 0; k < d.contexts.size(); ++k) {
      if (k < dec) {
        decode_ctx.push_back(d.contexts[k]);
      } else {
        join_lens.push_back(d.contexts[k]);
        jt += d.contexts[k];
      }
    }
    if (jt > 0) join_tokens.push_back(jt);
  }
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  shapes.decode_rows = std::max(1.0, mean(decode_rows));
  shapes.decode_context = std::max(1.0, mean(decode_ctx));
  shapes.prefill_len = std::max(1.0, median(join_lens));
  shapes.prefill_m = std::max(1.0, median(join_tokens));
  w.kv("dispatches", static_cast<int>(rep.decisions.size()));
  w.kv("rows_per_dispatch_mean",
       rep.decisions.empty() ? 0.0 : rows_total / rep.decisions.size());
  w.kv("preemptions", rep.preemptions);
  w.kv("forced_joins", rep.forced_joins);
  w.kv("timed_out", rep.timed_out);
  w.kv("rejected", rep.rejected);
  w.kv("failed", rep.failed);
  w.kv("retries", rep.retries);
  w.kv("engine_restarts", rep.engine_restarts);
  w.key("engine");
  write_engine_stats(w, before, engine.stats());
  w.kv("kv_bytes", static_cast<std::uint64_t>(engine.kv_footprint_bytes()));
  w.kv("peak_rss_mb", peak_rss_mb());

  // Output check: a fixed sample by schedule position (first, last and
  // evenly spaced between).
  std::vector<std::size_t> sample;
  const std::size_t n = sched.size();
  const int k = std::max(1, c.check_requests);
  for (int j = 0; j < k; ++j)
    sample.push_back(k == 1 ? 0 : j * (n - 1) / static_cast<std::size_t>(k - 1));
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  CheckResult cr;
  for (std::size_t i : sample) {
    Scope sc(tr, "runtime.reference_generate", -1, static_cast<int>(i));
    const auto ref =
        reference_generate(*s.weights, {sched[i].prompt}, sched[i].gen);
    ++cr.checked;
    cr.matched += ref[0] == rep.generated[static_cast<std::size_t>(ids[i])];
  }
  return cr;
}

// ---- Probes (traced run only): single calls into the transformer and
// quant layers at the shapes the timed window produced.

template <typename F>
double time_per_call(F&& f, double min_s, int min_reps) {
  int reps = 0;
  const double t0 = now_s();
  double t = t0;
  while (reps < min_reps || t - t0 < min_s) {
    f();
    ++reps;
    t = now_s();
  }
  return (t - t0) / reps;
}

Tensor2D random_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor2D x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t col = 0; col < cols; ++col)
      x.row(r)[col] = static_cast<float>(rng.normal());
  return x;
}

void run_probes(const Config& c, const Setup& s, const RunShapes& shp,
                Tracer& tr, JsonWriter& w) {
  const ModelWeights& mw = *s.weights;
  const ModelSpec& spec = mw.spec;
  const std::size_t h = static_cast<std::size_t>(spec.hidden);
  const ExecutionPlan& plan = s.planned.plan;
  const std::size_t dec_m = static_cast<std::size_t>(std::clamp(
      std::lround(shp.decode_rows), 1L, static_cast<long>(plan.decode_micro_batch)));
  const std::size_t ctx = static_cast<std::size_t>(std::lround(shp.decode_context));
  const std::size_t pre_len = static_cast<std::size_t>(std::lround(shp.prefill_len));
  const std::size_t pre_m = static_cast<std::size_t>(std::lround(shp.prefill_m));
  Rng rng(c.seed + 101);
  Scope all(tr, "probes");

  w.key("probes");
  w.begin_object();
  w.kv("decode_m", static_cast<int>(dec_m));
  w.kv("decode_context", static_cast<int>(ctx));
  w.kv("prefill_len", static_cast<int>(pre_len));
  w.kv("prefill_m", static_cast<int>(pre_m));
  {
    Scope sc(tr, "probe.project_and_sample", all.id());
    const Tensor2D hid = random_tensor(dec_m, h, rng);
    const double t = time_per_call(
        [&] { (void)project_and_sample(mw, hid, dec_m, 1); }, 0.3, 3);
    w.kv("lm_head_ms_per_row", 1e3 * t / static_cast<double>(dec_m));
  }
  {
    Scope sc(tr, "probe.embed", all.id());
    const std::vector<TokenId> toks =
        random_tokens(rng, static_cast<int>(pre_len), spec.vocab);
    const double t = time_per_call(
        [&] { (void)embed(mw, toks, 1, pre_len, 0); }, 0.05, 5);
    w.kv("embed_ms_per_token", 1e3 * t / static_cast<double>(pre_len));
  }
  w.key("layers");
  w.begin_object();
  for (int bits : c.probe_bits) {
    Scope sc(tr, "probe.decoder_layer_forward.b" + std::to_string(bits), all.id());
    Rng lrng(c.weights_seed + 7);
    const LayerWeights lw =
        quantize_layer(spec, random_layer_master(spec, 0, lrng), bits,
                       Rounding::kDeterministic, lrng, plan.weight_format);
    // Prefill: one sequence of the run's prefill length.
    KvCache pcache(1, pre_len, h);
    const Tensor2D px = random_tensor(pre_len, h, rng);
    const double tp = time_per_call(
        [&] {
          Tensor2D x = px;
          pcache.reset();
          decoder_layer_forward(spec, lw, x, pcache, 0, 1, pre_len);
        },
        0.2, 2);
    // Decode: dec_m rows at the run's mean context, one token per step.
    const int steps = 8;
    KvCache dcache(dec_m, ctx + steps, h);
    Tensor2D fill = random_tensor(dec_m * ctx, h, rng);
    decoder_layer_forward(spec, lw, fill, dcache, 0, dec_m, ctx);
    const Tensor2D dx = random_tensor(dec_m, h, rng);
    const double t0 = now_s();
    for (int i = 0; i < steps; ++i) {
      Tensor2D x = dx;
      decoder_layer_forward(spec, lw, x, dcache, 0, dec_m, 1);
    }
    const double td = (now_s() - t0) / steps;
    w.key("b" + std::to_string(bits));
    w.begin_object();
    w.kv("prefill_ms_per_token", 1e3 * tp / static_cast<double>(pre_len));
    w.kv("decode_ms_per_row", 1e3 * td / static_cast<double>(dec_m));
    w.end_object();
  }
  w.end_object();

  // qgemm on the fc1 projection [ffn x hidden]. Bytes moved are computed
  // from tensor sizes (packed weights + fp32 input, output and bias), not
  // measured.
  w.key("qgemm");
  w.begin_object();
  const std::size_t rows = static_cast<std::size_t>(spec.ffn);
  std::vector<float> wf(rows * h), bias(rows);
  for (float& v : wf) v = 0.05f * static_cast<float>(rng.normal());
  for (float& v : bias) v = 0.01f * static_cast<float>(rng.normal());
  for (int bits : c.probe_bits) {
    Scope sc(tr, "probe.qgemm.b" + std::to_string(bits), all.id());
    Rng qrng(3);
    const QuantizedMatrix q = QuantizedMatrix::quantize(
        wf, rows, h, bits, Rounding::kDeterministic, qrng, plan.weight_format);
    w.key("b" + std::to_string(bits));
    w.begin_object();
    for (const auto& [label, m] :
         {std::pair<const char*, std::size_t>{"decode", dec_m}, {"prefill", pre_m}}) {
      std::vector<float> x(m * h), y(m * rows);
      for (float& v : x) v = static_cast<float>(rng.normal());
      const double t = time_per_call([&] { qgemm(x, m, h, q, bias, y); }, 0.15, 3);
      const double flops = 2.0 * static_cast<double>(m * rows * h);
      const double bytes = static_cast<double>(
          q.packed_bytes() + (m * h + m * rows + rows) * sizeof(float));
      w.key(label);
      w.begin_object();
      w.kv("m", static_cast<int>(m));
      w.kv("gflops", flops / t * 1e-9);
      w.kv("gbps", bytes / t * 1e-9);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void write_spans(const Tracer& tr, const std::string& path) {
  std::ofstream out(path);
  JsonWriter w(out);
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (const SpanRec& s : tr.spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("parent", s.parent);
    w.kv("request", s.request);
    w.kv("start_s", s.start_s);
    w.kv("end_s", s.end_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t entry_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          kOrigin.time_since_epoch())
          .count());
  try {
    const Config c = parse(argc, argv);
    const ModelSpec& spec = model_registry_get(c.model);
    std::vector<std::pair<std::string, int>> gpus;
    for (const std::string& g : c.gpus) gpus.emplace_back(g, 1);
    const ClusterSpec cluster = make_cluster("bench", gpus);
    Tracer tr(c.trace);

    std::ostringstream json;
    JsonWriter w(json);
    w.begin_object();
    w.kv("main_entry_ns", entry_ns);
    w.kv("workload", c.workload);
    w.kv("seed", static_cast<std::uint64_t>(c.seed));
    w.key("host");
    w.begin_object();
    w.kv("cpu_model", cpu_model());
    w.kv("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    w.kv("simd", simd_level_name(active_simd_level()));
    w.kv("pool_threads", static_cast<std::uint64_t>(ThreadPool::shared().size()));
    w.kv("build_type", LLMPQ_BENCH_BUILD_TYPE);
    w.end_object();

    // Set-up, repeated; each earlier instance is released before the next
    // is built so peak memory holds one model.
    Setup s;
    std::vector<std::string> plans;
    w.key("setups");
    w.begin_array();
    for (int k = 0; k < c.setups; ++k) {
      s.engine.reset();
      s.weights.reset();
      run_setup(c, spec, cluster, tr, s);
      plans.push_back(plan_fingerprint(s.planned.plan));
      w.begin_object();
      w.kv("start_s", s.start_s);
      w.kv("end_s", s.end_s);
      w.kv("assign_s", s.assign_s);
      w.kv("build_model_s", s.build_s);
      w.kv("engine_s", s.engine_s);
      w.kv("warmup_s", s.warmup_s);
      w.end_object();
    }
    w.end_array();
    const ExecutionPlan& plan = s.planned.plan;
    w.kv("plan", plans.back());
    w.kv("plans_agree", std::all_of(plans.begin(), plans.end(),
                                    [&](const std::string& p) { return p == plans.back(); }));
    w.key("layer_bits");
    w.begin_array();
    for (int b : plan.layer_bits) w.value(b);
    w.end_array();
    w.key("stages");
    w.begin_array();
    for (int p = 0; p < plan.num_stages(); ++p) {
      const auto [b, e] = plan.stage_range(p);
      w.begin_array();
      w.value(b);
      w.value(e);
      w.end_array();
    }
    w.end_array();
    w.kv("prefill_micro_batch", plan.prefill_micro_batch);
    w.kv("decode_micro_batch", plan.decode_micro_batch);
    w.key("assigner");
    w.begin_object();
    w.kv("ilp_nodes", s.planned.stats.ilp_nodes);
    w.kv("combos_tried", s.planned.stats.combos_tried);
    w.kv("solver", s.planned.stats.solver_used);
    w.end_object();
    w.kv("weight_bytes", static_cast<std::uint64_t>(weight_bytes(*s.weights)));

    RunShapes shapes;
    CheckResult cr;
    if (c.mode == "offline") {
      cr = run_offline(c, s, tr, w);
      shapes.decode_rows = plan.decode_micro_batch;
      shapes.decode_context = c.prompt_len + c.gen_tokens / 2.0;
      shapes.prefill_len = c.prompt_len;
      shapes.prefill_m = static_cast<double>(plan.prefill_micro_batch) * c.prompt_len;
    } else {
      cr = run_serve(c, s, tr, w, shapes);
    }
    w.kv("checked", cr.checked);
    w.kv("matched", cr.matched);
    if (c.trace) run_probes(c, s, shapes, tr, w);
    w.kv("trace_spans", static_cast<int>(tr.spans().size()));
    w.kv("trace_record_s", tr.record_s());
    w.end_object();
    if (c.trace && !c.trace_out.empty()) write_spans(tr, c.trace_out);
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llmpq_perfbench: %s\n", e.what());
    return 1;
  }
}
