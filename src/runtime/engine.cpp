#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/mpmc_queue.hpp"
#include "common/trace.hpp"
#include "runtime/kv_cache_manager.hpp"

namespace llmpq {

namespace {

using Clock = std::chrono::steady_clock;

/// One micro-batch travelling down the pipeline. `spans` names the cache
/// sequences the rows belong to (ragged: spans may have different lengths);
/// `batch_start` is the first row's index within the pass's session list,
/// which is what the master's in-flight accounting and lost-row reporting
/// key on. A message that hit an exception inside a stage carries the
/// error instead of valid activations; downstream stages forward it
/// untouched so the accounting stays exact and the pipeline never wedges.
struct StageMsg {
  std::size_t batch_start = 0;
  std::size_t seqs = 0;
  bool decode = false;  ///< decode round (one token per span)
  std::vector<SeqSpan> spans;
  Tensor2D acts;
  std::exception_ptr error;
};

Clock::time_point deadline_from(const GenerateOptions& options,
                                Clock::time_point start) {
  if (!std::isfinite(options.deadline_s)) return Clock::time_point::max();
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         options.deadline_s < 0.0 ? 0.0 : options.deadline_s));
}

}  // namespace

struct PipelineEngine::Impl {
  const ModelWeights& weights;
  std::vector<std::pair<int, int>> stages;  ///< non-empty ranges only
  std::vector<std::string> stage_sites;     ///< "stage.<p>.layer" fault sites
  int prefill_mb;
  int decode_mb;

  // Mailboxes live as long as the engine; they are closed exactly once, in
  // shutdown(). Stage p owns (pops) inboxes[p]; the master owns the outbox.
  std::vector<std::unique_ptr<MpmcQueue<StageMsg>>> inboxes;
  std::unique_ptr<MpmcQueue<StageMsg>> outbox;

  // Per stage, per local layer: paged KV pools. Sequences are session ids;
  // the pools are unbounded because plan feasibility was already gated by
  // the planner's memory model, and preemption is the serving layer's
  // decision (preempt_session).
  std::vector<std::vector<KvCacheManager>> kv;

  /// Master-side session table. `tokens` is prompt + committed sampled
  /// tokens; `committed` counts KV positions present in every manager.
  /// Invariant after a successful prefill/decode pass:
  /// tokens.size() == committed + 1 (the last token is sampled but not yet
  /// fed back).
  struct Session {
    std::vector<TokenId> tokens;
    std::size_t committed = 0;
  };
  std::unordered_map<int, Session> sessions;
  int next_session = 1;

  // KV mutations that must wait for restart(): while the engine is broken,
  // stranded workers may still be touching the caches, so truncation
  // (rollback of a half-appended pass) and page frees are queued here and
  // applied after the workers are joined.
  std::vector<std::pair<int, std::size_t>> deferred_truncate;
  std::vector<int> deferred_free;

  // Observability (written by workers, read by stats()).
  std::vector<std::unique_ptr<StageMetrics>> stage_metrics;
  PhaseMetrics prefill_metrics;
  PhaseMetrics decode_metrics;
  PhaseMetrics lm_head_metrics;  ///< master-thread project_and_sample
  std::atomic<std::uint64_t> generate_calls{0};

  // Workers are started last in the constructor and joined in shutdown();
  // the Impl destructor is the RAII joiner, so no exception path can leak a
  // running std::thread (whose destructor would std::terminate).
  std::vector<std::thread> workers;

  // Broken = an abort (deadline/cancel) or failed drain left micro-batches
  // stranded inside the pipeline; every generate() is rejected until
  // restart() rebuilds the workers and mailboxes. `failure` describes the
  // most recent failed call for callers that re-enqueue lost work.
  std::atomic<bool> broken{false};
  mutable std::mutex failure_mu;
  EngineFailureInfo failure;

  Impl(const ModelWeights& w, std::vector<std::pair<int, int>> ranges,
       int pre_mb, int dec_mb)
      : weights(w),
        prefill_mb(pre_mb),
        decode_mb(dec_mb),
        outbox(std::make_unique<MpmcQueue<StageMsg>>(64)) {
    check_arg(pre_mb >= 1 && dec_mb >= 1,
              "PipelineEngine: micro-batch sizes must be >= 1");
    for (const auto& r : ranges) {
      check_arg(r.first >= 0 && r.second <= w.spec.layers &&
                    r.first <= r.second,
                "PipelineEngine: bad stage range");
      if (r.first < r.second) stages.push_back(r);
    }
    check_arg(!stages.empty(), "PipelineEngine: no layers assigned");
    int covered = 0;
    for (std::size_t p = 0; p < stages.size(); ++p) {
      check_arg(stages[p].first == covered,
                "PipelineEngine: stage ranges must tile the model");
      covered = stages[p].second;
    }
    check_arg(covered == w.spec.layers,
              "PipelineEngine: stage ranges must cover the model");
    const std::size_t hidden = static_cast<std::size_t>(w.spec.hidden);
    kv.resize(stages.size());
    for (std::size_t p = 0; p < stages.size(); ++p) {
      inboxes.push_back(std::make_unique<MpmcQueue<StageMsg>>(64));
      stage_metrics.push_back(std::make_unique<StageMetrics>());
      // Per-stage straggler site, evaluated once per layer per micro-batch:
      // a slow rule on "stage.<p>.layer" drags stage p in proportion to its
      // layer count, so migrating layers off the stage measurably helps.
      stage_sites.push_back("stage." + std::to_string(p) + ".layer");
      const int layers = stages[p].second - stages[p].first;
      for (int l = 0; l < layers; ++l) kv[p].emplace_back(hidden);
    }
    // Everything the workers touch is in place; start them last so a
    // constructor failure above never leaves a thread running.
    launch_workers();
  }

  ~Impl() { shutdown(); }

  void launch_workers() {
    workers.reserve(stages.size());
    for (std::size_t p = 0; p < stages.size(); ++p)
      workers.emplace_back([this, p] { stage_loop(p); });
  }

  /// Closes every mailbox and joins the workers. Idempotent.
  void shutdown() noexcept {
    for (auto& inbox : inboxes) inbox->close();
    outbox->close();
    for (auto& t : workers)
      if (t.joinable()) t.join();
  }

  // ---- Session/KV plumbing (master thread only; the workers never touch
  // the session table, only the managers through in-flight messages).

  void throw_if_broken() const {
    if (broken.load(std::memory_order_acquire))
      throw Error(
          "PipelineEngine::generate: engine is broken after a fault; "
          "restart() required");
  }

  Session& session_at(int id) {
    auto it = sessions.find(id);
    check_arg(it != sessions.end(), "PipelineEngine: unknown session id");
    return it->second;
  }
  const Session& session_at(int id) const {
    auto it = sessions.find(id);
    check_arg(it != sessions.end(), "PipelineEngine: unknown session id");
    return it->second;
  }

  int create_session(std::vector<TokenId> prompt) {
    const int id = next_session++;
    for (auto& stage : kv)
      for (KvCacheManager& m : stage) m.begin_seq(id);
    Session s;
    s.tokens = std::move(prompt);
    sessions.emplace(id, std::move(s));
    return id;
  }

  void reserve_session(int id, std::size_t target_len) {
    for (auto& stage : kv)
      for (KvCacheManager& m : stage) m.reserve(id, target_len);
  }

  void free_session_pages(int id) {
    for (auto& stage : kv)
      for (KvCacheManager& m : stage)
        if (m.has_seq(id)) m.free_seq(id);
  }

  void truncate_session(int id, std::size_t len) {
    for (auto& stage : kv)
      for (KvCacheManager& m : stage)
        if (m.has_seq(id) && m.filled(id) > len) m.truncate(id, len);
  }

  /// Erases the session entry now; frees (or defers freeing) its pages.
  void release_session(int id) {
    sessions.erase(id);
    if (broken.load(std::memory_order_acquire))
      deferred_free.push_back(id);
    else
      free_session_pages(id);
  }

  /// Applies rollbacks/frees queued while the engine was broken. Only safe
  /// with the workers joined (restart() calls this after shutdown()).
  void apply_deferred() {
    for (const auto& [id, len] : deferred_truncate) truncate_session(id, len);
    deferred_truncate.clear();
    for (int id : deferred_free) free_session_pages(id);
    deferred_free.clear();
  }

  std::vector<TokenId> run_pass(const std::vector<int>& ids,
                                bool decode_phase,
                                Clock::time_point deadline_tp,
                                const CancelToken& cancel);

  void stage_loop(std::size_t p) {
    auto& inbox = *inboxes[p];
    StageMetrics& metrics = *stage_metrics[p];
    const auto [begin, end] = stages[p];
    for (;;) {
      StopwatchNs idle;
      std::optional<StageMsg> msg;
      {
        // The mailbox wait is its own span so pipeline bubbles are visible
        // on the stage track (long waits between requests included).
        TRACE_SPAN("engine", "wait");
        msg = inbox.pop();
      }
      if (!msg) break;  // inbox closed and drained: engine shutting down
      metrics.add_idle_ns(idle.elapsed_ns());
      StageMsg m = std::move(*msg);
      if (TraceSession::enabled())
        TraceSession::set_thread_name("stage " + std::to_string(p));
      if (!m.error) {
        TRACE_SPAN1("engine",
                    m.decode ? "decode-microbatch" : "prefill-microbatch",
                    "seqs", m.seqs);
        StopwatchNs busy;
        try {
          FAULT_POINT("stage.work");
          for (int layer = begin; layer < end; ++layer) {
            FAULT_POINT(stage_sites[p].c_str());
            decoder_layer_forward(
                weights.spec, weights.layers[static_cast<std::size_t>(layer)],
                m.acts, kv[p][static_cast<std::size_t>(layer - begin)],
                m.spans, /*observer=*/nullptr,
                /*layer_index=*/layer, &metrics);
          }
        } catch (...) {
          // Poison the message instead of letting the exception escape the
          // thread (which would std::terminate). The master rethrows it.
          m.error = std::current_exception();
        }
        metrics.add_busy_ns(busy.elapsed_ns());
        metrics.add_microbatch();
      }
      // Chaos site for lost messages: a drop rule silently swallows the
      // micro-batch (the master's deadline is the only way out — exactly
      // the failure a flaky interconnect produces). The check runs inside
      // its own try so a throw/alloc_fail rule on this site poisons the
      // message instead of escaping the worker thread (std::terminate).
      bool dropped = false;
      try {
        dropped = FAULT_DROP("engine.mailbox");
      } catch (...) {
        m.error = std::current_exception();
      }
      if (dropped) continue;
      // A failed push means the next mailbox was closed mid-shutdown;
      // dropping the message is correct then — the master is gone.
      if (p + 1 < stages.size())
        (void)inboxes[p + 1]->push(std::move(m));
      else
        (void)outbox->push(std::move(m));
    }
  }
};

/// One ragged pass (prefill: each session's pending tokens; decode: one
/// token per session) through the pipeline. Returns one sampled token per
/// session in `ids` order and commits it (tokens/committed advance) only
/// after every micro-batch came back clean. On failure, every
/// participating session's KV is truncated back to its committed length —
/// immediately when the pipeline drained (engine stays healthy), deferred
/// to restart() when it did not.
std::vector<TokenId> PipelineEngine::Impl::run_pass(
    const std::vector<int>& ids, bool decode_phase,
    Clock::time_point deadline_tp, const CancelToken& cancel) {
  // Poll granularity for the deadline/cancel checks in pop_msg; with no
  // deadline and no cancel token armed we still use it so a cancel issued
  // mid-wait is observed promptly.
  constexpr std::chrono::milliseconds kPoll{20};

  // Exact in-flight accounting: every micro-batch pushed into the pipeline
  // comes back on the outbox exactly once (worker exceptions travel as
  // poisoned messages), so on any failure we can drain to a clean state and
  // keep the engine usable. `pending` mirrors in_flight at slice
  // granularity so a failure can report exactly which rows were lost.
  std::size_t in_flight = 0;
  std::vector<std::pair<std::size_t, std::size_t>> pending;  // (start, count)

  auto record_failure = [&](const std::string& what, bool needs_restart) {
    EngineFailureInfo info;
    info.failed = true;
    info.needs_restart = needs_restart;
    info.what = what;
    for (const auto& [s, n] : pending)
      for (std::size_t r = 0; r < n; ++r)
        info.lost_rows.push_back(static_cast<int>(s + r));
    std::sort(info.lost_rows.begin(), info.lost_rows.end());
    std::lock_guard<std::mutex> lock(failure_mu);
    failure = std::move(info);
  };
  auto mark_broken = [&](const std::string& what) {
    record_failure(what, /*needs_restart=*/true);
    broken.store(true, std::memory_order_release);
    TRACE_INSTANT("engine", "broken");
  };
  auto rollback = [&](bool immediate) {
    for (int id : ids) {
      auto it = sessions.find(id);
      if (it == sessions.end()) continue;
      if (immediate)
        truncate_session(id, it->second.committed);
      else
        deferred_truncate.emplace_back(id, it->second.committed);
    }
  };

  auto push_msg = [&](StageMsg msg) {
    const std::pair<std::size_t, std::size_t> slice{msg.batch_start, msg.seqs};
    if (!inboxes.front()->push(std::move(msg)))
      throw Error("PipelineEngine: pipeline is shut down (mailbox closed)");
    pending.push_back(slice);
    ++in_flight;
  };
  auto pop_msg = [&]() -> StageMsg {
    for (;;) {
      if (cancel.cancelled()) {
        mark_broken("PipelineEngine: generate cancelled");
        throw PipelineAbortError("PipelineEngine: generate cancelled",
                                 /*timed_out=*/false);
      }
      if (Clock::now() >= deadline_tp) {
        mark_broken("PipelineEngine: generate deadline exceeded");
        throw PipelineAbortError("PipelineEngine: generate deadline exceeded",
                                 /*timed_out=*/true);
      }
      auto out = outbox->pop_for(kPoll);
      if (!out) {
        if (outbox->closed())
          throw Error("PipelineEngine: pipeline closed early");
        continue;  // timed out waiting; re-check deadline/cancel
      }
      --in_flight;
      StageMsg m = std::move(*out);
      // A poisoned message did come back, but its rows produced no usable
      // output this round — keep its slice in `pending` so last_failure()
      // reports those rows as lost alongside any still in flight.
      if (m.error) std::rethrow_exception(m.error);
      for (auto it = pending.begin(); it != pending.end(); ++it) {
        if (it->first == m.batch_start && it->second == m.seqs) {
          pending.erase(it);
          break;
        }
      }
      return m;
    }
  };

  MicrobatchManager mbm(ids.size(), static_cast<std::size_t>(prefill_mb),
                        static_cast<std::size_t>(decode_mb));
  std::vector<TokenId> out(ids.size());
  if (TraceSession::enabled()) TraceSession::set_thread_name("master");

  try {
    const std::vector<BatchSlice> slices =
        decode_phase ? mbm.decode_slices() : mbm.prefill_slices();
    StopwatchNs pass_timer;
    std::size_t pass_tokens = 0;
    std::optional<TraceSpan> phase_span;
    phase_span.emplace("engine", decode_phase ? "decode-round" : "prefill",
                       "seqs", static_cast<double>(ids.size()));
    mbm.begin_phase(slices.size());
    for (const BatchSlice& slice : slices) {
      StageMsg msg;
      msg.batch_start = slice.start;
      msg.seqs = slice.count;
      msg.decode = decode_phase;
      msg.spans.reserve(slice.count);
      std::vector<TokenId> flat;
      std::vector<std::size_t> offsets;
      offsets.reserve(slice.count);
      for (std::size_t s = 0; s < slice.count; ++s) {
        const int id = ids[slice.start + s];
        const Session& sess = session_at(id);
        if (decode_phase) {
          msg.spans.push_back(SeqSpan{id, 1});
          flat.push_back(sess.tokens.back());
        } else {
          msg.spans.push_back(
              SeqSpan{id, sess.tokens.size() - sess.committed});
          flat.insert(flat.end(),
                      sess.tokens.begin() +
                          static_cast<std::ptrdiff_t>(sess.committed),
                      sess.tokens.end());
        }
        offsets.push_back(sess.committed);
      }
      pass_tokens += flat.size();
      FAULT_POINT("engine.embed");
      msg.acts = embed(weights, flat, msg.spans, offsets);
      push_msg(std::move(msg));
    }
    while (mbm.outstanding() > 0) {
      const StageMsg m = pop_msg();
      TRACE_SPAN1("engine", "lm_head", "rows", m.seqs);
      StopwatchNs lm_timer;
      const std::vector<TokenId> toks =
          project_and_sample(weights, m.acts, m.spans);
      lm_head_metrics.add(m.seqs, lm_timer.elapsed_ns());
      for (std::size_t s = 0; s < m.seqs; ++s) out[m.batch_start + s] = toks[s];
      mbm.complete_one();
    }
    (decode_phase ? decode_metrics : prefill_metrics)
        .add(pass_tokens, pass_timer.elapsed_ns());
    phase_span.reset();
  } catch (const PipelineAbortError&) {
    // Deadline/cancel: micro-batches may be stuck inside the pipeline (or
    // silently dropped), so draining could block forever and the caches
    // cannot be touched yet. mark_broken already ran; the rollback waits
    // for restart(), the only road back.
    rollback(/*immediate=*/false);
    throw;
  } catch (...) {
    // Swallow every in-flight micro-batch (poisoned or not) so the next
    // pass starts from an empty pipeline. Workers forward each message
    // exactly once, so this terminates unless a message was lost — the
    // grace budget converts that hang into a broken engine instead.
    std::string what = "unknown error";
    try {
      throw;
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    const Clock::time_point grace = Clock::now() + std::chrono::seconds(2);
    bool drained = true;
    while (in_flight > 0) {
      auto out_msg = outbox->pop_for(kPoll);
      if (out_msg) {
        --in_flight;
        continue;
      }
      if (outbox->closed()) break;  // engine shut down concurrently
      if (Clock::now() >= grace) {
        drained = false;
        break;
      }
    }
    if (drained) {
      record_failure("PipelineEngine: generate failed: " + what,
                     /*needs_restart=*/false);
      rollback(/*immediate=*/true);
    } else {
      mark_broken("PipelineEngine: drain after failure timed out (" + what +
                  ")");
      rollback(/*immediate=*/false);
    }
    throw;
  }

  // Commit: the pass fully succeeded, so every session's KV now holds its
  // processed tokens; record that and append the sampled token.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Session& sess = session_at(ids[i]);
    sess.committed = sess.tokens.size();
    sess.tokens.push_back(out[i]);
  }
  {
    std::lock_guard<std::mutex> lock(failure_mu);
    failure = EngineFailureInfo{};
  }
  return out;
}

PipelineEngine::PipelineEngine(const ModelWeights& weights,
                               std::vector<std::pair<int, int>> stage_layers,
                               int prefill_micro_batch,
                               int decode_micro_batch)
    : impl_(std::make_unique<Impl>(weights, std::move(stage_layers),
                                   prefill_micro_batch, decode_micro_batch)) {
}

PipelineEngine::~PipelineEngine() = default;

int PipelineEngine::num_stages() const {
  return static_cast<int>(impl_->stages.size());
}

const ModelSpec& PipelineEngine::spec() const { return impl_->weights.spec; }

const std::vector<std::pair<int, int>>& PipelineEngine::stage_layers() const {
  return impl_->stages;
}

EngineStats PipelineEngine::stats() const {
  const Impl& im = *impl_;
  EngineStats s;
  s.stages.reserve(im.stages.size());
  for (std::size_t p = 0; p < im.stages.size(); ++p) {
    StageStats st = im.stage_metrics[p]->snapshot();
    st.inbox_high_water = im.inboxes[p]->high_water();
    s.stages.push_back(st);
  }
  s.prefill = im.prefill_metrics.snapshot();
  s.decode = im.decode_metrics.snapshot();
  s.lm_head = im.lm_head_metrics.snapshot();
  s.generate_calls = im.generate_calls.load(std::memory_order_relaxed);
  s.head_dim = static_cast<std::size_t>(im.weights.spec.hidden /
                                        im.weights.spec.heads);
  return s;
}

bool PipelineEngine::healthy() const {
  return !impl_->broken.load(std::memory_order_acquire);
}

EngineFailureInfo PipelineEngine::last_failure() const {
  std::lock_guard<std::mutex> lock(impl_->failure_mu);
  return impl_->failure;
}

void PipelineEngine::restart() {
  Impl& im = *impl_;
  // Joining first makes the mailbox swap below single-threaded: after
  // shutdown() no worker can touch the old queues or the KV pools. Weights
  // and surviving sessions' KV pages are untouched — recovery never
  // repeats the load or prefill work; only rollbacks/frees that were
  // deferred while workers could still be running are applied now.
  im.shutdown();
  im.workers.clear();
  im.apply_deferred();
  for (auto& inbox : im.inboxes)
    inbox = std::make_unique<MpmcQueue<StageMsg>>(64);
  im.outbox = std::make_unique<MpmcQueue<StageMsg>>(64);
  {
    std::lock_guard<std::mutex> lock(im.failure_mu);
    im.failure = EngineFailureInfo{};
  }
  im.broken.store(false, std::memory_order_release);
  im.launch_workers();
  TRACE_INSTANT("engine", "restart");
}

// ---- Step-level session API.

int PipelineEngine::begin_session(std::vector<TokenId> prompt) {
  check_arg(!prompt.empty(),
            "PipelineEngine::begin_session: empty prompt");
  impl_->throw_if_broken();
  return impl_->create_session(std::move(prompt));
}

void PipelineEngine::end_session(int session) {
  Impl& im = *impl_;
  check_arg(im.sessions.count(session) != 0,
            "PipelineEngine::end_session: unknown session id");
  im.release_session(session);
}

bool PipelineEngine::has_session(int session) const {
  return impl_->sessions.count(session) != 0;
}

std::size_t PipelineEngine::session_length(int session) const {
  return impl_->session_at(session).tokens.size();
}

std::size_t PipelineEngine::session_committed(int session) const {
  return impl_->session_at(session).committed;
}

TokenId PipelineEngine::session_back(int session) const {
  return impl_->session_at(session).tokens.back();
}

std::size_t PipelineEngine::preempt_session(int session) {
  Impl& im = *impl_;
  im.throw_if_broken();
  Impl::Session& s = im.session_at(session);
  if (s.committed == 0) return 0;  // nothing materialized, nothing to free
  const std::size_t released = s.committed;
  for (auto& stage : im.kv)
    for (KvCacheManager& m : stage)
      if (m.has_seq(session)) m.preempt(session);
  // Back to the un-prefilled state: the tokens (prompt + sampled) stay, so
  // the next prefill() replays the full history and — greedy sampling being
  // deterministic — resumes the continuation bit-identically.
  s.committed = 0;
  return released;
}

std::size_t PipelineEngine::kv_footprint_bytes() const {
  std::size_t total = 0;
  for (const auto& stage : impl_->kv)
    for (const KvCacheManager& m : stage) total += m.footprint_bytes();
  return total;
}

std::vector<TokenId> PipelineEngine::prefill(const std::vector<int>& sessions,
                                             const GenerateOptions& options) {
  Impl& im = *impl_;
  check_arg(!sessions.empty(), "PipelineEngine::prefill: no sessions");
  im.throw_if_broken();
  for (int id : sessions) {
    const Impl::Session& s = im.session_at(id);
    check_arg(s.committed == 0,
              "PipelineEngine::prefill: session already prefilled");
  }
  // Reservation is the allocation choke point: it throws (std::bad_alloc
  // under a simulated allocation failure) before anything is in flight,
  // so the engine stays healthy — the serving layer turns repeated
  // failures here into graceful bitwidth degradation.
  FAULT_POINT("engine.kv_alloc");
  for (int id : sessions)
    im.reserve_session(id, im.session_at(id).tokens.size());
  return im.run_pass(sessions, /*decode_phase=*/false,
                     deadline_from(options, Clock::now()), options.cancel);
}

std::vector<TokenId> PipelineEngine::decode_step(
    const std::vector<int>& sessions, const GenerateOptions& options) {
  Impl& im = *impl_;
  check_arg(!sessions.empty(), "PipelineEngine::decode_step: no sessions");
  im.throw_if_broken();
  for (int id : sessions) {
    const Impl::Session& s = im.session_at(id);
    check_arg(s.committed + 1 == s.tokens.size(),
              "PipelineEngine::decode_step: session not prefilled");
  }
  FAULT_POINT("engine.kv_alloc");
  for (int id : sessions)
    im.reserve_session(id, im.session_at(id).committed + 1);
  return im.run_pass(sessions, /*decode_phase=*/true,
                     deadline_from(options, Clock::now()), options.cancel);
}

// ---- Batch generate(), expressed over ephemeral sessions.

std::vector<std::vector<TokenId>> PipelineEngine::generate(
    const std::vector<std::vector<TokenId>>& prompts, int gen_tokens) {
  return generate(prompts, gen_tokens, GenerateOptions{});
}

std::vector<std::vector<TokenId>> PipelineEngine::generate(
    const std::vector<std::vector<TokenId>>& prompts, int gen_tokens,
    const GenerateOptions& options) {
  check_arg(!prompts.empty(), "PipelineEngine::generate: no prompts");
  check_arg(gen_tokens >= 1, "PipelineEngine::generate: gen_tokens must be >= 1");
  const std::size_t batch = prompts.size();
  const std::size_t prompt_len = prompts.front().size();
  check_arg(prompt_len >= 1,
            "PipelineEngine::generate: zero-length prompts are not allowed");
  for (const auto& p : prompts)
    check_arg(p.size() == prompt_len,
              "PipelineEngine::generate: unpadded prompts");

  Impl& im = *impl_;
  im.throw_if_broken();
  const std::size_t max_seq = prompt_len + static_cast<std::size_t>(gen_tokens);

  // Ephemeral sessions with the whole shape reserved up front. Throws
  // before anything is in flight (std::bad_alloc under a simulated
  // allocation failure), leaving the engine healthy with no sessions —
  // same pre-flight contract the old monolithic KV reservation had.
  std::vector<int> ids;
  ids.reserve(batch);
  try {
    FAULT_POINT("engine.kv_alloc");
    for (const auto& p : prompts) {
      const int id = im.create_session(p);
      ids.push_back(id);
      im.reserve_session(id, max_seq);
    }
  } catch (...) {
    for (int id : ids) im.release_session(id);
    throw;
  }

  const Clock::time_point deadline_tp =
      deadline_from(options, Clock::now());

  if (TraceSession::enabled()) TraceSession::set_thread_name("master");
  TRACE_SPAN1("engine", "generate", "batch", batch);

  std::vector<std::vector<TokenId>> generated(batch);
  try {
    std::vector<TokenId> toks =
        im.run_pass(ids, /*decode_phase=*/false, deadline_tp, options.cancel);
    for (std::size_t b = 0; b < batch; ++b) generated[b].push_back(toks[b]);
    for (int step = 1; step < gen_tokens; ++step) {
      toks =
          im.run_pass(ids, /*decode_phase=*/true, deadline_tp, options.cancel);
      for (std::size_t b = 0; b < batch; ++b) generated[b].push_back(toks[b]);
    }
  } catch (...) {
    for (int id : ids) im.release_session(id);
    throw;
  }
  for (int id : ids) im.release_session(id);
  im.generate_calls.fetch_add(1, std::memory_order_relaxed);
  return generated;
}

}  // namespace llmpq
