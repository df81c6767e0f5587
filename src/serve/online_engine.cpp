#include "serve/online_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/trace.hpp"

namespace llmpq {

namespace {

/// Left-pads each row to `len` with its own first token (replay execution
/// only): generate() needs one shared padded length, and left-padding
/// keeps the sampled last position the request's true last token. The
/// padded positions ARE attended to, which is the mixed-length fidelity
/// gap the session path closes — see the execution-mapping note in
/// online_engine.hpp.
std::vector<std::vector<TokenId>> pad_left(
    const std::vector<std::vector<TokenId>>& rows, std::size_t len) {
  std::vector<std::vector<TokenId>> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    check_arg(!r.empty() && r.size() <= len,
              "OnlineEngine: sequence length exceeds the padded shape");
    std::vector<TokenId> padded(len - r.size(), r.front());
    padded.insert(padded.end(), r.begin(), r.end());
    out.push_back(std::move(padded));
  }
  return out;
}

/// Engine input for one scheduler decision, snapshotted from the request
/// tables: each row's full context so far (just the prompt for a fresh
/// prefill or join), the padded counterpart replay execution needs, and
/// how many output tokens each row contributes to its request.
struct DecisionInputs {
  std::vector<std::vector<TokenId>> rows;    ///< unpadded, row-aligned
  std::vector<std::vector<TokenId>> padded;  ///< replay execution only
  int gen_call = 1;                          ///< replay: generate() length
  std::vector<std::size_t> take;  ///< per-row output tokens to keep
};

DecisionInputs prepare_decision(
    SchedulerPolicy policy, DecodeExec exec, const DispatchDecision& d,
    const std::deque<std::pair<std::vector<TokenId>, int>>& prompts,
    const std::deque<std::vector<TokenId>>& generated) {
  // A static-batching prefill bundles its rows' whole generation; every
  // other decision yields at most one token per row.
  const bool bundled = policy == SchedulerPolicy::kStaticBatching &&
                       d.phase == ServePhase::kPrefillPass;
  DecisionInputs in;
  in.rows.reserve(d.request_ids.size());
  in.take.reserve(d.request_ids.size());
  for (int id : d.request_ids) {
    const auto& [prompt, gen_tokens] = prompts[static_cast<std::size_t>(id)];
    const auto& done = generated[static_cast<std::size_t>(id)];
    std::vector<TokenId> seq = prompt;
    seq.insert(seq.end(), done.begin(), done.end());
    in.rows.push_back(std::move(seq));
    const int want = bundled ? gen_tokens
                             : std::min(1, gen_tokens -
                                               static_cast<int>(done.size()));
    in.take.push_back(static_cast<std::size_t>(std::max(0, want)));
  }
  if (bundled) in.gen_call = std::max(1, d.padded_gen);
  if (exec == DecodeExec::kReplay)
    in.padded = pad_left(in.rows,
                         static_cast<std::size_t>(
                             d.phase == ServePhase::kPrefillPass
                                 ? d.padded_prompt
                                 : d.max_context));
  return in;
}

/// Serving-layer fault site, acted on the way FAULT_POINT acts: a delay
/// or slow rule sleeps for real and returns the injected delay, kDrop is a
/// no-op, and throw/alloc rules fail the dispatch like any other serving
/// fault. `fired` counts the rules that fired (OnlineReport::fault_events).
double serve_fault_site(const std::string& site, int& fired) {
  const FaultAction action = FaultInjector::check(site.c_str());
  if (action.kind != FaultKind::kNone) ++fired;
  switch (action.kind) {
    case FaultKind::kNone:
    case FaultKind::kDrop:
      return 0.0;
    case FaultKind::kDelay:
    case FaultKind::kSlow:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(action.delay_s));
      return action.delay_s;
    case FaultKind::kThrow:
      throw InjectedFault(site, action.rule ? action.rule->message : "");
    case FaultKind::kAllocFail:
      throw std::bad_alloc();
  }
  return 0.0;
}

/// Per-stage sites ("serve.stage.<p>"): evaluated exactly once per
/// dispatch per engine stage, the cadence the simulator uses per plan
/// stage — one fault plan drives the same straggler signal through both
/// back-ends. Returns the injected delay per stage so the health monitor
/// can attribute it.
std::vector<double> check_serve_stage_sites(int num_stages, int& fired) {
  std::vector<double> delays(static_cast<std::size_t>(num_stages), 0.0);
  if (!FaultInjector::armed()) return delays;
  for (int p = 0; p < num_stages; ++p)
    delays[static_cast<std::size_t>(p)] =
        serve_fault_site("serve.stage." + std::to_string(p), fired);
  return delays;
}

/// Static batching over ephemeral sessions: one ragged prefill for the
/// whole batch, then one decode round per outstanding token with only the
/// rows that still owe output participating. Each row gets its own exact
/// (unpadded) continuation and stops at its own generation length — no
/// padded-shape decode work at all.
std::vector<std::vector<TokenId>> run_static_session(
    PipelineEngine& engine, const DecisionInputs& in,
    const GenerateOptions& gopts) {
  const std::size_t n = in.rows.size();
  std::vector<std::vector<TokenId>> out(n);
  std::vector<int> sids;
  sids.reserve(n);
  try {
    for (const auto& r : in.rows) sids.push_back(engine.begin_session(r));
    std::size_t max_take = 0;
    for (std::size_t t : in.take) max_take = std::max(max_take, t);
    if (max_take > 0) {
      const std::vector<TokenId> first = engine.prefill(sids, gopts);
      for (std::size_t i = 0; i < n; ++i) out[i].push_back(first[i]);
      for (std::size_t round = 2; round <= max_take; ++round) {
        std::vector<int> live;
        std::vector<std::size_t> live_rows;
        for (std::size_t i = 0; i < n; ++i) {
          if (in.take[i] < round) continue;
          live.push_back(sids[i]);
          live_rows.push_back(i);
        }
        const std::vector<TokenId> toks = engine.decode_step(live, gopts);
        for (std::size_t j = 0; j < toks.size(); ++j)
          out[live_rows[j]].push_back(toks[j]);
      }
    }
  } catch (...) {
    // The dispatch failed as a unit (the scheduler will retry it whole);
    // the sessions are this call's own, so tear them down — on a broken
    // engine end_session defers the page frees to restart().
    for (int sid : sids)
      if (engine.has_session(sid)) engine.end_session(sid);
    throw;
  }
  for (int sid : sids) engine.end_session(sid);
  return out;
}

/// Periodic llmpq-metrics/v1 dump of the control loop's view: health
/// snapshot (baseline, EWMAs, per-stage busy, counters), the request
/// latency summary so far (completed requests, arrival -> last token),
/// and the live engine's cumulative stats. Callers hold the request
/// tables stable (the live loop runs this under its lock).
void export_serve_metrics(const std::string& path, const DispatchLoop& loop,
                          const PipelineEngine& engine) {
  const HealthMonitor::Snapshot snap = loop.monitor()->snapshot();
  MetricsRegistry reg;
  std::vector<double> latencies;
  for (const RequestStats& r : loop.scheduler().finished()) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    latencies.push_back(r.finish_s - r.arrival_s);
  }
  reg.set_latency("serve.request_latency",
                  summarize_latency(std::move(latencies)));
  const OutcomeCounts oc = loop.scheduler().outcomes();
  reg.set_value("serve.requests.completed", oc.completed);
  reg.set_value("serve.requests.timed_out", oc.timed_out);
  reg.set_value("serve.requests.rejected", oc.rejected);
  reg.set_value("serve.requests.failed", oc.failed);
  reg.set_value("serve.health.samples", snap.samples);
  reg.set_value("serve.health.verdicts", snap.verdicts);
  reg.set_value("serve.health.baseline_s", snap.baseline_s);
  reg.set_value("serve.health.dispatch_ewma_s", snap.dispatch_ewma_s);
  reg.set_value("serve.health.queue_depth", snap.queue_depth);
  reg.set_value("serve.health.preemptions", snap.preemptions);
  reg.set_value("serve.health.mem_faults", snap.mem_faults);
  reg.set_value("serve.health.migrations", loop.migrations());
  reg.set_value("serve.health.replans",
                static_cast<double>(loop.replans().size()));
  for (std::size_t p = 0; p < snap.stage_busy_ewma_s.size(); ++p)
    reg.set_value("serve.health.stage" + std::to_string(p) + ".busy_ewma_s",
                  snap.stage_busy_ewma_s[p]);
  reg.set_engine("serve.engine", engine.stats());
  (void)reg.write_json_file(path);
}

/// Submits a request to the scheduler under the next id, which indexes the
/// request tables; both grow by one row. Returns the id.
int add_request(ServeScheduler& scheduler,
                std::deque<std::pair<std::vector<TokenId>, int>>& prompts,
                std::deque<std::vector<TokenId>>& generated, double arrival_s,
                std::vector<TokenId> prompt, int gen_tokens, int tenant_id,
                int req_class) {
  ServeRequest r;
  r.id = static_cast<int>(prompts.size());
  r.arrival_s = arrival_s;
  r.prompt_len = static_cast<int>(prompt.size());
  r.gen_tokens = gen_tokens;
  r.tenant_id = tenant_id;
  r.req_class = req_class;
  scheduler.submit(r);  // validates shape, tenant and stream state
  prompts.emplace_back(std::move(prompt), gen_tokens);
  generated.emplace_back();
  return r.id;
}

std::string describe_exception(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// The health monitor runs when a replan hook consumes its verdicts or the
/// metrics export reads its snapshot.
const HealthMonitorOptions* control_health(const OnlineEngineOptions& o) {
  return o.replan || !o.metrics_out.empty() ? &o.health : nullptr;
}

/// The live engine's clock: wall time since construction. The loop runs
/// with the engine's lock held and releases it around each execution (and
/// EngineExecutor around the user's replan/degrade hooks), so submit() can
/// enqueue while the engine computes; waits sleep on the
/// condition variable that submit() and close() signal.
class WallClock final : public DispatchClock {
 public:
  WallClock(const StopwatchNs& clock, std::unique_lock<std::mutex>& lk,
            std::condition_variable& cv)
      : clock_(clock), lk_(lk), cv_(cv) {}

  double now() override { return clock_.elapsed_s(); }

  void wait(double now, double until) override {
    // Either block for new submissions (unbounded wait) or sleep until the
    // scheduler's deadline — the stale timer that bounds a lone request's
    // wait at arrival + max_wait_s, or a retry-backoff or request-deadline
    // wakeup. Submissions wake us early.
    if (std::isinf(until))
      cv_.wait(lk_);
    else
      cv_.wait_for(lk_,
                   std::chrono::duration<double>(std::max(1e-4, until - now)));
  }

  double begin() override {
    lk_.unlock();
    return clock_.elapsed_s();
  }

  double end(double) override {
    lk_.lock();
    return clock_.elapsed_s();
  }

  double makespan(double last_finish_s) override { return last_finish_s; }

 private:
  const StopwatchNs& clock_;
  std::unique_lock<std::mutex>& lk_;
  std::condition_variable& cv_;
};

/// Runs decisions on the real engine. Iteration-level serving maps request
/// ids to persistent engine sessions: prefill decisions begin them, every
/// decode round advances them by one token with the KV cache intact.
/// Retries are idempotent: the decision's per-request `contexts` say
/// exactly how far each session should be, so a row whose session already
/// advanced past a half-failed round reuses its sampled token instead of
/// advancing twice, and a row whose session is gone (an engine swap or
/// restart) is rebuilt from its full context — prefilling that context
/// yields exactly the round's greedy token. The executor also owns the
/// recovery policy (count memory faults, walk the degradation ladder,
/// restart a broken engine within the restart budget) and live engine
/// swaps for applied re-plan deltas.
class EngineExecutor final : public DispatchExecutor {
 public:
  /// `hook_lock` is the live engine's lock, released around the user's
  /// replan and degrade hooks; nullptr (trace replay) holds no lock.
  EngineExecutor(PipelineEngine& engine, const OnlineEngineOptions& options,
                 const std::deque<std::pair<std::vector<TokenId>, int>>& prompts,
                 std::deque<std::vector<TokenId>>& generated,
                 std::unique_lock<std::mutex>* hook_lock = nullptr)
      : options_(options),
        engine_(&engine),
        session_iter_(options.scheduler.policy ==
                          SchedulerPolicy::kIterationLevel &&
                      (options.scheduler.exec == DecodeExec::kSession ||
                       options.scheduler.exec == DecodeExec::kContinuous)),
        prompts_(prompts),
        generated_(generated),
        hook_lock_(hook_lock) {
    gopts_.deadline_s = options.dispatch_deadline_s;
  }

  void prepare(const DispatchDecision& d) override {
    // Snapshot the engine inputs while the request tables are stable: the
    // live engine's submit() may grow prompts/generated concurrently once
    // the lock is released, and deque growth can reallocate the block map
    // that operator[] traverses.
    inputs_ = prepare_decision(options_.scheduler.policy,
                               options_.scheduler.exec, d, prompts_,
                               generated_);
  }

  DispatchRun run(const DispatchDecision& d, double start_s) override {
    DispatchRun r;
    StopwatchNs call;  // the whole call, charged to a failure
    error_ = nullptr;
    mem_fault_ = false;
    try {
      TRACE_SPAN1("serve",
                  d.phase == ServePhase::kPrefillPass ? "execute-prefill"
                                                      : "execute-decode",
                  "batch", d.request_ids.size());
      // The dispatch wall clock starts before the dispatch-level fault
      // site, so its delay is charged to trace replay's virtual clock and
      // to the health sample, as the simulator charges "sim.dispatch".
      StopwatchNs wall;
      if (FaultInjector::armed())
        serve_fault_site("serve.dispatch", fault_events_);
      PipelineEngine& engine = *engine_;
      // Per-stage straggler sites next (inside the dispatch wall clock),
      // then a stats snapshot so the health sample can attribute this
      // dispatch's cost: measured per-stage busy delta plus the
      // serving-level injected delay per stage.
      r.stage_busy_s =
          check_serve_stage_sites(engine.num_stages(), fault_events_);
      const EngineStats before = engine.stats();
      if (session_iter_) {
        out_.clear();
        for (TokenId t : run_sessions(d)) out_.push_back({t});
      } else if (!inputs_.padded.empty()) {
        out_ = engine.generate(inputs_.padded, inputs_.gen_call, gopts_);
      } else {
        out_ = run_static_session(engine, inputs_, gopts_);
      }
      r.dispatch_s = wall.elapsed_s();
      r.finish_s = start_s + r.dispatch_s;
      const EngineStats after = engine.stats();
      for (std::size_t p = 0; p < r.stage_busy_s.size(); ++p)
        if (p < before.stages.size() && p < after.stages.size())
          r.stage_busy_s[p] += std::max(
              0.0, after.stages[p].busy_s - before.stages[p].busy_s);
      if (d.phase == ServePhase::kPrefillPass || d.num_join > 0)
        r.prefill_end_s =
            start_s +
            std::max(0.0, after.prefill.seconds - before.prefill.seconds);
    } catch (const std::bad_alloc&) {
      mem_fault_ = true;
      error_ = std::current_exception();
    } catch (...) {
      error_ = std::current_exception();
    }
    if (error_) {
      r.failed = true;
      r.finish_s = start_s + call.elapsed_s();
    }
    return r;
  }

  void commit(const DispatchDecision& d) override {
    // Append each row's kept output tokens to its request's generated row.
    for (std::size_t i = 0; i < d.request_ids.size(); ++i) {
      auto& gen = generated_[static_cast<std::size_t>(d.request_ids[i])];
      const std::size_t take = std::min(out_[i].size(), inputs_.take[i]);
      gen.insert(gen.end(), out_[i].begin(),
                 out_[i].begin() + static_cast<std::ptrdiff_t>(take));
    }
  }

  void recover() override {
    if (mem_fault_) {
      ++mem_faults_;
      ++total_mem_faults_;
      TRACE_INSTANT("serve", "mem-fault");
      if (options_.degrade &&
          mem_faults_ >= options_.degrade_after_mem_faults) {
        const int level = ++degrade_level_;
        if (PipelineEngine* next =
                unlocked([&] { return options_.degrade(level); })) {
          // Step down the ladder (lower bitwidth / smaller micro-batch)
          // and give the cheaper engine a fresh fault budget.
          swap_engine(next, "OnlineEngineOptions::degrade returned an "
                            "incompatible engine at level " +
                                std::to_string(degrade_level_));
          ++degrades_;
          mem_faults_ = 0;
          TRACE_INSTANT("serve", "degrade");
        }
      }
    }
    if (!engine_->healthy()) {
      if (engine_restarts_ >= options_.max_engine_restarts)
        std::rethrow_exception(error_);
      engine_->restart();
      ++engine_restarts_;
      TRACE_INSTANT("serve", "engine-restart");
    }
  }

  void reconcile(const ServeScheduler& scheduler) override {
    // End the sessions of requests that reached a terminal outcome since
    // the last call (completed, timed out, failed), returning their KV
    // pages. finished() is append-only.
    const std::vector<RequestStats>& finished = scheduler.finished();
    for (; finished_seen_ < finished.size(); ++finished_seen_) {
      auto it = sessions_.find(finished[finished_seen_].id);
      if (it == sessions_.end()) continue;
      end_session(it->second);
      sessions_.erase(it);
    }
    TRACE_COUNTER("serve", "pending", scheduler.pending());
  }

  bool repairs() const override { return static_cast<bool>(options_.replan); }

  void repair(const HealthVerdict& verdict, ReplanEvent& ev) override {
    const ReplanOutcome out =
        unlocked([&] { return options_.replan(verdict); });
    ev.delta = out.delta;
    ev.applied = out.delta.kind != PlanDeltaKind::kNone &&
                 out.engine != nullptr && out.engine != engine_;
    if (!ev.applied) return;
    // Migrate live; the next decision rebuilds each request from its
    // authoritative context by re-prefill, which under greedy sampling
    // resumes it exactly.
    swap_engine(out.engine,
                "OnlineEngineOptions::replan returned an incompatible engine");
    TRACE_INSTANT("serve", "migrate");
  }

  int mem_faults() const override { return total_mem_faults_; }

  void after_dispatch(const DispatchLoop& loop, double now_s) override {
    if (options_.metrics_out.empty() ||
        now_s - last_metrics_s_ < options_.metrics_interval_s)
      return;
    last_metrics_s_ = now_s;
    export_serve_metrics(options_.metrics_out, loop, *engine_);
  }

  void finish(const DispatchLoop& loop) override {
    release_sessions();
    if (!options_.metrics_out.empty())
      export_serve_metrics(options_.metrics_out, loop, *engine_);
  }

  void fill(OnlineReport& rep) const override {
    rep.generated.assign(generated_.begin(), generated_.end());
    rep.fault_events = fault_events_;
    rep.engine_restarts = engine_restarts_;
    rep.degrades = degrades_;
    rep.mem_faults = total_mem_faults_;
  }

 private:
  struct Sess {
    PipelineEngine* eng;  ///< engine holding the session's KV
    int sid;
  };

  /// Runs a user hook with the live engine's lock released, so submit()
  /// and close() go through while it works (a replan hook may build a
  /// whole replacement engine). The hook sees no loop state; the engine
  /// swap and every scheduler update stay under the lock, retaken even
  /// when the hook throws.
  template <typename Hook>
  auto unlocked(Hook&& hook) -> decltype(hook()) {
    if (hook_lock_ == nullptr) return hook();
    struct Relock {
      std::unique_lock<std::mutex>& lk;
      ~Relock() { lk.lock(); }
    } relock{*hook_lock_};
    hook_lock_->unlock();
    return hook();
  }

  static void end_session(const Sess& s) {
    // On a broken engine end_session defers the page frees to restart().
    if (s.eng->has_session(s.sid)) s.eng->end_session(s.sid);
  }

  void release_sessions() {
    for (const auto& [rid, s] : sessions_) end_session(s);
    sessions_.clear();
  }

  /// Validates a replacement engine (a mismatch is terminal: a different
  /// model would silently corrupt every in-flight request) and moves
  /// execution onto it. KV held on the previous base engine is useless to
  /// the replacement, so every session is released — class-variant ones
  /// too — and each request resumes from its authoritative context.
  void swap_engine(PipelineEngine* next, const std::string& what) {
    const std::string mismatch = validate_replacement_engine(*engine_, *next);
    if (!mismatch.empty()) throw Error(what + ": " + mismatch);
    if (next != engine_) release_sessions();
    engine_ = next;
  }

  /// Per-class engine routing (OnlineEngineOptions::class_engine): rows
  /// whose decision class is > 0 execute on the router's variant; class 0
  /// (and a nullptr from the router) stays on the base engine.
  PipelineEngine* engine_for(int cls) const {
    if (cls > 0 && options_.class_engine)
      if (PipelineEngine* e = options_.class_engine(cls)) return e;
    return engine_;
  }

  /// Executes one iteration-level decision over sessions, returning one
  /// token per row. Per engine at most two ragged calls: one prefill over
  /// rows that need their context materialized, one decode_step over rows
  /// advancing by a token (one engine total unless class routing is armed).
  std::vector<TokenId> run_sessions(const DispatchDecision& d) {
    // Capacity-planner evictions first: release the victims' KV pages
    // (their tokens stay on the session, so resumption is a re-prefill of
    // the full history). Idempotent across retries — a session already
    // preempted has nothing committed and preempt_session is a no-op; a
    // victim whose release never executed (the fault landed first) simply
    // decode-steps on resume, which is equally exact.
    for (int rid : d.preempted) {
      auto it = sessions_.find(rid);
      if (it != sessions_.end() && it->second.eng->has_session(it->second.sid))
        it->second.eng->preempt_session(it->second.sid);
    }
    const std::size_t n = d.request_ids.size();
    std::vector<TokenId> out(n, 0);
    // Rows group by (engine, call kind); groups keep first-seen order so
    // the call sequence is deterministic.
    struct Group {
      PipelineEngine* eng;
      std::vector<int> sids;
      std::vector<std::size_t> rows;
    };
    std::vector<Group> prefills, steps;
    const auto enlist = [](std::vector<Group>& groups, PipelineEngine* eng,
                           int sid, std::size_t row) {
      for (Group& g : groups) {
        if (g.eng != eng) continue;
        g.sids.push_back(sid);
        g.rows.push_back(row);
        return;
      }
      groups.push_back(Group{eng, {sid}, {row}});
    };
    for (std::size_t i = 0; i < n; ++i) {
      const int rid = d.request_ids[i];
      const auto ctx = static_cast<std::size_t>(d.contexts[i]);
      PipelineEngine* eng =
          engine_for(i < d.classes.size() ? d.classes[i] : 0);
      auto it = sessions_.find(rid);
      if (it != sessions_.end() &&
          (!it->second.eng->has_session(it->second.sid) ||
           it->second.eng != eng)) {
        // Lost to a restart, or the row's class routes elsewhere now:
        // drop and rebuild below.
        end_session(it->second);
        sessions_.erase(it);
        it = sessions_.end();
      }
      if (it == sessions_.end()) {
        const int sid = eng->begin_session(inputs_.rows[i]);
        sessions_.emplace(rid, Sess{eng, sid});
        enlist(prefills, eng, sid, i);
        continue;
      }
      const int sid = it->second.sid;
      const std::size_t len = eng->session_length(sid);
      if (len == ctx + 1) {
        // This round already advanced the session (a later group of the
        // same decision failed, and the scheduler is retrying the round):
        // its token was sampled last time — reuse it.
        out[i] = eng->session_back(sid);
      } else if (len == ctx && eng->session_committed(sid) == 0) {
        enlist(prefills, eng, sid, i);  // begun, never prefilled (retry)
      } else if (len == ctx) {
        enlist(steps, eng, sid, i);
      } else {
        // Inconsistent with the scheduler's view (should not happen):
        // rebuild from the authoritative request tables.
        eng->end_session(sid);
        const int fresh = eng->begin_session(inputs_.rows[i]);
        sessions_[rid] = Sess{eng, fresh};
        enlist(prefills, eng, fresh, i);
      }
    }
    for (const Group& g : prefills) {
      const std::vector<TokenId> toks = g.eng->prefill(g.sids, gopts_);
      for (std::size_t j = 0; j < toks.size(); ++j) out[g.rows[j]] = toks[j];
    }
    for (const Group& g : steps) {
      const std::vector<TokenId> toks = g.eng->decode_step(g.sids, gopts_);
      for (std::size_t j = 0; j < toks.size(); ++j) out[g.rows[j]] = toks[j];
    }
    return out;
  }

  const OnlineEngineOptions& options_;
  PipelineEngine* engine_;  ///< base engine; degrade/replan swap it
  const bool session_iter_;
  const std::deque<std::pair<std::vector<TokenId>, int>>& prompts_;
  std::deque<std::vector<TokenId>>& generated_;
  std::unique_lock<std::mutex>* hook_lock_;  ///< live engine's, or nullptr
  GenerateOptions gopts_;
  std::unordered_map<int, Sess> sessions_;  ///< request id -> session
  std::size_t finished_seen_ = 0;           ///< reconcile() cursor
  DecisionInputs inputs_;                   ///< the decision being run
  std::vector<std::vector<TokenId>> out_;   ///< its output, row-aligned
  std::exception_ptr error_;                ///< its failure, if any
  bool mem_fault_ = false;                  ///< ...and whether it was OOM
  int fault_events_ = 0;
  int engine_restarts_ = 0;
  int degrades_ = 0;
  int mem_faults_ = 0;  ///< since the last degrade step
  int total_mem_faults_ = 0;
  int degrade_level_ = 0;
  double last_metrics_s_ = 0.0;
};

}  // namespace

std::string validate_replacement_engine(const PipelineEngine& current,
                                        const PipelineEngine& next) {
  if (next.spec().vocab != current.spec().vocab)
    return "vocab mismatch (" + std::to_string(next.spec().vocab) + " vs " +
           std::to_string(current.spec().vocab) +
           ") — the replacement serves a different token space";
  if (next.spec().layers != current.spec().layers)
    return "layer count mismatch (" + std::to_string(next.spec().layers) +
           " vs " + std::to_string(current.spec().layers) +
           ") — the replacement's plan covers a different model";
  if (!next.healthy())
    return "replacement engine is broken (restart() it before handing it "
           "to the serving loop)";
  return {};
}

OnlineEngine::OnlineEngine(PipelineEngine& engine,
                           const OnlineEngineOptions& options)
    : engine_(engine), options_(options), scheduler_(options.scheduler) {
  // The scheduler's clock (clock_) reads zero right now, so now_s() is the
  // offset that aligns its lifecycle events with the wall-clock spans.
  scheduler_.enable_trace(trace_pids::kServe, TraceSession::now_s());
  // Start the admission thread last so a constructor failure above never
  // leaves it running (same RAII discipline as the pipeline engine).
  server_ = std::thread([this] { serve_loop(); });
}
OnlineEngine::~OnlineEngine() {
  close();
  if (server_.joinable()) server_.join();
}

int OnlineEngine::submit(std::vector<TokenId> prompt, int gen_tokens,
                         int tenant_id, int req_class) {
  TRACE_INSTANT("serve", "submit");
  // Boundary guard: an empty prompt has no last token to sample from and
  // nothing to prefill; reject it here with a precise message instead of
  // letting it surface later as a mid-dispatch engine error.
  check_arg(!prompt.empty(),
            "OnlineEngine::submit: zero-length prompts are not allowed");
  std::unique_lock<std::mutex> lk(mu_);
  // Fail fast once the serving loop has died: queueing more work would
  // just strand it (nobody will ever dispatch), and the caller would only
  // learn about the failure at wait().
  if (error_)
    throw Error("OnlineEngine::submit: serving loop failed: " + error_what_);
  const int id =
      add_request(scheduler_, prompts_, generated_, clock_.elapsed_s(),
                  std::move(prompt), gen_tokens, tenant_id, req_class);
  lk.unlock();
  cv_.notify_all();
  return id;
}

void OnlineEngine::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    scheduler_.close();
  }
  cv_.notify_all();
}

OnlineReport OnlineEngine::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  check_arg(scheduler_.closed(), "OnlineEngine::wait(): close() first");
  cv_.wait(lk, [&] { return done_; });
  // Join exactly once, flagged under the lock: two threads calling wait()
  // concurrently must not both reach std::thread::join() (UB on the
  // second), and repeated waits after a failure must keep rethrowing the
  // same error instead of tripping over a dead thread.
  if (!joined_) {
    joined_ = true;
    lk.unlock();
    server_.join();
    lk.lock();
  }
  if (error_) std::rethrow_exception(error_);
  return report_;
}

void OnlineEngine::serve_loop() {
  if (TraceSession::enabled()) TraceSession::set_thread_name("serve-loop");
  std::unique_lock<std::mutex> lk(mu_);
  try {
    WallClock clock(clock_, lk, cv_);
    EngineExecutor exec(engine_, options_, prompts_, generated_, &lk);
    report_ =
        DispatchLoop(scheduler_, clock, exec, control_health(options_)).run();
  } catch (...) {
    // The loop died (restart budget exhausted, incompatible replacement
    // engine): submit() fails fast from here on and wait() rethrows.
    error_ = std::current_exception();
    error_what_ = describe_exception(error_);
    if (!lk.owns_lock()) lk.lock();
  }
  done_ = true;
  lk.unlock();
  cv_.notify_all();
}

OnlineReport serve_trace(PipelineEngine& engine,
                         const std::vector<OnlineTraceRequest>& trace,
                         const OnlineEngineOptions& options) {
  ServeScheduler scheduler(options.scheduler);
  // Trace-replay timestamps are virtual (the trace's own clock), so no
  // offset: the serving tracks start at t=0 alongside the session.
  scheduler.enable_trace(trace_pids::kServe, 0.0);
  std::deque<std::pair<std::vector<TokenId>, int>> prompts;
  std::deque<std::vector<TokenId>> generated;
  for (const OnlineTraceRequest& t : trace) {
    check_arg(!t.prompt.empty(),
              "serve_trace: zero-length prompts are not allowed");
    add_request(scheduler, prompts, generated, t.arrival_s, t.prompt,
                t.gen_tokens, t.tenant_id, t.req_class);
  }
  scheduler.close();

  VirtualClock clock("serve_trace");
  EngineExecutor exec(engine, options, prompts, generated);
  return DispatchLoop(scheduler, clock, exec, control_health(options)).run();
}

}  // namespace llmpq
