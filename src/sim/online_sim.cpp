#include "sim/online_sim.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "cost/ground_truth.hpp"
#include "cost/profiler.hpp"
#include "sim/pipeline_sim.hpp"

namespace llmpq {

namespace {

/// ShareGPT-shaped request lengths. Prompts are a bimodal mix: ~55% short
/// chat turns (lognormal around ~40 tokens), the rest long context pastes
/// (lognormal around ~400). Generation length is geometric-ish with a
/// heavier tail.
void draw_sharegpt_shape(Rng& rng, int max_prompt, int max_gen,
                         OnlineRequest& r) {
  const bool short_prompt = rng.uniform() < 0.55;
  const double mu = short_prompt ? 3.6 : 6.0;
  const double sigma = short_prompt ? 0.6 : 0.5;
  r.prompt_len = static_cast<int>(std::clamp(
      std::exp(rng.normal(mu, sigma)), 4.0, static_cast<double>(max_prompt)));
  r.gen_tokens = static_cast<int>(std::clamp(
      std::exp(rng.normal(4.0, 0.8)), 4.0, static_cast<double>(max_gen)));
}

}  // namespace

std::vector<OnlineRequest> generate_sharegpt_workload(Rng& rng, int count,
                                                      double rate_per_s,
                                                      int max_prompt,
                                                      int max_gen) {
  check_arg(count >= 0 && rate_per_s > 0.0,
            "generate_sharegpt_workload: bad arguments");
  std::vector<OnlineRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate_per_s;  // Poisson
    OnlineRequest r;
    r.arrival_s = t;
    draw_sharegpt_shape(rng, max_prompt, max_gen, r);
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<OnlineRequest> generate_tenant_workload(
    Rng& rng, const ClusterTrace& trace,
    const std::vector<TenantSpec>& tenants, int count, double base_rate_per_s,
    const std::vector<double>& load, int max_prompt, int max_gen) {
  check_arg(count >= 0 && base_rate_per_s > 0.0,
            "generate_tenant_workload: bad arguments");
  check_arg(!tenants.empty(), "generate_tenant_workload: no tenants");
  check_arg(load.empty() || load.size() == tenants.size(),
            "generate_tenant_workload: load shares must match tenants");
  // Per-day fleet utilization: share-weighted mean over GPU types. An
  // empty trace degenerates to a flat 0.5 modulation (constant rate).
  int days = 0;
  for (const UtilizationSample& s : trace.samples)
    days = std::max(days, s.day + 1);
  std::vector<double> util(static_cast<std::size_t>(std::max(days, 1)), 0.5);
  if (days > 0) {
    std::vector<double> acc(static_cast<std::size_t>(days), 0.0);
    std::vector<double> wsum(static_cast<std::size_t>(days), 0.0);
    for (const UtilizationSample& s : trace.samples) {
      double share = 0.0;
      for (const GpuFleetShare& g : trace.shares)
        if (g.gpu_name == s.gpu_name) share = g.fraction;
      acc[static_cast<std::size_t>(s.day)] += share * s.util;
      wsum[static_cast<std::size_t>(s.day)] += share;
    }
    for (int d = 0; d < days; ++d)
      if (wsum[static_cast<std::size_t>(d)] > 0.0)
        util[static_cast<std::size_t>(d)] =
            acc[static_cast<std::size_t>(d)] / wsum[static_cast<std::size_t>(d)];
  }
  // Normalized cumulative tenant shares for the per-request draw.
  std::vector<double> cum(tenants.size(), 0.0);
  {
    double total = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i)
      total += load.empty() ? 1.0 : std::max(load[i], 0.0);
    check_arg(total > 0.0, "generate_tenant_workload: zero total load");
    double run = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      run += (load.empty() ? 1.0 : std::max(load[i], 0.0)) / total;
      cum[i] = run;
    }
    cum.back() = 1.0;  // absorb rounding
  }
  std::vector<OnlineRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    // Map the stream position onto the trace's days so busy days become
    // burst windows of the generated stream.
    const std::size_t day =
        count > 0 ? static_cast<std::size_t>(
                        (static_cast<long long>(i) * util.size()) / count)
                  : 0;
    const double rate = base_rate_per_s * (0.5 + util[day]);
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate;  // Poisson
    OnlineRequest r;
    r.arrival_s = t;
    const double u = rng.uniform();
    std::size_t ti = 0;
    while (ti + 1 < cum.size() && u > cum[ti]) ++ti;
    r.tenant_id = tenants[ti].id;
    r.req_class = tenants[ti].default_class;
    draw_sharegpt_shape(rng, max_prompt, max_gen, r);
    reqs.push_back(r);
  }
  return reqs;
}

double fraction_below(const std::vector<OnlineRequest>& reqs, int threshold) {
  if (reqs.empty()) return 0.0;
  int below = 0;
  for (const auto& r : reqs) below += r.prompt_len < threshold;
  return static_cast<double>(below) / static_cast<double>(reqs.size());
}

namespace {

/// Serial traversal time of the whole pipeline for one pass: with a single
/// in-flight batch, round r+1 depends on round r's token, so stages do not
/// overlap; the pass costs the sum of stage times plus transfers. When
/// `stage_s` is non-null it accumulates each stage's share (embedding to
/// the first non-empty stage, a transfer to its receiving stage) so the
/// health monitor can attribute a dispatch's cost per stage.
double pass_time(const ModelSpec& model, const ClusterSpec& cluster,
                 const ExecutionPlan& plan, Phase phase, int batch,
                 int seq_or_ctx, std::vector<double>* stage_s = nullptr) {
  double total = 0.0;
  int prev_dev = -1;
  bool first = true;
  for (int p = 0; p < plan.num_stages(); ++p) {
    if (plan.stage_size(p) == 0) continue;
    const int dev = plan.device_order[static_cast<std::size_t>(p)];
    const GpuSpec& gpu = cluster.devices[static_cast<std::size_t>(dev)].gpu();
    const PhaseShape shape = phase == Phase::kPrefill
                                 ? prefill_shape(batch, seq_or_ctx)
                                 : decode_shape(batch, seq_or_ctx);
    double stage_t = 0.0;
    for (int bits : plan.stage_bits(p))
      stage_t += layer_time_ground_truth(gpu, model, shape, bits);
    if (first) {
      const std::int64_t tokens =
          phase == Phase::kPrefill
              ? static_cast<std::int64_t>(batch) * seq_or_ctx
              : static_cast<std::int64_t>(batch);
      stage_t += embedding_time_ground_truth(gpu, model, tokens);
      first = false;
    }
    if (prev_dev >= 0 && prev_dev != dev)
      stage_t += cluster.link(prev_dev, dev)
                     .transfer_time(activation_bytes(model, shape));
    prev_dev = dev;
    total += stage_t;
    if (stage_s != nullptr && p < static_cast<int>(stage_s->size()))
      (*stage_s)[static_cast<std::size_t>(p)] += stage_t;
  }
  return total;
}

/// The simulator's executor: each decision costs the roofline pass times
/// of the working plan, and the fault lottery mirrors the runtime fault
/// injector on the virtual clock. Applied repairs mutate the working plan,
/// so the next decision runs on it (the runtime swaps engines at the same
/// point).
class PassTimeExecutor final : public DispatchExecutor {
 public:
  PassTimeExecutor(const ModelSpec& model, const ClusterSpec& cluster,
                   const ExecutionPlan& plan, const SchedulerOptions& options,
                   const FaultPlan& faults, const OnlineReplanOptions* replan)
      : model_(model),
        cluster_(cluster),
        options_(options),
        plan_(plan),
        lottery_(faults) {
    if (replan != nullptr)
      replanner_.emplace(*replan->cost, replan->indicator, replan->theta);
  }

  DispatchRun run(const DispatchDecision& d, double start_s) override {
    DispatchRun r;
    r.stage_busy_s.assign(static_cast<std::size_t>(plan_.num_stages()), 0.0);
    const std::optional<double> drawn = check_faults(r.stage_busy_s);
    if (!drawn) {
      r.failed = true;  // a failed dispatch costs no virtual time
      r.finish_s = start_s;
      return r;
    }
    const double straggle = *drawn;
    const int batch = static_cast<int>(d.request_ids.size());
    double finish;
    if (d.phase == ServePhase::kPrefillPass) {
      r.prefill_end_s = start_s + straggle +
                        pass(Phase::kPrefill, batch, d.padded_prompt,
                             r.stage_busy_s);
      finish = r.prefill_end_s;
      if (options_.policy == SchedulerPolicy::kStaticBatching) {
        // Static batching runs the whole padded generation as one unit;
        // the batch stays intact until its longest request finishes.
        for (int round = 1; round < d.padded_gen; ++round)
          finish += pass(Phase::kDecode, batch, d.padded_prompt + round,
                         r.stage_busy_s);
      }
    } else if (options_.exec == DecodeExec::kReplay) {
      // Replay decode re-runs every active context for one token, so the
      // round costs a prefill-shaped pass over the padded context — the
      // cost model the session path is benchmarked against.
      finish = start_s + straggle +
               pass(Phase::kPrefill, batch, d.max_context, r.stage_busy_s);
    } else if (options_.exec == DecodeExec::kContinuous && d.num_join > 0) {
      // Mixed continuous round: the joining rows' ride-along prefill runs
      // first (the runtime's prefill-then-decode call order), then the
      // continuing rows decode one token each.
      r.prefill_end_s = start_s + straggle +
                        pass(Phase::kPrefill, d.num_join, d.padded_prompt,
                             r.stage_busy_s);
      finish = r.prefill_end_s + pass(Phase::kDecode, batch - d.num_join,
                                      d.max_context, r.stage_busy_s);
    } else {
      finish = start_s + straggle +
               pass(Phase::kDecode, batch, d.max_context, r.stage_busy_s);
    }
    r.finish_s = finish;
    r.dispatch_s = finish - start_s;
    return r;
  }

  bool repairs() const override { return replanner_.has_value(); }

  void repair(const HealthVerdict& verdict, ReplanEvent& ev) override {
    ev.delta = replanner_->propose(plan_, verdict);
    ev.applied = ev.delta.kind != PlanDeltaKind::kNone;
    if (ev.applied) plan_ = Replanner::apply(plan_, ev.delta);
  }

  void fill(OnlineReport& rep) const override {
    rep.fault_events = fault_events_;
    rep.final_plan = plan_;
  }

 private:
  double pass(Phase phase, int batch, int seq_or_ctx,
              std::vector<double>& stage_busy) const {
    return pass_time(model_, cluster_, plan_, phase, batch, seq_or_ctx,
                     &stage_busy);
  }

  /// Draws the dispatch's fault sites with the runtime's semantics: a
  /// delay or slow rule adds straggle, kDrop is a no-op, any other kind
  /// fails the dispatch. One "sim.dispatch" draw, then one
  /// "serve.stage.<p>" draw per plan stage, whose delay is charged once
  /// per layer of stage p — so migrating layers off a straggling stage
  /// shrinks the drag. Returns the straggle, or nullopt when the dispatch
  /// failed (later stages' sites are then not drawn, as on the runtime).
  std::optional<double> check_faults(std::vector<double>& stage_busy) {
    if (lottery_.empty()) return 0.0;
    double straggle = 0.0;
    const FaultAction fa = lottery_.check("sim.dispatch");
    if (fa.kind != FaultKind::kNone) ++fault_events_;
    if (fa.kind == FaultKind::kDelay || fa.kind == FaultKind::kSlow)
      straggle = fa.delay_s;
    else if (fa.kind == FaultKind::kThrow || fa.kind == FaultKind::kAllocFail)
      return std::nullopt;
    for (int p = 0; p < plan_.num_stages(); ++p) {
      const FaultAction sa =
          lottery_.check(("serve.stage." + std::to_string(p)).c_str());
      if (sa.kind == FaultKind::kNone) continue;
      ++fault_events_;
      if (sa.kind == FaultKind::kDelay || sa.kind == FaultKind::kSlow) {
        const double drag = sa.delay_s * plan_.stage_size(p);
        straggle += drag;
        stage_busy[static_cast<std::size_t>(p)] += drag;
      } else if (sa.kind != FaultKind::kDrop) {
        return std::nullopt;
      }
    }
    return straggle;
  }

  const ModelSpec& model_;
  const ClusterSpec& cluster_;
  const SchedulerOptions& options_;
  ExecutionPlan plan_;  ///< working copy; repairs mutate it
  FaultLottery lottery_;
  std::optional<Replanner> replanner_;
  int fault_events_ = 0;
};

}  // namespace

OnlineReport simulate_online(const ModelSpec& model, const ClusterSpec& cluster,
                             const ExecutionPlan& plan,
                             const std::vector<OnlineRequest>& requests,
                             const SchedulerOptions& options,
                             const FaultPlan& faults,
                             const OnlineReplanOptions* replan) {
  plan.validate(model.layers, cluster.num_devices());
  check_arg(replan == nullptr || replan->cost != nullptr,
            "simulate_online: OnlineReplanOptions needs a cost provider");

  // The plan's memory feasibility gates the run exactly like offline.
  {
    const SimResult probe = simulate_plan(model, cluster, plan);
    if (!probe.ok) {
      OnlineReport rep;
      rep.error = probe.error;
      return rep;
    }
  }

  ServeScheduler scheduler(options);
  // Simulated serving lifecycles land on the sim pid, so a sim run and a
  // runtime run of the same trace are distinct tracks in one trace file.
  scheduler.enable_trace(trace_pids::kSim, 0.0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ServeRequest r;
    r.id = static_cast<int>(i);  // ids index the input vector
    r.arrival_s = requests[i].arrival_s;
    r.prompt_len = requests[i].prompt_len;
    r.gen_tokens = requests[i].gen_tokens;
    r.tenant_id = requests[i].tenant_id;
    r.req_class = requests[i].req_class;
    scheduler.submit(r);
  }
  scheduler.close();

  VirtualClock clock("simulate_online");
  PassTimeExecutor exec(model, cluster, plan, options, faults, replan);
  return DispatchLoop(scheduler, clock, exec,
                      replan != nullptr ? &replan->health : nullptr)
      .run();
}

}  // namespace llmpq
