#pragma once

#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/plan.hpp"
#include "hw/cluster.hpp"
#include "hw/trace.hpp"
#include "model/model_spec.hpp"
#include "serve/dispatch_loop.hpp"
#include "serve/replanner.hpp"
#include "serve/scheduler.hpp"

namespace llmpq {

/// Online-serving extension (paper Sec. 2.3 / Sec. 7): LLM-PQ targets the
/// offline task, but the discussion sketches applying its plans to
/// ORCA/vLLM-style online serving, where requests arrive unpredictably
/// with varying prompt and generation lengths. This module provides a
/// ShareGPT-shaped request generator and the *simulator executor* of the
/// shared `DispatchLoop` (serve/dispatch_loop.hpp): the loop that drives
/// the real `PipelineEngine` runs here on a virtual clock advanced by
/// analytic roofline pass times, so the two back-ends make identical
/// admission, batching and re-plan decisions on identical traces (the
/// sim-vs-runtime parity tests assert exactly that).

struct OnlineRequest {
  double arrival_s = 0.0;
  int prompt_len = 0;
  int gen_tokens = 0;
  int tenant_id = 0;   ///< ServeRequest::tenant_id (multi-tenant runs)
  int req_class = 0;   ///< ServeRequest::req_class (bitwidth routing)
};

/// Synthetic ShareGPT-like workload (paper Sec. 2.1: "prompt length varies
/// substantially", with a large short-prompt mass and a long tail).
/// Poisson arrivals at `rate_per_s`.
std::vector<OnlineRequest> generate_sharegpt_workload(Rng& rng, int count,
                                                      double rate_per_s,
                                                      int max_prompt = 1024,
                                                      int max_gen = 256);

/// Multi-tenant workload whose aggregate arrival rate follows the cluster
/// utilization trace (hw/trace.hpp): the request stream is mapped onto the
/// trace's days and each day's Poisson rate is
/// `base_rate_per_s * (0.5 + fleet_util(day))`, so busy trace days become
/// burst windows. Each request draws its tenant from `load` (per-tenant
/// arrival share, normalized; empty = equal shares), takes that tenant's
/// default_class, and uses the ShareGPT shape mix for lengths. This is the
/// scenario generator behind the 10^6-request scale runs — deterministic
/// given the rng seed, so scale baselines are reproducible.
std::vector<OnlineRequest> generate_tenant_workload(
    Rng& rng, const ClusterTrace& trace,
    const std::vector<TenantSpec>& tenants, int count, double base_rate_per_s,
    const std::vector<double>& load = {}, int max_prompt = 1024,
    int max_gen = 256);

/// Fraction of prompts shorter than `threshold` (the paper's "< 128"
/// observation).
double fraction_below(const std::vector<OnlineRequest>& reqs, int threshold);

/// Arms the dispatch loop's control step in the simulator (DESIGN.md
/// "Online control loop & elastic migration"): the loop feeds the
/// HealthMonitor one sample per dispatched decision (dispatch cost +
/// per-stage busy breakdown from the roofline model) and the simulator
/// applies the Replanner's single-move repairs to its working copy of the
/// plan. With identical traces, fault plans, and health options, the sim's
/// ReplanEvent log matches the runtime's event for event
/// (ReplanEvent::same_decision) — the extended parity key.
struct OnlineReplanOptions {
  /// Health-monitor knobs; defaults are the parity-tested configuration.
  HealthMonitorOptions health;
  /// Cost model for the Replanner's feasibility/objective scoring.
  /// Required (the simulator cannot propose repairs without one).
  const CostProvider* cost = nullptr;
  /// Optional quality indicator for the evaluator's objective.
  const IndicatorResult* indicator = nullptr;
  /// Quality/latency trade-off weight (same theta as the offline planner).
  double theta = 0.0;
};

/// Replays `requests` against the plan's pipeline on the simulated
/// cluster and returns the same `OnlineReport` the runtime produces.
/// Timing comes from the same roofline ground truth the offline simulator
/// uses; memory feasibility of the plan is checked up front (an
/// infeasible plan yields `ok == false` with the reason in `error`).
///
/// `faults` mirrors the runtime fault injector on the virtual clock, with
/// the runtime's semantics at every site: on "sim.dispatch" (the
/// runtime's "serve.dispatch") a delay or slow rule inflates that
/// dispatch's pass time (straggler), a drop rule does nothing, and a
/// throw or alloc rule fails the dispatch, exercising the scheduler's
/// retry/backoff/kFailed path at no virtual-time cost. Per-stage sites
/// "serve.stage.<p>" are evaluated once per decision per plan stage (the
/// runtime's cadence), with delay/slow rules charged once per layer of
/// stage p — so migrating layers off a straggling stage visibly shrinks
/// the drag on the virtual clock. Every firing counts in
/// `fault_events`. The lottery is seeded by the plan alone, so identical
/// (requests, options, faults) runs are bit-identical — chaos tests sweep
/// seeds on top of this determinism.
///
/// `replan`, when non-null, arms the control step (see
/// OnlineReplanOptions); the plan evolves inside the run and the report
/// carries the decision log plus the final plan.
OnlineReport simulate_online(const ModelSpec& model, const ClusterSpec& cluster,
                             const ExecutionPlan& plan,
                             const std::vector<OnlineRequest>& requests,
                             const SchedulerOptions& options = {},
                             const FaultPlan& faults = {},
                             const OnlineReplanOptions* replan = nullptr);

}  // namespace llmpq
