#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/plan.hpp"
#include "model/model_spec.hpp"
#include "serve/health.hpp"
#include "serve/replanner.hpp"
#include "serve/scheduler.hpp"

namespace llmpq {

/// One dispatch loop for every serving mode (DESIGN.md "Serving scheduler:
/// one loop, two executors, three clocks"). The loop asks the shared
/// `ServeScheduler` what to do next, runs each decision on an executor,
/// hands the result back (complete or fail), and feeds one health sample
/// per dispatch to the control step (HealthSample -> verdict ->
/// ReplanEvent). It is written once; a mode is a choice of
///
///   * clock — the wall clock of the live `OnlineEngine` (its lock is
///     released around each execution), or a virtual clock advanced by
///     the executor's finish stamp: measured engine time for trace replay
///     (`serve_trace`), analytic pass time for the simulator
///     (`simulate_online`);
///   * executor — the real `PipelineEngine` (sessions, restarts, degrade
///     ladder, engine swaps) or the simulator's roofline pass times (fault
///     lottery, evolving plan).
///
/// Because both back-ends run this same loop, the sim-vs-runtime parity of
/// decision and re-plan logs follows from construction: only the cost of a
/// dispatch differs between them.

/// Outcome of one serving run, from any mode.
struct OnlineReport {
  /// True when the run served its stream to the end. False only when it
  /// could not start — the simulator rejects a memory-infeasible plan this
  /// way, with the reason in `error`; the runtime throws instead.
  bool ok = false;
  std::string error;

  int completed = 0;  ///< requests served normally (outcome kCompleted)
  double makespan_s = 0.0;
  double throughput_tokens_per_s = 0.0;  ///< useful (unpadded) tokens
  LatencySummary latency;      ///< arrival -> last token (completed only)
  LatencySummary queue_delay;  ///< arrival -> admission (no prefill inside)
  LatencySummary prefill;      ///< prefill pass time per request
  std::vector<RequestStats> requests;       ///< completion order
  std::vector<DispatchDecision> decisions;  ///< dispatch order (parity key)
  /// Output tokens indexed by request id (runtime only; the simulator
  /// produces no tokens and leaves it empty).
  std::vector<std::vector<TokenId>> generated;

  // ---- Re-plan decision log. Joins `decisions` in the sim-vs-runtime
  // parity contract: on identical traces with identical fault plans and
  // control-loop options, both back-ends produce the same events in the
  // same order. Compared fields (ReplanEvent::same_decision): at_seq (the
  // DispatchDecision::seq the verdict tripped on), status,
  // bottleneck_stage, applied, and the structural PlanDelta fields (kind,
  // layer, from/to stage, new_bits, micro-batches). Severities and
  // objective scores are clock-dependent and deliberately excluded.
  std::vector<ReplanEvent> replans;
  /// Applied deltas: engine swaps on the runtime, plan mutations in the
  /// simulator.
  int migrations = 0;
  /// The plan in effect when the run ended, for back-ends that carry one:
  /// the simulator's working plan after its applied deltas. Empty on the
  /// runtime, whose plan lives with the replan hook's owner
  /// (MigrationController::plan()).
  ExecutionPlan final_plan;

  // ---- Fault accounting (all zero on a fault-free run).
  int timed_out = 0;        ///< requests past deadline_s
  int rejected = 0;         ///< bounced by the admission bound
  int failed = 0;           ///< exhausted max_retries
  int retries = 0;          ///< total dispatch retries consumed
  /// Fault-plan rules that fired at the loop's own dispatch sites
  /// ("serve.dispatch" on the runtime, "sim.dispatch" in the simulator,
  /// and "serve.stage.<p>" on both), delays included.
  int fault_events = 0;
  int engine_restarts = 0;  ///< PipelineEngine::restart() invocations
  int degrades = 0;         ///< degradation-ladder steps taken
  int mem_faults = 0;       ///< std::bad_alloc dispatches observed
  int preemptions = 0;      ///< capacity-planner evictions (kContinuous)
  int forced_joins = 0;     ///< starvation-bound admissions (kContinuous)

  /// Per-tenant outcome/latency/SLO summaries (one synthetic row when no
  /// tenants are configured).
  std::vector<TenantSummary> tenants;
};

/// What executing one decision produced.
struct DispatchRun {
  bool failed = false;
  /// When the dispatch ended on a virtual clock, failed ones included
  /// (trace replay charges a failure its wall time, the simulator charges
  /// it nothing). The wall clock reads its own time instead.
  double finish_s = 0.0;
  double prefill_end_s = -1.0;  ///< end of the prefill part; -1 = none
  double dispatch_s = 0.0;      ///< the health sample's dispatch cost
  std::vector<double> stage_busy_s;  ///< per-stage attribution of it
};

class DispatchLoop;

/// Where the loop's time comes from.
class DispatchClock {
 public:
  virtual double now() = 0;
  /// Nothing to do before `until` (+inf: until a submission arrives);
  /// `now` is the time the scheduler was asked at.
  virtual void wait(double now, double until) = 0;
  /// Bracket one execution: begin() returns its start time; end() takes
  /// the executor's finish stamp and returns the time the outcome is
  /// reported at.
  virtual double begin() { return now(); }
  virtual double end(double finish_s) = 0;
  /// Makespan of a run whose last completed dispatch ended at
  /// `last_finish_s`.
  virtual double makespan(double last_finish_s) = 0;

 protected:
  ~DispatchClock() = default;  // not owned through the interface
};

/// Virtual clock of trace replay and the simulator: waits jump straight to
/// their deadline, and each dispatch moves the clock to the executor's
/// finish stamp. The makespan is the final clock value.
class VirtualClock final : public DispatchClock {
 public:
  /// `who` names the caller in the error a wait on a closed, idle stream
  /// raises.
  explicit VirtualClock(const char* who) : who_(who) {}
  double now() override { return t_; }
  void wait(double now, double until) override;
  double end(double finish_s) override { return t_ = finish_s; }
  double makespan(double) override { return t_; }

 private:
  const char* who_;
  double t_ = 0.0;
};

/// The back-end half of a serving mode. Every hook but run() is called
/// with the loop's request tables stable (the live engine holds its lock).
class DispatchExecutor {
 public:
  /// Snapshots whatever run() needs from the request tables.
  virtual void prepare(const DispatchDecision&) {}
  /// Executes a decision that started at `start_s`. Reports failures in
  /// the result instead of throwing. The live engine calls it with its
  /// lock released.
  virtual DispatchRun run(const DispatchDecision& d, double start_s) = 0;
  /// Keeps the outputs of the run that just succeeded.
  virtual void commit(const DispatchDecision&) {}
  /// Recovers after the scheduler took a failed run back; throws the
  /// terminal error when recovery is impossible.
  virtual void recover() {}
  /// Called after every scheduler step: release what finished requests
  /// still hold.
  virtual void reconcile(const ServeScheduler&) {}
  /// True when health verdicts are handed to repair().
  virtual bool repairs() const { return false; }
  /// Chooses a repair for `verdict`, fills `event.delta` and
  /// `event.applied`, and applies it: an engine swap on the runtime, a
  /// plan mutation in the simulator. Throws when the repair is unusable.
  virtual void repair(const HealthVerdict&, ReplanEvent&) {}
  /// Cumulative allocation faults, for the health sample.
  virtual int mem_faults() const { return 0; }
  /// After each completed dispatch, at loop time `now_s`.
  virtual void after_dispatch(const DispatchLoop&, double /*now_s*/) {}
  /// Once when the loop stops, whether it drained or failed.
  virtual void finish(const DispatchLoop&) {}
  /// Adds the back-end's own fields to the report.
  virtual void fill(OnlineReport&) const {}

 protected:
  ~DispatchExecutor() = default;  // not owned through the interface
};

class DispatchLoop {
 public:
  /// `health` arms the control step (one HealthSample per completed
  /// dispatch); nullptr runs without it. The references must outlive the
  /// loop.
  DispatchLoop(ServeScheduler& scheduler, DispatchClock& clock,
               DispatchExecutor& executor,
               const HealthMonitorOptions* health);

  /// Serves until the scheduler is done and returns the report. A
  /// terminal error propagates after the executor's finish() hook ran.
  OnlineReport run();

  const ServeScheduler& scheduler() const { return scheduler_; }
  /// The control step's monitor; nullptr when it is off.
  const HealthMonitor* monitor() const {
    return monitor_ ? &*monitor_ : nullptr;
  }
  const std::vector<ReplanEvent>& replans() const { return replans_; }
  int migrations() const { return migrations_; }

 private:
  void dispatch_all();
  /// HealthSample -> verdict -> ReplanEvent, after a completed dispatch.
  void control_step(const DispatchDecision& d, const DispatchRun& run);

  ServeScheduler& scheduler_;
  DispatchClock& clock_;
  DispatchExecutor& exec_;
  std::optional<HealthMonitor> monitor_;
  std::vector<ReplanEvent> replans_;
  int migrations_ = 0;
  double last_finish_s_ = 0.0;
};

}  // namespace llmpq
