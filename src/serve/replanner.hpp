#pragma once

#include <string>

#include "core/estimator.hpp"
#include "core/plan.hpp"
#include "serve/health.hpp"

namespace llmpq {

/// Single-move plan repairs for the online control loop. On a health
/// verdict the Replanner searches the O(1)-rescorable moves the
/// IncrementalPlanEvaluator exposes and emits the best one as a PlanDelta;
/// the serving layer (MigrationController / the simulator mirror) applies
/// it live. The search is deterministic — candidate order and tie-breaks
/// are fixed — so both back-ends propose the identical delta from the same
/// plan and verdict, which is what puts re-plan events into the
/// sim-vs-runtime parity key.
///
/// Repair policy per verdict (DESIGN.md "Online control loop & elastic
/// migration"):
///   kStraggler       migrate one layer off the bottleneck stage to an
///                    adjacent stage (bit-preserving, hence bit-exact:
///                    the replacement engine shares the same weights)
///   kMemoryPressure  lower one bottleneck-stage layer to the next bit
///                    candidate (trades quality for memory; NOT
///                    bit-preserving, documented as such)
///   kOverload        halve the micro-batch sizes (smaller dispatch
///                    quanta drain the queue sooner)

enum class PlanDeltaKind : char {
  kNone,          ///< no feasible single-move repair
  kMigrateLayer,  ///< move `layer` from `from_stage` to `to_stage`
  kBitChange,     ///< requantize `layer` to `new_bits`
  kMicroBatch,    ///< set prefill/decode micro-batch sizes
};

struct PlanDelta {
  PlanDeltaKind kind = PlanDeltaKind::kNone;
  int layer = -1;
  int from_stage = -1;
  int to_stage = -1;
  int new_bits = -1;
  int prefill_micro_batch = 0;
  int decode_micro_batch = 0;
  double base_objective = 0.0;  ///< evaluator score before the move
  double new_objective = 0.0;   ///< evaluator score after the move

  std::string describe() const;

  /// Parity comparison: every structural field, none of the scores (the
  /// two back-ends run different clocks but identical search state).
  bool same_move(const PlanDelta& other) const {
    return kind == other.kind && layer == other.layer &&
           from_stage == other.from_stage && to_stage == other.to_stage &&
           new_bits == other.new_bits &&
           prefill_micro_batch == other.prefill_micro_batch &&
           decode_micro_batch == other.decode_micro_batch;
  }
};

/// One control-loop decision, recorded by both back-ends. Alongside the
/// scheduler's DispatchDecision log this forms the extended parity key:
/// `same_decision` compares verdict identity and the proposed move, not
/// severities or objective scores (those are clock-dependent).
struct ReplanEvent {
  int at_seq = -1;  ///< decision seq the verdict tripped on
  HealthStatus status = HealthStatus::kHealthy;
  int bottleneck_stage = -1;
  double severity = 0.0;  ///< informational; excluded from parity
  PlanDelta delta;
  bool applied = false;  ///< false when no feasible repair existed

  bool same_decision(const ReplanEvent& other) const {
    return at_seq == other.at_seq && status == other.status &&
           bottleneck_stage == other.bottleneck_stage &&
           applied == other.applied && delta.same_move(other.delta);
  }
};

class PipelineEngine;

/// What a replan hook hands back to the serving loop: the delta it decided
/// on (kNone = no feasible repair) and, when the delta was applied, the
/// replacement engine to migrate onto. The hook's owner retains engine
/// ownership (MigrationController is the canonical owner).
struct ReplanOutcome {
  PipelineEngine* engine = nullptr;
  PlanDelta delta;
};

class Replanner {
 public:
  /// `indicator` may be null. References must outlive the Replanner.
  Replanner(const CostProvider& cost, const IndicatorResult* indicator,
            double theta)
      : cost_(cost), indicator_(indicator), theta_(theta) {}

  /// Searches single-move repairs for `verdict` against `plan`; returns
  /// kNone when nothing feasible improves the verdict's pressure.
  PlanDelta propose(const ExecutionPlan& plan,
                    const HealthVerdict& verdict) const;

  /// Applies a delta to a plan (pure; validates the result). kNone returns
  /// the plan unchanged.
  static ExecutionPlan apply(const ExecutionPlan& plan, const PlanDelta& delta);

 private:
  const CostProvider& cost_;
  const IndicatorResult* indicator_;
  double theta_;
};

}  // namespace llmpq
