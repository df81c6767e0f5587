#include "serve/dispatch_loop.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace llmpq {

namespace {

OnlineReport build_report(const ServeScheduler& scheduler, double makespan_s,
                          const DispatchLoop& loop) {
  OnlineReport rep;
  rep.ok = true;
  rep.requests = scheduler.finished();
  rep.decisions = scheduler.decision_log();
  rep.makespan_s = makespan_s;
  // Throughput and the latency summaries cover served requests only —
  // folding rejected/timed-out requests in would make a lossy run look
  // faster, not slower.
  std::int64_t tokens_out = 0;
  std::vector<double> latencies, queue_delays, prefills;
  latencies.reserve(rep.requests.size());
  queue_delays.reserve(rep.requests.size());
  prefills.reserve(rep.requests.size());
  for (const RequestStats& r : rep.requests) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    ++rep.completed;
    tokens_out += r.gen_tokens;
    latencies.push_back(r.finish_s - r.arrival_s);
    queue_delays.push_back(r.queue_delay_s);
    prefills.push_back(r.prefill_s);
  }
  rep.preemptions = scheduler.preemptions();
  rep.forced_joins = scheduler.forced_joins();
  rep.tenants = scheduler.tenant_summaries();
  const OutcomeCounts oc = scheduler.outcomes();
  rep.timed_out = oc.timed_out;
  rep.rejected = oc.rejected;
  rep.failed = oc.failed;
  rep.retries = oc.retries;
  rep.replans = loop.replans();
  rep.migrations = loop.migrations();
  rep.throughput_tokens_per_s =
      makespan_s > 0.0 ? static_cast<double>(tokens_out) / makespan_s : 0.0;
  rep.latency = summarize_latency(std::move(latencies));
  rep.queue_delay = summarize_latency(std::move(queue_delays));
  rep.prefill = summarize_latency(std::move(prefills));
  return rep;
}

}  // namespace

void VirtualClock::wait(double /*now*/, double until) {
  if (!std::isfinite(until))
    throw InvalidArgumentError(std::string(who_) +
                               ": scheduler blocked on a closed stream");
  t_ = std::max(t_, until);
}

DispatchLoop::DispatchLoop(ServeScheduler& scheduler, DispatchClock& clock,
                           DispatchExecutor& executor,
                           const HealthMonitorOptions* health)
    : scheduler_(scheduler), clock_(clock), exec_(executor) {
  if (health != nullptr) monitor_.emplace(*health);
}

OnlineReport DispatchLoop::run() {
  try {
    dispatch_all();
  } catch (...) {
    exec_.finish(*this);
    throw;
  }
  exec_.finish(*this);
  OnlineReport rep =
      build_report(scheduler_, clock_.makespan(last_finish_s_), *this);
  exec_.fill(rep);
  return rep;
}

void DispatchLoop::dispatch_all() {
  for (;;) {
    const double now = clock_.now();
    SchedulerAction a = scheduler_.next(now);
    // next() can finish requests (deadline expiry), and so can the fail()
    // and complete() of the previous iteration.
    exec_.reconcile(scheduler_);
    if (a.kind == SchedulerAction::Kind::kDone) return;
    if (a.kind == SchedulerAction::Kind::kWait) {
      clock_.wait(now, a.wait_until);
      continue;
    }
    const DispatchDecision d = std::move(a.decision);
    exec_.prepare(d);
    const DispatchRun run = exec_.run(d, clock_.begin());
    const double at = clock_.end(run.finish_s);
    if (run.failed) {
      // The scheduler retries with backoff (kFailed past the cap); the
      // executor then recovers or raises the terminal error.
      scheduler_.fail(d, at);
      exec_.recover();
      continue;
    }
    exec_.commit(d);
    scheduler_.complete(d, at, run.prefill_end_s);
    last_finish_s_ = at;
    if (monitor_) control_step(d, run);
    exec_.after_dispatch(*this, at);
  }
}

void DispatchLoop::control_step(const DispatchDecision& d,
                                const DispatchRun& run) {
  HealthSample sample;
  sample.seq = d.seq;
  sample.dispatch_s = run.dispatch_s;
  sample.stage_busy_s = run.stage_busy_s;
  sample.queue_depth = scheduler_.pending();
  sample.preemptions = scheduler_.preemptions();
  sample.mem_faults = exec_.mem_faults();
  const HealthVerdict verdict = monitor_->observe(sample);
  if (verdict.healthy() || !exec_.repairs()) return;
  ReplanEvent ev;
  ev.at_seq = verdict.at_seq;
  ev.status = verdict.status;
  ev.bottleneck_stage = verdict.bottleneck_stage;
  ev.severity = verdict.severity;
  exec_.repair(verdict, ev);
  if (ev.applied) ++migrations_;
  replans_.push_back(ev);
}

}  // namespace llmpq
