#include "serve/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "serve/capacity_scheduler.hpp"

namespace llmpq {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kStaticBatching:
      return "static-batching";
    case SchedulerPolicy::kIterationLevel:
      return "iteration-level";
  }
  return "?";
}

const char* request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kCompleted:
      return "completed";
    case RequestOutcome::kTimedOut:
      return "timed-out";
    case RequestOutcome::kRejected:
      return "rejected";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "?";
}

ServeScheduler::ServeScheduler(const SchedulerOptions& options)
    : options_(options) {
  check_arg(options_.max_batch >= 1 && options_.batch_size >= 1,
            "ServeScheduler: batch limits must be positive");
  check_arg(options_.max_wait_s >= 0.0,
            "ServeScheduler: max_wait_s must be non-negative");
  check_arg(options_.deadline_s > 0.0,
            "ServeScheduler: deadline_s must be positive");
  check_arg(options_.admission_capacity >= 0,
            "ServeScheduler: admission_capacity must be >= 0");
  check_arg(options_.max_retries >= 0,
            "ServeScheduler: max_retries must be >= 0");
  check_arg(options_.retry_backoff_s >= 0.0 &&
                options_.retry_backoff_max_s >= 0.0,
            "ServeScheduler: retry backoff must be non-negative");
  check_arg(options_.exec != DecodeExec::kContinuous ||
                options_.policy == SchedulerPolicy::kIterationLevel,
            "ServeScheduler: kContinuous requires kIterationLevel");
  check_arg(options_.token_budget >= 0 && options_.kv_pages >= 0 &&
                options_.kv_page_size >= 1,
            "ServeScheduler: bad continuous-batching budgets");
  check_arg(options_.admit_scan_limit >= 0,
            "ServeScheduler: admit_scan_limit must be >= 0");
  for (std::size_t i = 0; i < options_.tenants.size(); ++i) {
    const TenantSpec& spec = options_.tenants[i];
    check_arg(spec.weight > 0.0, "ServeScheduler: tenant weight must be > 0");
    check_arg(spec.deadline_s > 0.0,
              "ServeScheduler: tenant deadline_s must be positive");
    check_arg(spec.admission_capacity >= 0,
              "ServeScheduler: tenant admission_capacity must be >= 0");
    check_arg(tenant_index_.emplace(spec.id, static_cast<int>(i)).second,
              "ServeScheduler: duplicate tenant id");
    tenant_deadlines_ |= spec.deadline_s != kInf;
    tenant_admission_ |= spec.admission_capacity > 0;
  }
  service_.assign(options_.tenants.size(), 0.0);
  // -1 = auto: the starvation bound arms itself with tenants (a fair-share
  // pass that can still starve a tenant's joins behind a full batch would
  // be fair in name only) and stays off in legacy mode so historical
  // decision logs are bit-identical.
  if (options_.join_starvation_rounds < 0)
    options_.join_starvation_rounds = options_.tenants.empty() ? 0 : 16;
}

void ServeScheduler::enqueue(QueuedReq entry) {
  // Keep the queue sorted by (eligible, id) so trace replay can submit a
  // whole workload up front in any order; live submissions (arrival = now)
  // land at the back and retries slot in at their backoff-release time.
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), entry,
      [](const QueuedReq& a, const QueuedReq& b) {
        return a.eligible_s != b.eligible_s ? a.eligible_s < b.eligible_s
                                            : a.req.id < b.req.id;
      });
  queue_.insert(pos, std::move(entry));
}

void ServeScheduler::submit(const ServeRequest& request) {
  check_arg(!closed_, "ServeScheduler: submit() after close()");
  check_arg(request.prompt_len >= 1 && request.gen_tokens >= 0,
            "ServeScheduler: bad request shape");
  // Ids are single-use for the scheduler's lifetime: back-ends index
  // per-request buffers by id, so reusing a finished request's id would
  // silently alias its slot. The ever-seen set also makes the duplicate
  // check O(1) instead of an O(n) queue scan per submit.
  check_arg(ids_.insert(request.id).second,
            "ServeScheduler: duplicate request id (ids are single-use)");
  check_arg(options_.tenants.empty() ||
                tenant_index_.count(request.tenant_id) > 0,
            "ServeScheduler: request names an unconfigured tenant");
  QueuedReq entry;
  entry.req = request;
  entry.eligible_s = request.arrival_s;
  enqueue(std::move(entry));
}

void ServeScheduler::close() { closed_ = true; }

int ServeScheduler::arrived_count(double now) const {
  int n = 0;
  for (const QueuedReq& r : queue_) {
    if (r.eligible_s > now) break;  // sorted: the rest are in the future
    ++n;
  }
  return n;
}

double ServeScheduler::backoff_s(int attempt) const {
  double b = options_.retry_backoff_s;
  for (int i = 1; i < attempt && b < options_.retry_backoff_max_s; ++i)
    b *= 2.0;
  return std::min(b, options_.retry_backoff_max_s);
}

int ServeScheduler::tenant_idx(int tenant_id) const {
  const auto it = tenant_index_.find(tenant_id);
  return it == tenant_index_.end() ? -1 : it->second;
}

double ServeScheduler::weight_of(int tenant_id) const {
  const int ti = tenant_idx(tenant_id);
  return ti < 0 ? 1.0 : options_.tenants[static_cast<std::size_t>(ti)].weight;
}

double ServeScheduler::deadline_for(int tenant_id) const {
  const int ti = tenant_idx(tenant_id);
  const double tenant_deadline =
      ti < 0 ? kInf
             : options_.tenants[static_cast<std::size_t>(ti)].deadline_s;
  return std::min(options_.deadline_s, tenant_deadline);
}

void ServeScheduler::charge_service(int tenant_id, double tokens) {
  if (service_.empty()) return;
  const int ti = tenant_idx(tenant_id);
  if (ti >= 0)
    service_[static_cast<std::size_t>(ti)] += tokens / weight_of(tenant_id);
}

void ServeScheduler::clamp_idle_service() {
  if (service_.empty()) return;
  // "Holding rows" = active or parked-for-resume: those tenants' accounts
  // define the system's virtual time. Tenants holding nothing are lifted
  // to the smallest such account so idleness banks no credit.
  std::vector<bool> holds(service_.size(), false);
  for (const ActiveReq& r : active_) {
    const int ti = tenant_idx(r.tenant);
    if (ti >= 0) holds[static_cast<std::size_t>(ti)] = true;
  }
  for (const ActiveReq& r : resume_) {
    const int ti = tenant_idx(r.tenant);
    if (ti >= 0) holds[static_cast<std::size_t>(ti)] = true;
  }
  double floor = kInf;
  for (std::size_t i = 0; i < service_.size(); ++i)
    if (holds[i]) floor = std::min(floor, service_[i]);
  if (floor == kInf) return;  // nobody holds rows: accounts stay put
  for (std::size_t i = 0; i < service_.size(); ++i)
    if (!holds[i]) service_[i] = std::max(service_[i], floor);
}

void ServeScheduler::record_decision(const DispatchDecision& d) {
  in_flight_ = true;
  in_flight_seq_ = d.seq;
  if (options_.record_decisions) decision_log_.push_back(d);
}

void ServeScheduler::finish_unserved(const ServeRequest& r,
                                     RequestOutcome outcome, double finish_s,
                                     int retries) {
  RequestStats rs;
  rs.id = r.id;
  rs.arrival_s = r.arrival_s;
  rs.admit_s = finish_s;
  rs.finish_s = finish_s;
  rs.queue_delay_s = std::max(0.0, finish_s - r.arrival_s);
  rs.prompt_len = r.prompt_len;
  rs.gen_tokens = r.gen_tokens;
  rs.tenant = r.tenant_id;
  rs.req_class = r.req_class;
  rs.outcome = outcome;
  rs.retries = retries;
  finished_.push_back(rs);
  if (trace_ && TraceSession::enabled())
    TraceSession::emit_complete("serve", request_outcome_name(outcome),
                                finish_s + trace_offset_s_, /*dur_s=*/0.0,
                                trace_pid_, /*tid=*/0, "id",
                                static_cast<double>(r.id));
}

void ServeScheduler::process_arrivals(double now) {
  // Hot path: with no deadline and no admission bound (global or
  // per-tenant) this is a no-op and the decision log matches the
  // fault-oblivious scheduler exactly.
  const bool has_deadline = options_.deadline_s != kInf || tenant_deadlines_;
  const bool has_admission =
      options_.admission_capacity > 0 || tenant_admission_;
  if (!has_deadline && !has_admission) return;
  // Expire first (including retries parked in backoff — their deadline
  // keeps running) so a request is never rejected after it already timed
  // out. Expiry is stamped at arrival + deadline, not now, so results are
  // independent of how often the back-end polls next(). Each request's
  // effective deadline is the tighter of the global and its tenant's.
  if (has_deadline) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      const double expiry =
          it->req.arrival_s + deadline_for(it->req.tenant_id);
      if (expiry <= now) {
        finish_unserved(it->req, RequestOutcome::kTimedOut, expiry,
                        it->attempts);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (has_admission) {
    int waiting = 0;
    std::vector<int> tenant_waiting(options_.tenants.size(), 0);
    for (const QueuedReq& e : queue_) {
      if (!e.admitted) continue;
      ++waiting;
      const int ti = tenant_idx(e.req.tenant_id);
      if (ti >= 0) ++tenant_waiting[static_cast<std::size_t>(ti)];
    }
    // Fresh arrivals are examined in (arrival, id) order — the queue sort
    // key — so rejection is deterministic and replay-independent. A
    // request is bounced when *either* the global bound or its tenant's
    // own bound is full.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->admitted) {
        ++it;
        continue;
      }
      if (it->eligible_s > now) break;  // fresh: eligible == arrival
      const int ti = tenant_idx(it->req.tenant_id);
      const int tenant_cap =
          ti < 0 ? 0
                 : options_.tenants[static_cast<std::size_t>(ti)]
                       .admission_capacity;
      const bool global_full = options_.admission_capacity > 0 &&
                               waiting >= options_.admission_capacity;
      const bool tenant_full =
          tenant_cap > 0 &&
          tenant_waiting[static_cast<std::size_t>(ti)] >= tenant_cap;
      if (global_full || tenant_full) {
        finish_unserved(it->req, RequestOutcome::kRejected,
                        it->req.arrival_s, 0);
        it = queue_.erase(it);
      } else {
        it->admitted = true;
        ++waiting;
        if (ti >= 0) ++tenant_waiting[static_cast<std::size_t>(ti)];
        ++it;
      }
    }
  }
}

void ServeScheduler::expire_active(double now) {
  if (options_.deadline_s == kInf && !tenant_deadlines_) return;
  const auto expire = [&](auto& set, bool parked) {
    for (auto it = set.begin(); it != set.end();) {
      auto sit = open_.find(it->id);
      check_arg(sit != open_.end(), "ServeScheduler: unknown active id");
      if (sit->second.arrival_s + deadline_for(it->tenant) <= now) {
        RequestStats rs = sit->second;
        // A sequence expiring while parked for resume spent the whole
        // parked interval waiting — the resume-wait account must see it
        // or waits would not sum to wall time.
        if (parked && it->parked_at >= 0.0)
          rs.resume_wait_s += std::max(0.0, now - it->parked_at);
        rs.finish_s = now;
        rs.outcome = RequestOutcome::kTimedOut;
        rs.retries = it->retries;
        finished_.push_back(rs);
        open_.erase(sit);
        it = set.erase(it);
      } else {
        ++it;
      }
    }
  };
  expire(active_, /*parked=*/false);
  expire(resume_, /*parked=*/true);  // preempted deadlines keep running
}

void ServeScheduler::fold_expiry_wakeups(SchedulerAction& a) const {
  if (a.kind != SchedulerAction::Kind::kWait ||
      (options_.deadline_s == kInf && !tenant_deadlines_))
    return;
  for (const QueuedReq& e : queue_)
    a.wait_until = std::min(
        a.wait_until, e.req.arrival_s + deadline_for(e.req.tenant_id));
  const auto fold = [&](const auto& set) {
    for (const ActiveReq& r : set) {
      const auto it = open_.find(r.id);
      if (it != open_.end())
        a.wait_until = std::min(
            a.wait_until, it->second.arrival_s + deadline_for(r.tenant));
    }
  };
  fold(active_);
  fold(resume_);
}

DispatchDecision ServeScheduler::make_prefill_decision(double now, int take) {
  DispatchDecision d;
  d.seq = next_seq_++;
  d.phase = ServePhase::kPrefillPass;
  // Which arrived entries join: the queue head `take` times in legacy
  // mode; with tenants, a weighted-fair interleave — repeatedly the next
  // FIFO request of the tenant with the smallest virtual-service account,
  // the account locally advanced per pick so one tenant cannot fill the
  // batch from its own backlog while cheaper tenants wait.
  std::vector<std::size_t> picks;
  picks.reserve(static_cast<std::size_t>(take));
  if (service_.empty()) {
    for (int i = 0; i < take; ++i)
      picks.push_back(static_cast<std::size_t>(i));
  } else {
    clamp_idle_service();
    const auto arrived = static_cast<std::size_t>(arrived_count(now));
    std::vector<std::vector<std::size_t>> per_tenant(service_.size());
    for (std::size_t i = 0; i < arrived; ++i) {
      const int ti = tenant_idx(queue_[i].req.tenant_id);
      per_tenant[static_cast<std::size_t>(ti)].push_back(i);
    }
    std::vector<double> eff = service_;
    std::vector<std::size_t> cursor(service_.size(), 0);
    for (int k = 0; k < take; ++k) {
      int best = -1;
      for (std::size_t t = 0; t < eff.size(); ++t) {
        if (cursor[t] >= per_tenant[t].size()) continue;
        if (best < 0 || eff[t] < eff[static_cast<std::size_t>(best)])
          best = static_cast<int>(t);
      }
      check_arg(best >= 0, "ServeScheduler: fair pick ran out of arrivals");
      const std::size_t bt = static_cast<std::size_t>(best);
      const std::size_t idx = per_tenant[bt][cursor[bt]++];
      picks.push_back(idx);
      const ServeRequest& r = queue_[idx].req;
      eff[bt] += static_cast<double>(r.prompt_len + r.gen_tokens) /
                 weight_of(r.tenant_id);
    }
  }
  d.request_ids.reserve(picks.size());
  for (const std::size_t idx : picks) {
    const QueuedReq& q = queue_[idx];
    const ServeRequest& r = q.req;
    d.request_ids.push_back(r.id);
    d.contexts.push_back(r.prompt_len);
    d.tenants.push_back(r.tenant_id);
    d.classes.push_back(r.req_class);
    d.padded_prompt = std::max(d.padded_prompt, r.prompt_len);
    d.padded_gen = std::max(d.padded_gen, r.gen_tokens);
    // Admission is *now* — queue delay must not include the prefill pass
    // the back-end is about to run (the old simulator's conflation bug).
    RequestStats rs;
    rs.id = r.id;
    rs.arrival_s = r.arrival_s;
    rs.admit_s = now;
    rs.queue_delay_s = std::max(0.0, now - r.arrival_s);
    rs.prompt_len = r.prompt_len;
    rs.gen_tokens = r.gen_tokens;
    rs.tenant = r.tenant_id;
    rs.req_class = r.req_class;
    rs.retries = q.attempts;
    open_.emplace(r.id, rs);
    // Retries re-admit work that was already charged at first admission.
    if (q.attempts == 0)
      charge_service(r.tenant_id,
                     static_cast<double>(r.prompt_len + r.gen_tokens));
  }
  std::vector<std::size_t> doomed = picks;
  std::sort(doomed.begin(), doomed.end(), std::greater<std::size_t>());
  for (const std::size_t idx : doomed)
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  dispatch_now_ = now;
  record_decision(d);
  return d;
}

void ServeScheduler::enable_trace(std::uint32_t pid, double clock_offset_s) {
  trace_ = true;
  trace_pid_ = pid;
  trace_offset_s_ = clock_offset_s;
  TraceSession::instance().set_track_name(pid, 0, "dispatch");
}

/// Emits the finished request's queue→prefill→decode lifecycle as nested
/// async spans keyed by the request id (scheduler clock + offset). Emitted
/// retrospectively at completion, when every boundary is known — the trace
/// is a rendering of RequestStats, so sim and runtime lifecycles are
/// directly overlayable.
void ServeScheduler::trace_request_lifecycle(const RequestStats& rs) const {
  if (!trace_ || !TraceSession::enabled()) return;
  const double off = trace_offset_s_;
  const auto id = static_cast<std::uint64_t>(rs.id);
  TraceSession::emit_async('b', "request", "queue", rs.arrival_s + off, id,
                           trace_pid_);
  TraceSession::emit_async('e', "request", "queue", rs.admit_s + off, id,
                           trace_pid_);
  const double prefill_end = rs.admit_s + rs.prefill_s;
  if (rs.prefill_s > 0.0) {
    TraceSession::emit_async('b', "request", "prefill", rs.admit_s + off, id,
                             trace_pid_);
    TraceSession::emit_async('e', "request", "prefill", prefill_end + off, id,
                             trace_pid_);
  }
  if (rs.finish_s > prefill_end) {
    TraceSession::emit_async('b', "request", "decode", prefill_end + off, id,
                             trace_pid_);
    TraceSession::emit_async('e', "request", "decode", rs.finish_s + off, id,
                             trace_pid_);
  }
}

SchedulerAction ServeScheduler::next(double now) {
  check_arg(!in_flight_,
            "ServeScheduler: next() called with a dispatch still in flight "
            "(call complete() first)");
  process_arrivals(now);
  if (options_.policy == SchedulerPolicy::kIterationLevel)
    expire_active(now);
  // After a fail() the back-end just recovered (or is recovering); hold
  // every dispatch until the backoff window elapses so a persistent fault
  // does not spin the retry loop.
  if (resume_not_before_ > now &&
      (arrived_count(now) > 0 || !active_.empty() || !resume_.empty())) {
    SchedulerAction a;
    a.kind = SchedulerAction::Kind::kWait;
    a.wait_until = resume_not_before_;
    fold_expiry_wakeups(a);
    return a;
  }
  SchedulerAction a = options_.policy == SchedulerPolicy::kStaticBatching
                          ? next_static(now)
                      : options_.exec == DecodeExec::kContinuous
                          ? next_continuous(now)
                          : next_iteration(now);
  fold_expiry_wakeups(a);
  return a;
}

SchedulerAction ServeScheduler::next_static(double now) {
  SchedulerAction a;
  const int effective = std::min(options_.batch_size, options_.max_batch);
  const int arrived = arrived_count(now);
  if (arrived == 0) {
    if (!queue_.empty()) {  // all queued arrivals are in the future
      a.kind = SchedulerAction::Kind::kWait;
      a.wait_until = queue_.front().eligible_s;
    } else if (!closed_) {  // live stream: block until submit()/close()
      a.kind = SchedulerAction::Kind::kWait;
      a.wait_until = kInf;
    } else {
      a.kind = SchedulerAction::Kind::kDone;
    }
    return a;
  }
  const double stale_deadline =
      queue_.front().req.arrival_s + options_.max_wait_s;
  if (arrived >= effective || now >= stale_deadline) {
    a.kind = SchedulerAction::Kind::kDispatch;
    a.decision = make_prefill_decision(now, std::min(arrived, effective));
    return a;
  }
  // Not full, not stale: wait for whichever comes first — the next queued
  // arrival or the oldest request going stale. The old simulator waited
  // only for the next arrival, so a tail request with no successor (or a
  // distant one) waited unboundedly instead of dispatching at
  // `arrival + max_wait_s`.
  a.kind = SchedulerAction::Kind::kWait;
  a.wait_until = stale_deadline;
  if (arrived < static_cast<int>(queue_.size()))
    a.wait_until = std::min(
        a.wait_until, queue_[static_cast<std::size_t>(arrived)].eligible_s);
  return a;
}

SchedulerAction ServeScheduler::next_iteration(double now) {
  SchedulerAction a;
  const int capacity = options_.max_batch - static_cast<int>(active_.size());
  const int arrived = arrived_count(now);
  if (arrived > 0 && capacity > 0) {
    a.kind = SchedulerAction::Kind::kDispatch;
    a.decision = make_prefill_decision(now, std::min(arrived, capacity));
    return a;
  }
  if (!active_.empty()) {
    DispatchDecision d;
    d.seq = next_seq_++;
    d.phase = ServePhase::kDecodePass;
    d.request_ids.reserve(active_.size());
    d.contexts.reserve(active_.size());
    for (const ActiveReq& r : active_) {
      d.request_ids.push_back(r.id);
      d.contexts.push_back(r.context);
      d.tenants.push_back(r.tenant);
      d.classes.push_back(r.cls);
      d.max_context = std::max(d.max_context, r.context);
    }
    dispatch_now_ = now;
    record_decision(d);
    a.kind = SchedulerAction::Kind::kDispatch;
    a.decision = std::move(d);
    return a;
  }
  if (!queue_.empty()) {
    a.kind = SchedulerAction::Kind::kWait;
    a.wait_until = queue_.front().eligible_s;
  } else if (!closed_) {
    a.kind = SchedulerAction::Kind::kWait;
    a.wait_until = kInf;
  } else {
    a.kind = SchedulerAction::Kind::kDone;
  }
  return a;
}

std::vector<ServeScheduler::WaitRef> ServeScheduler::order_waiting(
    double now) {
  std::vector<WaitRef> order;
  const std::size_t scan_cap =
      options_.admit_scan_limit > 0
          ? static_cast<std::size_t>(options_.admit_scan_limit)
          : std::numeric_limits<std::size_t>::max();
  // Legacy (no tenants): preempted sequences resume first (they hold
  // generated tokens the system already paid for), then arrived fresh
  // requests in queue order — the historical waiting order, bit-for-bit.
  if (service_.empty()) {
    order.reserve(resume_.size());
    for (std::size_t i = 0; i < resume_.size(); ++i)
      order.push_back(WaitRef{resume_[i].id, true, i});
    for (std::size_t i = 0; i < queue_.size() && i < scan_cap; ++i) {
      if (queue_[i].eligible_s > now) break;  // sorted: rest are future
      order.push_back(WaitRef{queue_[i].req.id, false, i});
    }
    return order;
  }
  // Tenant mode: same two bands (resumes still outrank fresh arrivals),
  // but within each band tenants interleave by ascending virtual-service
  // account — repeatedly the next FIFO row of the cheapest tenant, the
  // account locally advanced by what admitting that row would cost (a
  // resume re-feeds its context; a fresh join is charged its whole
  // prompt + gen up front, matching charge_service at admission). Ties
  // break toward the lower spec index, so the order is deterministic.
  clamp_idle_service();
  std::vector<double> eff = service_;
  const auto interleave = [&](auto count, auto tenant_of, auto cost_of,
                              auto push) {
    std::vector<std::vector<std::size_t>> per_tenant(eff.size());
    for (std::size_t i = 0; i < count(); ++i) {
      const int ti = tenant_of(i);
      per_tenant[static_cast<std::size_t>(ti)].push_back(i);
    }
    std::vector<std::size_t> cursor(eff.size(), 0);
    for (;;) {
      int best = -1;
      for (std::size_t t = 0; t < eff.size(); ++t) {
        if (cursor[t] >= per_tenant[t].size()) continue;
        if (best < 0 || eff[t] < eff[static_cast<std::size_t>(best)])
          best = static_cast<int>(t);
      }
      if (best < 0) break;
      const std::size_t bt = static_cast<std::size_t>(best);
      const std::size_t idx = per_tenant[bt][cursor[bt]++];
      push(idx);
      eff[bt] += cost_of(idx) / options_.tenants[bt].weight;
    }
  };
  interleave([&] { return resume_.size(); },
             [&](std::size_t i) { return tenant_idx(resume_[i].tenant); },
             [&](std::size_t i) {
               return static_cast<double>(resume_[i].context);
             },
             [&](std::size_t i) {
               order.push_back(WaitRef{resume_[i].id, true, i});
             });
  std::size_t fresh = 0;
  while (fresh < queue_.size() && fresh < scan_cap &&
         queue_[fresh].eligible_s <= now)
    ++fresh;
  interleave(
      [&] { return fresh; },
      [&](std::size_t i) { return tenant_idx(queue_[i].req.tenant_id); },
      [&](std::size_t i) {
        const ServeRequest& r = queue_[i].req;
        return static_cast<double>(r.prompt_len + r.gen_tokens);
      },
      [&](std::size_t i) {
        order.push_back(WaitRef{queue_[i].req.id, false, i});
      });
  return order;
}

SchedulerAction ServeScheduler::next_continuous(double now) {
  SchedulerAction a;
  CapacityOptions copt;
  copt.max_batch = options_.max_batch;
  copt.token_budget = options_.token_budget;
  copt.kv_page_size = options_.kv_page_size;
  copt.kv_pages = options_.kv_pages;
  const CapacityScheduler cap(copt);

  std::vector<CapacitySeq> running;
  running.reserve(active_.size());
  for (const ActiveReq& r : active_)
    running.push_back(CapacitySeq{r.id, r.context});

  // Waiting list in admission-priority order; a preempted sequence's
  // "context" is its full history — the tokens its resume prefill feeds.
  const std::vector<WaitRef> order = order_waiting(now);
  std::vector<CapacitySeq> waiting;
  waiting.reserve(order.size());
  for (const WaitRef& w : order)
    waiting.push_back(CapacitySeq{
        w.id, w.from_resume ? resume_[w.idx].context
                            : queue_[w.idx].req.prompt_len});

  CapacityPlan plan = cap.plan_round(running, waiting);

  // Starvation bound: every dispatching round that admits nothing while
  // rows wait is one pass-over of the waiting head. After
  // join_starvation_rounds consecutive pass-overs of the *same* head the
  // round is re-planned with force_admit_head, which preempts running
  // rows to make room. Counting rounds (not seconds) keeps the bound
  // clock-free, so sim and runtime trip it at the same decision seq.
  int forced = 0;
  if (options_.join_starvation_rounds > 0 && plan.admit.empty() &&
      !active_.empty() && !waiting.empty()) {
    if (starved_id_ == waiting.front().id) {
      ++starved_rounds_;
    } else {
      starved_id_ = waiting.front().id;
      starved_rounds_ = 1;
    }
    if (starved_rounds_ >= options_.join_starvation_rounds) {
      plan = cap.plan_round(running, waiting, /*force_admit_head=*/true);
      forced = static_cast<int>(plan.admit.size());
      forced_joins_total_ += forced;
    }
  }
  if (!plan.admit.empty()) {
    starved_id_ = -1;
    starved_rounds_ = 0;
  }

  if (plan.admit.empty() && active_.empty()) {
    // Nothing runnable now (the planner force-admits the waiting head when
    // the batch is idle, so resume_ must be empty here): wait for the
    // arrival stream, or finish.
    if (!queue_.empty()) {
      a.kind = SchedulerAction::Kind::kWait;
      a.wait_until = queue_.front().eligible_s;
    } else if (!closed_) {
      a.kind = SchedulerAction::Kind::kWait;
      a.wait_until = kInf;
    } else {
      a.kind = SchedulerAction::Kind::kDone;
    }
    return a;
  }

  DispatchDecision d;
  d.seq = next_seq_++;

  // Evict-to-pending: the planner preempts newest-first, i.e. from the
  // active_ tail. Victims park on resume_ in their original admission
  // order (behind earlier preemptions) so resumption is FIFO-fair. Each
  // victim's park time is stamped so the interval it spends evicted is
  // credited to its resume-wait account on re-admission (or expiry).
  if (!plan.preempt.empty()) {
    std::vector<ActiveReq> victims;
    victims.reserve(plan.preempt.size());
    for (int id : plan.preempt) {
      check_arg(!active_.empty() && active_.back().id == id,
                "ServeScheduler: preemption must pop the newest sequences");
      ActiveReq v = active_.back();
      active_.pop_back();
      v.parked_at = now;
      victims.push_back(v);
    }
    for (auto it = victims.rbegin(); it != victims.rend(); ++it)
      resume_.push_back(*it);
    preemptions_ += static_cast<int>(plan.preempt.size());
    d.preempted = plan.preempt;
  }

  // Continuing rows first, in admission order; joining rows trail.
  d.phase = active_.empty() ? ServePhase::kPrefillPass
                            : ServePhase::kDecodePass;
  for (const ActiveReq& r : active_) {
    d.request_ids.push_back(r.id);
    d.contexts.push_back(r.context);
    d.tenants.push_back(r.tenant);
    d.classes.push_back(r.cls);
    d.max_context = std::max(d.max_context, r.context);
  }
  // The plan admits a prefix of the waiting list; map each admitted id
  // back to its source (resume deque or arrival queue) through the order
  // refs and erase the picked entries afterwards, highest index first.
  joining_.clear();
  std::vector<std::size_t> pop_resume;
  std::vector<std::size_t> pop_queue;
  for (std::size_t k = 0; k < plan.admit.size(); ++k) {
    check_arg(k < order.size() && order[k].id == plan.admit[k],
              "ServeScheduler: admission must take a waiting-list prefix");
    const WaitRef& w = order[k];
    ActiveReq jr;
    if (w.from_resume) {
      jr = resume_[w.idx];
      pop_resume.push_back(w.idx);
      if (jr.parked_at >= 0.0) {
        auto sit = open_.find(jr.id);
        check_arg(sit != open_.end(), "ServeScheduler: unknown resumed id");
        sit->second.resume_wait_s += std::max(0.0, now - jr.parked_at);
        jr.parked_at = -1.0;
      }
    } else {
      const QueuedReq& q = queue_[w.idx];
      const ServeRequest& r = q.req;
      RequestStats rs;
      rs.id = r.id;
      rs.arrival_s = r.arrival_s;
      rs.admit_s = now;
      rs.queue_delay_s = std::max(0.0, now - r.arrival_s);
      rs.prompt_len = r.prompt_len;
      rs.gen_tokens = r.gen_tokens;
      rs.tenant = r.tenant_id;
      rs.req_class = r.req_class;
      rs.retries = q.attempts;
      open_.emplace(r.id, rs);
      jr.id = r.id;
      jr.context = r.prompt_len;
      jr.remaining = r.gen_tokens;
      jr.retries = q.attempts;
      jr.tenant = r.tenant_id;
      jr.cls = r.req_class;
      // Retries re-admit work that was charged at first admission.
      if (q.attempts == 0)
        charge_service(r.tenant_id,
                       static_cast<double>(r.prompt_len + r.gen_tokens));
      pop_queue.push_back(w.idx);
    }
    d.request_ids.push_back(jr.id);
    d.contexts.push_back(jr.context);
    d.tenants.push_back(jr.tenant);
    d.classes.push_back(jr.cls);
    d.padded_prompt = std::max(d.padded_prompt, jr.context);
    joining_.push_back(jr);
    ++d.num_join;
  }
  std::sort(pop_resume.begin(), pop_resume.end(),
            std::greater<std::size_t>());
  for (const std::size_t idx : pop_resume)
    resume_.erase(resume_.begin() + static_cast<std::ptrdiff_t>(idx));
  std::sort(pop_queue.begin(), pop_queue.end(), std::greater<std::size_t>());
  for (const std::size_t idx : pop_queue)
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  d.forced_joins = forced;

  dispatch_now_ = now;
  record_decision(d);
  a.kind = SchedulerAction::Kind::kDispatch;
  a.decision = std::move(d);
  return a;
}

void ServeScheduler::complete(const DispatchDecision& decision,
                              double finish_s, double prefill_end_s) {
  check_arg(in_flight_, "ServeScheduler: complete() with nothing in flight");
  check_arg(decision.seq == in_flight_seq_,
            "ServeScheduler: complete() for a decision that is not the "
            "in-flight one");
  in_flight_ = false;

  if (trace_ && TraceSession::enabled())
    TraceSession::emit_complete(
        "serve",
        decision.phase == ServePhase::kPrefillPass ? "prefill-pass"
                                                   : "decode-pass",
        dispatch_now_ + trace_offset_s_,
        std::max(0.0, finish_s - dispatch_now_), trace_pid_, /*tid=*/0,
        "batch", static_cast<double>(decision.request_ids.size()));

  if (options_.exec == DecodeExec::kContinuous) {
    complete_continuous(decision, finish_s, prefill_end_s);
    return;
  }

  if (decision.phase == ServePhase::kPrefillPass) {
    for (int id : decision.request_ids) {
      auto it = open_.find(id);
      check_arg(it != open_.end(), "ServeScheduler: unknown request id");
      RequestStats& rs = it->second;
      const double prefill_s =
          prefill_end_s >= 0.0
              ? std::max(0.0, prefill_end_s - rs.admit_s)
              : (options_.policy == SchedulerPolicy::kIterationLevel
                     ? std::max(0.0, finish_s - rs.admit_s)
                     : 0.0);
      rs.prefill_s = prefill_s;
      if (options_.policy == SchedulerPolicy::kStaticBatching) {
        // The bundled padded run is over: everyone finishes together.
        rs.finish_s = finish_s;
        trace_request_lifecycle(rs);
        finished_.push_back(rs);
        open_.erase(it);
      } else if (rs.gen_tokens <= 1) {
        // Prefill emits token 1; zero-remaining requests complete at
        // admission and never enter the active set.
        rs.finish_s = finish_s;
        trace_request_lifecycle(rs);
        finished_.push_back(rs);
        open_.erase(it);
      } else {
        ActiveReq ar;
        ar.id = id;
        ar.context = rs.prompt_len + 1;
        ar.remaining = rs.gen_tokens - 1;
        ar.retries = rs.retries;  // prefill retries carry into decode
        ar.tenant = rs.tenant;
        ar.cls = rs.req_class;
        active_.push_back(ar);
      }
    }
    return;
  }

  check_arg(decision.request_ids.size() == active_.size(),
            "ServeScheduler: decode completion does not match active set");
  advance_active(finish_s);
}

void ServeScheduler::advance_active(double finish_s) {
  // Every active request advanced by one token; the finished retire.
  for (auto it = active_.begin(); it != active_.end();) {
    ++it->context;
    if (--it->remaining <= 0) {
      auto sit = open_.find(it->id);
      check_arg(sit != open_.end(), "ServeScheduler: unknown active id");
      sit->second.finish_s = finish_s;
      sit->second.retries = it->retries;
      trace_request_lifecycle(sit->second);
      finished_.push_back(sit->second);
      open_.erase(sit);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServeScheduler::complete_continuous(const DispatchDecision& decision,
                                         double finish_s,
                                         double prefill_end_s) {
  const std::size_t cont =
      decision.request_ids.size() - static_cast<std::size_t>(decision.num_join);
  check_arg(cont == active_.size(),
            "ServeScheduler: continuous completion does not match the "
            "continuing set");
  advance_active(finish_s);  // continuing rows
  // Joining rows: the ride-along prefill emitted each row's next token —
  // token 1 for a fresh request, the next continuation token for a
  // preempt-resume (the full-history re-prefill samples exactly what the
  // preempted decode step would have, greedy sampling being deterministic).
  for (ActiveReq& r : joining_) {
    auto sit = open_.find(r.id);
    check_arg(sit != open_.end(), "ServeScheduler: unknown joining id");
    RequestStats& rs = sit->second;
    if (r.context == rs.prompt_len) {
      // Fresh join: this round was its prefill (resumed rows re-prefill
      // too, but their prefill stat was recorded at first admission).
      rs.prefill_s = prefill_end_s >= 0.0
                         ? std::max(0.0, prefill_end_s - rs.admit_s)
                         : std::max(0.0, finish_s - rs.admit_s);
    }
    ++r.context;
    if (--r.remaining <= 0) {
      rs.finish_s = finish_s;
      rs.retries = r.retries;
      trace_request_lifecycle(rs);
      finished_.push_back(rs);
      open_.erase(sit);
    } else {
      active_.push_back(r);
    }
  }
  joining_.clear();
}

void ServeScheduler::fail_continuous(double now, int& max_attempt) {
  // Continuing rows: decode-fail semantics.
  retry_active(now, max_attempt);
  // Joining rows committed nothing: back to the resume queue's *front*
  // (reverse iteration preserves their relative order) so the retry keeps
  // FIFO fairness. Preempted rows already sit on resume_ from decision
  // time and simply stay there.
  for (auto it = joining_.rbegin(); it != joining_.rend(); ++it) {
    ActiveReq r = *it;
    ++r.retries;
    if (r.retries > options_.max_retries) {
      fail_open(r.id, now, r.retries - 1);
      continue;
    }
    max_attempt = std::max(max_attempt, r.retries);
    r.parked_at = now;  // re-parked: the wait restarts at failure time
    resume_.push_front(r);
  }
  joining_.clear();
}

void ServeScheduler::retry_active(double now, int& max_attempt) {
  // Decode rounds are idempotent at the scheduler level (context and
  // remaining advance only in complete()), so the active set stays
  // resident and the round is retried wholesale; requests that exhaust
  // the cap leave as kFailed.
  for (auto it = active_.begin(); it != active_.end();) {
    ++it->retries;
    if (it->retries > options_.max_retries) {
      fail_open(it->id, now, it->retries - 1);
      it = active_.erase(it);
    } else {
      max_attempt = std::max(max_attempt, it->retries);
      ++it;
    }
  }
}

void ServeScheduler::fail_open(int id, double now, int retries) {
  auto sit = open_.find(id);
  check_arg(sit != open_.end(), "ServeScheduler: unknown request id");
  RequestStats rs = sit->second;
  rs.finish_s = now;
  rs.outcome = RequestOutcome::kFailed;
  rs.retries = retries;
  finished_.push_back(rs);
  open_.erase(sit);
}

void ServeScheduler::fail(const DispatchDecision& decision, double now) {
  check_arg(in_flight_, "ServeScheduler: fail() with nothing in flight");
  check_arg(decision.seq == in_flight_seq_,
            "ServeScheduler: fail() for a decision that is not the "
            "in-flight one");
  in_flight_ = false;
  int max_attempt = 1;  // backoff window scales with the deepest retry

  if (options_.exec == DecodeExec::kContinuous) {
    fail_continuous(now, max_attempt);
  } else if (decision.phase == ServePhase::kPrefillPass) {
    // The pass produced nothing: pull its requests back out of open_ and
    // either re-enqueue them behind a backoff window or, past the retry
    // cap, finish them as kFailed. Retries keep their original arrival
    // (deadlines keep running) and their admission (no re-rejection).
    for (int id : decision.request_ids) {
      auto it = open_.find(id);
      check_arg(it != open_.end(), "ServeScheduler: unknown request id");
      const RequestStats rs = it->second;
      open_.erase(it);
      const int attempt = rs.retries + 1;
      ServeRequest r;
      r.id = rs.id;
      r.arrival_s = rs.arrival_s;
      r.prompt_len = rs.prompt_len;
      r.gen_tokens = rs.gen_tokens;
      r.tenant_id = rs.tenant;
      r.req_class = rs.req_class;
      if (attempt > options_.max_retries) {
        finish_unserved(r, RequestOutcome::kFailed, now, rs.retries);
        continue;
      }
      max_attempt = std::max(max_attempt, attempt);
      QueuedReq q;
      q.req = r;
      q.eligible_s = now + backoff_s(attempt);
      q.attempts = attempt;
      q.admitted = true;
      enqueue(std::move(q));
    }
  } else {
    retry_active(now, max_attempt);
  }
  resume_not_before_ =
      std::max(resume_not_before_, now + backoff_s(max_attempt));
  if (trace_ && TraceSession::enabled())
    TraceSession::emit_complete("serve", "dispatch-failed",
                                now + trace_offset_s_, /*dur_s=*/0.0,
                                trace_pid_, /*tid=*/0, "seq",
                                static_cast<double>(decision.seq));
}

OutcomeCounts ServeScheduler::outcomes() const {
  OutcomeCounts c;
  for (const RequestStats& rs : finished_) {
    switch (rs.outcome) {
      case RequestOutcome::kCompleted:
        ++c.completed;
        break;
      case RequestOutcome::kTimedOut:
        ++c.timed_out;
        break;
      case RequestOutcome::kRejected:
        ++c.rejected;
        break;
      case RequestOutcome::kFailed:
        ++c.failed;
        break;
    }
    c.retries += rs.retries;
  }
  return c;
}

}  // namespace llmpq
