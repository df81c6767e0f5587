// Online serving walkthrough (the Sec. 7 discussion, made concrete): plan
// once with LLM-PQ, then serve a live ShareGPT-shaped request stream on
// that plan, comparing classic static batching against ORCA-style
// iteration-level scheduling as load ramps up.
#include <cstdio>

#include "common/table.hpp"
#include "core/assigner.hpp"
#include "sim/online_sim.hpp"

int main() {
  using namespace llmpq;

  const auto [cluster, model_name] = paper_cluster(3);
  const ModelSpec& model = model_registry_get(model_name);
  std::printf("online serving of %s on %s\n\n", model.name.c_str(),
              cluster.describe_devices().c_str());

  // 1. Offline planning exactly as before — the plan is workload-shaped
  //    for the padded offline batch, which doubles as the KV budget online.
  CostProvider cost(model, cluster, CostMode::kFitted);
  AssignerOptions options;
  options.solver = SolverKind::kHeuristic;
  const AssignerResult planned = assign(cost, options);
  std::printf("%s\n", planned.plan.to_string().c_str());

  // 2. A burst of chat traffic: bimodal prompt lengths, Poisson arrivals.
  Rng rng(42);
  const auto requests = generate_sharegpt_workload(rng, 100, 3.0, 512, 96);
  std::printf("workload: %zu requests over %.0f s, %.0f%% prompts < 128 "
              "tokens\n\n",
              requests.size(), requests.back().arrival_s,
              100.0 * fraction_below(requests, 128));

  // 3. Serve under both schedulers.
  Table t({"Scheduler", "Completed", "Makespan (s)", "Tokens/s",
           "Mean lat (s)", "P95 lat (s)"});
  for (SchedulerPolicy policy : {SchedulerPolicy::kStaticBatching,
                                 SchedulerPolicy::kIterationLevel}) {
    SchedulerOptions opt;
    opt.policy = policy;
    const OnlineReport r =
        simulate_online(model, cluster, planned.plan, requests, opt);
    if (!r.ok) {
      std::printf("serving failed: %s\n", r.error.c_str());
      return 1;
    }
    t.add_row({policy == SchedulerPolicy::kStaticBatching
                   ? "static batching"
                   : "iteration-level (ORCA)",
               std::to_string(r.completed), Table::fmt(r.makespan_s),
               Table::fmt(r.throughput_tokens_per_s),
               Table::fmt(r.latency.mean_s), Table::fmt(r.latency.p95_s)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\niteration-level scheduling reuses the LLM-PQ plan "
              "unchanged — the partition/precision decision is orthogonal "
              "to the request scheduler, as the paper's discussion "
              "argues.\n");
  return 0;
}
