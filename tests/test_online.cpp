#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "sim/online_sim.hpp"

namespace llmpq {
namespace {

TEST(ShareGptWorkload, ShapeMatchesPaperObservation) {
  Rng rng(31);
  const auto reqs = generate_sharegpt_workload(rng, 2000, 2.0);
  ASSERT_EQ(reqs.size(), 2000u);
  // Paper Sec 2.1: a substantial short-prompt mass; long tail exists.
  const double short_frac = fraction_below(reqs, 128);
  EXPECT_GT(short_frac, 0.4);
  EXPECT_LT(short_frac, 0.95);
  int longest = 0;
  for (const auto& r : reqs) longest = std::max(longest, r.prompt_len);
  EXPECT_GT(longest, 512);
  // Arrivals strictly ordered, lengths within bounds.
  for (std::size_t i = 1; i < reqs.size(); ++i)
    EXPECT_GE(reqs[i].arrival_s, reqs[i - 1].arrival_s);
  for (const auto& r : reqs) {
    EXPECT_GE(r.prompt_len, 4);
    EXPECT_LE(r.prompt_len, 1024);
    EXPECT_GE(r.gen_tokens, 4);
    EXPECT_LE(r.gen_tokens, 256);
  }
}

TEST(ShareGptWorkload, RateControlsArrivalDensity) {
  Rng a(1), b(1);
  const auto slow = generate_sharegpt_workload(a, 500, 1.0);
  const auto fast = generate_sharegpt_workload(b, 500, 10.0);
  EXPECT_GT(slow.back().arrival_s, 5.0 * fast.back().arrival_s);
}

class OnlineSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto pc = paper_cluster(3);
    cluster_ = pc.cluster;
    model_ = &model_registry_get(pc.model_name);
    CostProvider cost(*model_, cluster_, CostMode::kProfiled);
    plan_ = pipeedge_plan(cost);
  }
  ClusterSpec cluster_;
  const ModelSpec* model_ = nullptr;
  ExecutionPlan plan_;
};

TEST_F(OnlineSimTest, CompletesAllRequestsUnderBothPolicies) {
  Rng rng(7);
  const auto reqs = generate_sharegpt_workload(rng, 60, 1.0, 512, 64);
  for (SchedulerPolicy policy : {SchedulerPolicy::kStaticBatching,
                                 SchedulerPolicy::kIterationLevel}) {
    SchedulerOptions opt;
    opt.policy = policy;
    const OnlineReport r =
        simulate_online(*model_, cluster_, plan_, reqs, opt);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.completed, 60);
    EXPECT_GT(r.throughput_tokens_per_s, 0.0);
    EXPECT_GE(r.latency.p95_s, r.latency.mean_s);
    EXPECT_GT(r.makespan_s, reqs.back().arrival_s);
  }
}

TEST_F(OnlineSimTest, IterationLevelBeatsStaticOnMixedLengths) {
  // The ORCA insight: with heterogeneous generation lengths, static
  // batching wastes rounds padding to the slowest member.
  Rng rng(13);
  const auto reqs = generate_sharegpt_workload(rng, 80, 2.0, 512, 128);
  SchedulerOptions stat;
  stat.policy = SchedulerPolicy::kStaticBatching;
  SchedulerOptions orca;
  orca.policy = SchedulerPolicy::kIterationLevel;
  const OnlineReport rs =
      simulate_online(*model_, cluster_, plan_, reqs, stat);
  const OnlineReport ro =
      simulate_online(*model_, cluster_, plan_, reqs, orca);
  ASSERT_TRUE(rs.ok && ro.ok);
  EXPECT_LT(ro.latency.mean_s, rs.latency.mean_s);
}

TEST_F(OnlineSimTest, OomPlanIsRejected) {
  ExecutionPlan bad = plan_;
  std::fill(bad.layer_bits.begin(), bad.layer_bits.end(), 16);
  Rng rng(5);
  const auto reqs = generate_sharegpt_workload(rng, 5, 1.0);
  const OnlineReport r = simulate_online(*model_, cluster_, bad, reqs);
  EXPECT_FALSE(r.ok);
}

TEST_F(OnlineSimTest, LoneRequestDispatchesAtStaleDeadline) {
  // Regression (stale-timer bug): the old static-batching loop waited for
  // the next arrival, so a lone request's wait was tied to traffic that
  // never came. It must be admitted at exactly arrival + max_wait_s.
  OnlineRequest r;
  r.arrival_s = 1.5;
  r.prompt_len = 64;
  r.gen_tokens = 16;
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kStaticBatching;
  opt.batch_size = 16;
  opt.max_wait_s = 4.0;
  const OnlineReport res = simulate_online(*model_, cluster_, plan_, {r}, opt);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.requests.size(), 1u);
  EXPECT_DOUBLE_EQ(res.requests[0].admit_s, 5.5);  // arrival + max_wait_s
  EXPECT_DOUBLE_EQ(res.requests[0].queue_delay_s, 4.0);
  ASSERT_EQ(res.decisions.size(), 1u);
  EXPECT_EQ(res.decisions[0].request_ids, std::vector<int>{0});
}

TEST_F(OnlineSimTest, QueueDelayNoLongerIncludesPrefill) {
  // Regression (conflation bug): the old iteration-level path recorded
  // t_after_prefill - arrival as "queue delay". A burst admitted instantly
  // must show zero queue delay with the prefill cost reported separately.
  std::vector<OnlineRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    OnlineRequest r;
    r.arrival_s = 0.0;
    r.prompt_len = 128;
    r.gen_tokens = 8;
    reqs.push_back(r);
  }
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.max_batch = 8;
  const OnlineReport res =
      simulate_online(*model_, cluster_, plan_, reqs, opt);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.completed, 8);
  EXPECT_NEAR(res.queue_delay.mean_s, 0.0, 1e-12);
  EXPECT_GT(res.prefill.mean_s, 0.0);
  for (const RequestStats& r : res.requests) {
    EXPECT_DOUBLE_EQ(r.admit_s, 0.0);
    EXPECT_GT(r.prefill_s, 0.0);
    EXPECT_GE(r.finish_s, r.admit_s + r.prefill_s);
  }
}

TEST_F(OnlineSimTest, HigherLoadRaisesLatency) {
  Rng a(3), b(3);
  const auto light = generate_sharegpt_workload(a, 50, 0.5, 512, 64);
  const auto heavy = generate_sharegpt_workload(b, 50, 8.0, 512, 64);
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  const OnlineReport rl =
      simulate_online(*model_, cluster_, plan_, light, opt);
  const OnlineReport rh =
      simulate_online(*model_, cluster_, plan_, heavy, opt);
  ASSERT_TRUE(rl.ok && rh.ok);
  EXPECT_GE(rh.queue_delay.mean_s, rl.queue_delay.mean_s);
}

}  // namespace
}  // namespace llmpq
