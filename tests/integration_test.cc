// End-to-end integration tests through the experiment harness: every policy
// completes realistic workloads, results are deterministic, and the headline
// qualitative claims of the paper hold at small scale.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/scenario.h"

namespace lcmp {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig c;
  c.topo = TopologyKind::kTestbed8;
  c.pairing = PairingKind::kEndpointPair;
  c.workload = WorkloadKind::kWebSearch;
  c.load = 0.3;
  c.num_flows = 120;
  c.seed = 11;
  c.hosts_per_dc = 4;
  return c;
}

class AllPoliciesTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AllPoliciesTest, CompletesAllFlows) {
  ExperimentConfig c = SmallConfig();
  c.policy = GetParam();
  const ExperimentResult r = RunExperiment(c);
  EXPECT_EQ(r.flows_completed, r.flows_requested) << PolicyKindName(GetParam());
  EXPECT_GT(r.overall.p50, 0.9);
  EXPECT_GE(r.overall.p99, r.overall.p50);
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesTest,
                         ::testing::Values(PolicyKind::kEcmp, PolicyKind::kWcmp,
                                           PolicyKind::kUcmp, PolicyKind::kRedte,
                                           PolicyKind::kLcmp),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           return PolicyKindName(info.param);
                         });

TEST(IntegrationTest, DeterministicForSameSeed) {
  ExperimentConfig c = SmallConfig();
  c.policy = PolicyKind::kLcmp;
  const ExperimentResult a = RunExperiment(c);
  const ExperimentResult b = RunExperiment(c);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].fct, b.samples[i].fct);
  }
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(IntegrationTest, SeedChangesTraffic) {
  ExperimentConfig c = SmallConfig();
  c.policy = PolicyKind::kEcmp;
  ExperimentConfig c2 = c;
  c2.seed = 12;
  const ExperimentResult a = RunExperiment(c);
  const ExperimentResult b = RunExperiment(c2);
  EXPECT_NE(a.events_processed, b.events_processed);
}

TEST(IntegrationTest, LcmpBeatsEcmpTailOnAsymmetricTestbed) {
  // The paper's headline (Fig. 5): on the capacity/delay-asymmetric 8-DC
  // topology LCMP must cut the p99 slowdown versus ECMP.
  ExperimentConfig c = SmallConfig();
  c.num_flows = 250;
  c.policy = PolicyKind::kEcmp;
  const ExperimentResult ecmp = RunExperiment(c);
  c.policy = PolicyKind::kLcmp;
  const ExperimentResult lcmp_r = RunExperiment(c);
  EXPECT_LT(lcmp_r.overall.p99, ecmp.overall.p99);
  EXPECT_LT(lcmp_r.overall.p50, ecmp.overall.p50 * 1.05);
}

TEST(IntegrationTest, LcmpBeatsUcmpMedianOnAsymmetricTestbed) {
  // UCMP concentrates on high-capacity/high-delay routes; LCMP's medians
  // must be clearly better (Fig. 5 shows up to 76%).
  ExperimentConfig c = SmallConfig();
  c.num_flows = 250;
  c.policy = PolicyKind::kUcmp;
  const ExperimentResult ucmp = RunExperiment(c);
  c.policy = PolicyKind::kLcmp;
  const ExperimentResult lcmp_r = RunExperiment(c);
  EXPECT_LT(lcmp_r.overall.p50, ucmp.overall.p50);
}

TEST(IntegrationTest, LinkUtilizationPopulated) {
  ExperimentConfig c = SmallConfig();
  c.policy = PolicyKind::kLcmp;
  const ExperimentResult r = RunExperiment(c);
  ASSERT_EQ(r.link_utils.size(), 24u);  // 12 inter-DC links, both directions
  double total = 0;
  for (const auto& u : r.link_utils) {
    EXPECT_GE(u.utilization, 0.0);
    EXPECT_LE(u.utilization, 1.01);
    total += u.utilization;
  }
  EXPECT_GT(total, 0.0);
}

TEST(IntegrationTest, Bso13AllToAllCompletes) {
  ExperimentConfig c;
  c.topo = TopologyKind::kBso13;
  c.pairing = PairingKind::kAllToAll;
  c.policy = PolicyKind::kLcmp;
  c.num_flows = 150;
  c.hosts_per_dc = 2;
  c.seed = 5;
  const ExperimentResult r = RunExperiment(c);
  EXPECT_EQ(r.flows_completed, r.flows_requested);
  // The paper's sparsity statistic: a minority of pairs are multipath.
  EXPECT_GT(r.multipath_pair_fraction, 0.1);
  EXPECT_LT(r.multipath_pair_fraction, 0.55);
}

TEST(IntegrationTest, AblationRmAlphaHurtsMedians) {
  // Sec. 7.1: removing the path-quality term (alpha = 0) places flows on
  // high-delay routes and inflates slowdowns.
  ExperimentConfig c = SmallConfig();
  c.num_flows = 250;
  c.policy = PolicyKind::kLcmp;
  const ExperimentResult full = RunExperiment(c);
  c.lcmp.alpha = 0;
  const ExperimentResult rm_alpha = RunExperiment(c);
  EXPECT_GT(rm_alpha.overall.p50, full.overall.p50);
}

TEST(IntegrationTest, TelemetryOnlyForLcmp) {
  ExperimentConfig c = SmallConfig();
  c.policy = PolicyKind::kEcmp;
  EXPECT_TRUE(RunExperiment(c).telemetry.empty());
  c.policy = PolicyKind::kLcmp;
  EXPECT_FALSE(RunExperiment(c).telemetry.empty());
}

}  // namespace
}  // namespace lcmp
