// Tests for the experiment harness: naming, pairing, factories, table
// formatting, sweeps, and failure injection through a full experiment.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace lcmp {
namespace {

TEST(HarnessTest, KindNames) {
  EXPECT_STREQ(PolicyKindName(PolicyKind::kEcmp), "ECMP");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kWcmp), "WCMP");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kUcmp), "UCMP");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kRedte), "RedTE");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kLcmp), "LCMP");
  EXPECT_STREQ(TopologyKindName(TopologyKind::kTestbed8), "testbed-8dc");
  EXPECT_STREQ(TopologyKindName(TopologyKind::kBso13), "bso-13dc");
}

TEST(HarnessTest, FactoryProducesNamedPolicies) {
  const Graph g = BuildDumbbell(2, 1, Gbps(100), Milliseconds(1));
  Network net(g, NetworkConfig{}, nullptr);
  SwitchNode& sw = net.switch_node(g.DciOfDc(0));
  const LcmpConfig lc;
  EXPECT_STREQ(MakePolicyFactory(PolicyKind::kEcmp, lc)(sw)->name(), "ecmp");
  EXPECT_STREQ(MakePolicyFactory(PolicyKind::kWcmp, lc)(sw)->name(), "wcmp");
  EXPECT_STREQ(MakePolicyFactory(PolicyKind::kUcmp, lc)(sw)->name(), "ucmp");
  EXPECT_STREQ(MakePolicyFactory(PolicyKind::kRedte, lc)(sw)->name(), "redte");
  EXPECT_STREQ(MakePolicyFactory(PolicyKind::kLcmp, lc)(sw)->name(), "lcmp");
}

TEST(HarnessTest, EndpointPairingIsBidirectional) {
  ExperimentConfig c;
  c.pairing = PairingKind::kEndpointPair;
  const auto pairs = BuildPairing(c, 8);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<DcId, DcId>{0, 7}));
  EXPECT_EQ(pairs[1], (std::pair<DcId, DcId>{7, 0}));
}

TEST(HarnessTest, AllToAllPairingCountsOrderedPairs) {
  ExperimentConfig c;
  c.pairing = PairingKind::kAllToAll;
  EXPECT_EQ(BuildPairing(c, 13).size(), 13u * 12u);
}

TEST(HarnessTest, BuildTopologyRespectsHostsPerDc) {
  ExperimentConfig c;
  c.topo = TopologyKind::kTestbed8;
  c.hosts_per_dc = 3;
  const Graph g = BuildTopology(c);
  EXPECT_EQ(g.HostsInDc(0).size(), 3u);
  c.topo = TopologyKind::kBso13;
  const Graph g2 = BuildTopology(c);
  EXPECT_EQ(g2.HostsInDc(12).size(), 3u);
}

TEST(HarnessTest, ResultDcPairFilters) {
  ExperimentConfig c;
  c.num_flows = 60;
  c.hosts_per_dc = 2;
  c.policy = PolicyKind::kEcmp;
  c.seed = 3;
  const ExperimentResult r = RunExperiment(c);
  const SlowdownStats fwd = r.ForDcPair(0, 7);
  const SlowdownStats rev = r.ForDcPair(7, 0);
  const SlowdownStats both = r.ForDcPairBidir(0, 7);
  EXPECT_EQ(fwd.count + rev.count, both.count);
  EXPECT_EQ(both.count, r.overall.count);  // endpoint pairing only
}

TEST(HarnessTest, SweepRunsAllCells) {
  ExperimentConfig base;
  base.num_flows = 30;
  base.hosts_per_dc = 2;
  base.seed = 4;
  SweepSpec spec(base);
  spec.Loads({0.2, 0.4}).Policies({PolicyKind::kEcmp, PolicyKind::kLcmp});
  std::vector<RunOutcome> outcomes;
  std::string error;
  ASSERT_TRUE(RunSweep(spec, SweepRunnerOptions{}, &outcomes, &error)) << error;
  const auto cells = ToSweepCells(outcomes);
  ASSERT_EQ(cells.size(), 4u);
  // Cells keep the load-major, policy-minor order the tables print in.
  EXPECT_EQ(cells[0].policy, PolicyKind::kEcmp);
  EXPECT_DOUBLE_EQ(cells[0].load, 0.2);
  EXPECT_EQ(cells[3].policy, PolicyKind::kLcmp);
  EXPECT_DOUBLE_EQ(cells[3].load, 0.4);
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.result.flows_completed, 30);
  }
  // Print helpers must not crash on real data.
  PrintSlowdownTable("sweep", cells);
  PrintSlowdownTable("sweep pair", cells, /*dc_pair_only=*/true, 0, 7);
}

TEST(HarnessTest, LinkFlapDuringExperimentStillCompletes) {
  // Failure injection through the harness objects: build the same pieces as
  // RunExperiment but flap an inter-DC link mid-run; every flow must finish.
  const Graph graph = BuildDumbbell(3, 2, Gbps(100), Milliseconds(2));
  NetworkConfig ncfg;
  ncfg.seed = 9;
  Network net(graph, ncfg, MakePolicyFactory(PolicyKind::kLcmp, LcmpConfig{}));
  ControlPlane cp{LcmpConfig{}};
  cp.Provision(net);
  FctRecorder recorder(&net.graph());
  RdmaTransport transport(&net, TransportConfig{},
                          [&](const FlowRecord& r) { recorder.OnComplete(r); });
  TrafficGenConfig traffic;
  traffic.offered_bps = Gbps(60);
  traffic.num_flows = 40;
  traffic.seed = 5;
  for (FlowSpec f : GenerateTraffic(graph, {{0, 1}, {1, 0}}, traffic)) {
    f.size_bytes = 4'000'000;
    transport.ScheduleFlow(f);
  }
  net.StartPolicyTicks();
  const auto links = net.InterDcDirectedLinks();
  net.sim().Schedule(Milliseconds(2), [&] { net.SetLinkUp(links[0].link_idx, false); });
  net.sim().Schedule(Milliseconds(30), [&] { net.SetLinkUp(links[0].link_idx, true); });
  net.sim().Run(Seconds(30));
  EXPECT_EQ(recorder.completed(), 40);
}

// ---- ValidateExperimentConfig: one case per documented domain ----

// Applies `value` to `field` on a default config and reports whether the
// result validates; a rejection must name the field.
bool Validates(const std::string& field, const std::string& value) {
  ExperimentConfig c;
  std::string error;
  EXPECT_TRUE(ApplyConfigField(&c, field, value, &error)) << error;
  if (ValidateExperimentConfig(c, &error)) {
    return true;
  }
  EXPECT_NE(error.find("'" + field + "'"), std::string::npos) << error;
  return false;
}

TEST(ExperimentConfigValidationTest, DefaultsAreValid) {
  std::string error;
  EXPECT_TRUE(ValidateExperimentConfig(ExperimentConfig{}, &error)) << error;
}

TEST(ExperimentConfigValidationTest, FlowsMustBePositive) {
  EXPECT_FALSE(Validates("flows", "0"));
  EXPECT_FALSE(Validates("flows", "-3"));
  EXPECT_TRUE(Validates("flows", "1"));
}

TEST(ExperimentConfigValidationTest, LoadInHalfOpenUnitInterval) {
  EXPECT_FALSE(Validates("load", "0"));
  EXPECT_FALSE(Validates("load", "5"));
  EXPECT_FALSE(Validates("load", "nan"));
  EXPECT_TRUE(Validates("load", "1"));
  EXPECT_TRUE(Validates("load", "0.01"));
}

TEST(ExperimentConfigValidationTest, MixIntraBelowOne) {
  EXPECT_FALSE(Validates("mix_intra", "1"));
  EXPECT_FALSE(Validates("mix_intra", "-0.1"));
  EXPECT_TRUE(Validates("mix_intra", "0"));
  EXPECT_TRUE(Validates("mix_intra", "0.99"));
}

TEST(ExperimentConfigValidationTest, DciLossRateBelowOne) {
  EXPECT_FALSE(Validates("dci_loss_rate", "1.5"));
  EXPECT_FALSE(Validates("dci_loss_rate", "1"));
  EXPECT_FALSE(Validates("dci_loss_rate", "-0.001"));
  EXPECT_TRUE(Validates("dci_loss_rate", "0"));
  EXPECT_TRUE(Validates("dci_loss_rate", "0.5"));
}

TEST(ExperimentConfigValidationTest, MaxInflightBytesNonNegative) {
  EXPECT_FALSE(Validates("max_inflight_bytes", "-5"));
  EXPECT_TRUE(Validates("max_inflight_bytes", "0"));
  EXPECT_TRUE(Validates("max_inflight_bytes", "4194304"));
}

TEST(ExperimentConfigValidationTest, ExpandSweepRejectsOutOfRangeRun) {
  SweepSpec spec;
  spec.Loads({0.5, 2.0});
  std::vector<SweepRun> runs;
  std::string error;
  EXPECT_FALSE(ExpandSweep(spec, &runs, &error));
  EXPECT_NE(error.find("'load'"), std::string::npos) << error;
  EXPECT_NE(error.find("load=2"), std::string::npos) << error;  // names the run
}

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.AddRow({"xxxxx", "1"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a     | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxx | 1           |"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(2.0, 0), "2");
  EXPECT_EQ(FmtBytes(512), "512B");
  EXPECT_EQ(FmtBytes(2048), "2.0KB");
  EXPECT_EQ(FmtBytes(31457280), "30.0MB");
  EXPECT_EQ(FmtPct(-0.41), "-41%");
  EXPECT_EQ(FmtPct(0.25), "+25%");
}

}  // namespace
}  // namespace lcmp
