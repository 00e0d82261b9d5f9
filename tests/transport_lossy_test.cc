// Tests for the lossy long-haul tier (DESIGN.md §15): the Gilbert–Elliott
// DCI loss model, Go-Back-N vs IRN selective recovery over real wire loss,
// the retransmit-path bugfixes (duplicate-NACK epoch guard, windowed
// retransmit accounting), the gateway FEC shim, and shard-count invariance
// of lossy runs.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "stats/fct_recorder.h"
#include "topo/builders.h"
#include "transport/rdma_transport.h"
#include "transport/seq_window.h"

namespace lcmp {
namespace {

// Dumbbell: one host per DC, a single DCI link. Every DATA packet and every
// returning ACK/NACK/CNP crosses the lossy link, so control-packet loss is
// exercised as hard as data loss.
Graph Dumbbell(int64_t rate_bps = Gbps(50), TimeNs delay = Milliseconds(1)) {
  Graph g;
  FabricOptions fo;
  fo.hosts = 1;
  const NodeId dci0 = BuildDcFabric(g, 0, fo);
  const NodeId dci1 = BuildDcFabric(g, 1, fo);
  g.AddLink(dci0, dci1, rate_bps, delay);
  return g;
}

struct Harness {
  Harness(Graph g, const NetworkConfig& ncfg, TransportConfig tcfg)
      : graph(std::move(g)),
        net(graph, ncfg, MakePolicyFactory(PolicyKind::kEcmp, LcmpConfig{})),
        transport(&net, tcfg, [this](const FlowRecord& r) { records.push_back(r); }) {}
  Graph graph;
  Network net;
  RdmaTransport transport;
  std::vector<FlowRecord> records;
};

FlowSpec MakeFlow(FlowId id, NodeId src, NodeId dst, uint64_t bytes) {
  FlowSpec f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.key = FlowKey{src, dst, static_cast<uint32_t>(id), 4791, 17};
  f.size_bytes = bytes;
  return f;
}

NetworkConfig LossyNet(double loss_rate, int fec_k = 0, int fec_m = 0) {
  NetworkConfig ncfg;
  ncfg.dci_loss_rate = loss_rate;
  ncfg.fec_k = fec_k;
  ncfg.fec_m = fec_m;
  return ncfg;
}

// ---- SeqWindow unit coverage ----

TEST(SeqWindowTest, InsertDrainAdvance) {
  SeqWindow w;
  w.Reset(0, 64);
  EXPECT_TRUE(w.allocated());
  EXPECT_EQ(w.count(), 0u);
  EXPECT_TRUE(w.Insert(3));
  EXPECT_TRUE(w.Insert(5));
  EXPECT_FALSE(w.Insert(3));  // duplicate
  EXPECT_EQ(w.count(), 2u);
  EXPECT_EQ(w.FirstSet(), 3u);
  EXPECT_TRUE(w.TakeIfSet(3));
  EXPECT_FALSE(w.TakeIfSet(4));
  EXPECT_EQ(w.FirstSet(), 5u);
  w.AdvanceBaseTo(6);
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.FirstSet(), SeqWindow::kNone);
}

TEST(SeqWindowTest, RejectsOutOfWindow) {
  SeqWindow w;
  w.Reset(100, 64);
  EXPECT_FALSE(w.Insert(99));       // below base
  EXPECT_FALSE(w.Insert(100 + 64));  // beyond capacity
  EXPECT_TRUE(w.Insert(100));
  EXPECT_TRUE(w.Insert(163));
  EXPECT_EQ(w.count(), 2u);
}

TEST(SeqWindowTest, RingWrapKeepsOrder) {
  SeqWindow w;
  w.Reset(0, 64);
  // Walk the base far enough that slots wrap the ring several times; the
  // first-set scan must always report the lowest live sequence.
  uint32_t base = 0;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(w.Insert(base + 7));
    EXPECT_TRUE(w.Insert(base + 3));
    EXPECT_EQ(w.FirstSet(), base + 3);
    EXPECT_EQ(w.PopFirst(), base + 3);
    EXPECT_EQ(w.PopFirst(), base + 7);
    EXPECT_EQ(w.PopFirst(), SeqWindow::kNone);
    base += 50;  // not a multiple of 64: exercises mid-word wrap
    w.AdvanceBaseTo(base);
  }
}

// ---- loss-model recovery, both reliability modes ----

class LossyCompletionTest : public ::testing::TestWithParam<ReliabilityMode> {};

TEST_P(LossyCompletionTest, FlowsCompleteThroughWireLoss) {
  // 2% corruption on the DCI in both directions: DATA, ACKs, NACKs and CNPs
  // all die regularly. RTO probes plus (in IRN) chained NACK recovery must
  // still complete every flow.
  TransportConfig tcfg;
  tcfg.reliability = GetParam();
  Harness h(Dumbbell(), LossyNet(0.02), tcfg);
  for (FlowId i = 1; i <= 4; ++i) {
    h.transport.StartFlow(
        MakeFlow(i, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 1'000'000));
  }
  h.net.sim().Run(Seconds(60));
  ASSERT_EQ(h.records.size(), 4u);
  EXPECT_GT(h.net.CollectDciStats().lost_packets, 0);
  for (const FlowRecord& r : h.records) {
    EXPECT_GT(r.retransmitted_packets, 0u);
  }
}

TEST_P(LossyCompletionTest, WindowedSenderSurvivesLoss) {
  // Regression (windowed retransmit accounting): retransmitted segments lie
  // inside [acked, next_seq), whose bytes are already charged against the
  // in-flight window. Double-counting them would wedge a windowed sender
  // permanently once a loss pushed "inflight" over the cap.
  TransportConfig tcfg;
  tcfg.reliability = GetParam();
  tcfg.max_inflight_bytes = 64 * 1024;  // far below the 2 MB flow
  Harness h(Dumbbell(), LossyNet(0.02), tcfg);
  h.transport.StartFlow(
      MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 2'000'000));
  h.net.sim().Run(Seconds(60));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_GT(h.records[0].retransmitted_packets, 0u);
}

TEST_P(LossyCompletionTest, BurstLossRecovered) {
  // Gilbert–Elliott bursts (mean length 8) take out consecutive packets —
  // the worst case for selective recovery. Completion is still required.
  TransportConfig tcfg;
  tcfg.reliability = GetParam();
  NetworkConfig ncfg = LossyNet(0.01);
  ncfg.dci_burst_len = 8.0;
  Harness h(Dumbbell(), ncfg, tcfg);
  h.transport.StartFlow(
      MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 2'000'000));
  h.net.sim().Run(Seconds(60));
  ASSERT_EQ(h.records.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, LossyCompletionTest,
                         ::testing::Values(ReliabilityMode::kGoBackN, ReliabilityMode::kIrn),
                         [](const ::testing::TestParamInfo<ReliabilityMode>& info) {
                           return std::string(ReliabilityModeToken(info.param));
                         });

// ---- retransmit-path regressions ----

TEST(LossyTransportTest, IrnRetransmitsFarLessThanGbn) {
  // The point of IRN: at equal wire loss a selective sender repairs holes
  // instead of re-blasting windows. Same seed, same loss process.
  // Every retransmit path (GBN rewind, RTO, IRN selective) must count once in
  // all three tallies: the registry counter, the transport total and the
  // per-flow records.
  auto retransmits = [](ReliabilityMode mode) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    obs::SetMetricsEnabled(true);
    reg.ResetValues();
    TransportConfig tcfg;
    tcfg.reliability = mode;
    tcfg.max_inflight_bytes = 512 * 1024;
    Harness h(Dumbbell(), LossyNet(0.005), tcfg);
    h.transport.StartFlow(
        MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 8'000'000));
    h.net.sim().Run(Seconds(120));
    EXPECT_EQ(h.records.size(), 1u);
    int64_t per_flow = 0;
    for (const FlowRecord& r : h.records) {
      per_flow += r.retransmitted_packets;
    }
    const int64_t total = h.transport.retransmitted_packets();
    EXPECT_EQ(reg.GetCounter("transport.retransmitted_packets")->Total(), total)
        << ReliabilityModeToken(mode);
    EXPECT_EQ(per_flow, total) << ReliabilityModeToken(mode);
    obs::SetMetricsEnabled(false);
    reg.ResetValues();
    return total;
  };
  const int64_t gbn = retransmits(ReliabilityMode::kGoBackN);
  const int64_t irn = retransmits(ReliabilityMode::kIrn);
  EXPECT_GT(gbn, 0);
  EXPECT_GT(irn, 0);
  EXPECT_LT(irn * 5, gbn);  // at least 5x fewer
}

TEST(LossyTransportTest, DuplicateNackEpochGuardBoundsGbnBlasts) {
  // Regression (duplicate Go-Back-N blasts): with ACKs dying on the lossy
  // reverse path, the receiver emits a NACK for the same gap on every
  // arrival. Without the retransmit-epoch guard each duplicate rewound
  // next_seq and re-blasted the window several times per RTT; the total
  // retransmit count then exceeds the flow size many times over. With the
  // guard, one blast per gap per RTT bounds the damage.
  TransportConfig tcfg;  // Go-Back-N default
  Harness h(Dumbbell(), LossyNet(0.01), tcfg);
  const uint64_t bytes = 4'000'000;
  h.transport.StartFlow(MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], bytes));
  h.net.sim().Run(Seconds(120));
  ASSERT_EQ(h.records.size(), 1u);
  const uint64_t total_packets = h.records[0].total_packets;
  EXPECT_GT(h.records[0].retransmitted_packets, 0u);
  // Unguarded duplicate blasts retransmitted >10x the flow; guarded runs
  // stay within a few windows' worth.
  EXPECT_LT(h.records[0].retransmitted_packets, 5 * total_packets);
}

// ---- FEC shim ----

TEST(LossyTransportTest, FecReconstructsWithoutRetransmission) {
  // 4:2 FEC at 0.5% loss: isolated corruptions are reconstructed at the far
  // gateway, so the transport sees (almost) no loss at all.
  TransportConfig tcfg;
  tcfg.reliability = ReliabilityMode::kIrn;
  Harness h(Dumbbell(), LossyNet(0.005, /*fec_k=*/4, /*fec_m=*/2), tcfg);
  h.transport.StartFlow(
      MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 4'000'000));
  h.net.sim().Run(Seconds(60));
  ASSERT_EQ(h.records.size(), 1u);
  const DciTierStats stats = h.net.CollectDciStats();
  EXPECT_GT(stats.lost_packets, 0);
  EXPECT_GT(stats.repair_packets, 0);
  EXPECT_GT(stats.recovered_packets, 0);
  EXPECT_GT(stats.fec_groups, 0);
  // Reconstruction rides through most losses; the few unrecovered ones (or
  // late reconstructions) may still cost a handful of retransmits.
  EXPECT_LT(h.records[0].retransmitted_packets, 50u);
}

TEST(LossyTransportTest, FecOffMeansNoRepairTraffic) {
  TransportConfig tcfg;
  Harness h(Dumbbell(), LossyNet(0.02), tcfg);
  h.transport.StartFlow(
      MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 2'000'000));
  h.net.sim().Run(Seconds(60));
  const DciTierStats stats = h.net.CollectDciStats();
  EXPECT_GT(stats.lost_packets, 0);
  EXPECT_EQ(stats.repair_packets, 0);
  EXPECT_EQ(stats.recovered_packets, 0);
  EXPECT_EQ(stats.fec_groups, 0);
}

// ---- full-harness properties: digests and shard invariance ----

ExperimentConfig LossyExperiment() {
  ExperimentConfig config;
  config.num_flows = 60;
  config.seed = 11;
  config.reliability = ReliabilityMode::kIrn;
  config.dci_loss_rate = 0.001;
  config.max_inflight_bytes = 4 * 1024 * 1024;
  return config;
}

TEST(LossyTransportTest, ShardCountDoesNotChangeLossyDigest) {
  // The loss RNG is seeded per directed link from the global seed — never
  // from shard layout — so a lossy run must stay bit-identical across shard
  // counts, exactly like a loss-free one.
  ExperimentConfig config = LossyExperiment();
  const ExperimentResult seq = RunExperiment(config);
  config.shards = 2;
  const ExperimentResult sharded = RunExperiment(config);
  EXPECT_GT(seq.dci_lost_packets, 0);
  EXPECT_EQ(seq.flows_completed, seq.flows_requested);
  EXPECT_EQ(ExperimentDigest(seq), ExperimentDigest(sharded));
  EXPECT_EQ(seq.dci_lost_packets, sharded.dci_lost_packets);
}

TEST(LossyTransportTest, LossRateZeroMatchesBaselineDigest) {
  // Arming the tier with loss 0 / FEC off must not consume RNG or change
  // event order: the digest equals a run without the tier configured.
  ExperimentConfig base;
  base.num_flows = 60;
  base.seed = 11;
  const ExperimentResult a = RunExperiment(base);
  ExperimentConfig zero = base;
  zero.dci_loss_rate = 0.0;
  zero.dci_burst_len = 4.0;  // burst length alone must not matter
  const ExperimentResult b = RunExperiment(zero);
  EXPECT_EQ(ExperimentDigest(a), ExperimentDigest(b));
  EXPECT_EQ(b.dci_lost_packets, 0);
}

}  // namespace
}  // namespace lcmp
