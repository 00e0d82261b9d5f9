// Tests for the RDMA transport: completion, pacing, ACK semantics,
// Go-Back-N on loss/reorder, RTO recovery after link failure, CNP/ECN
// plumbing, and every registered congestion controller.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "routing/ecmp.h"
#include "sim/network.h"
#include "topo/builders.h"
#include "transport/cc/dcqcn.h"
#include "transport/cc/dctcp.h"
#include "transport/cc/hpcc.h"
#include "transport/cc/timely.h"
#include "transport/rdma_transport.h"

namespace lcmp {
namespace {

PolicyFactory EcmpFactory() {
  return [](SwitchNode&) { return std::make_unique<EcmpPolicy>(); };
}

FlowSpec MakeFlow(FlowId id, NodeId src, NodeId dst, uint64_t bytes, TimeNs start = 0) {
  FlowSpec f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.key = FlowKey{src, dst, static_cast<uint32_t>(id), 4791, 17};
  f.size_bytes = bytes;
  f.start_time = start;
  return f;
}

struct Harness {
  explicit Harness(Graph g, TransportConfig tcfg = {}, NetworkConfig ncfg = {})
      : graph(std::move(g)),
        net(graph, ncfg, EcmpFactory()),
        transport(&net, tcfg, [this](const FlowRecord& r) { records.push_back(r); }) {}
  Graph graph;
  Network net;
  RdmaTransport transport;
  std::vector<FlowRecord> records;
};

TEST(TransportTest, SingleFlowCompletes) {
  const LinearTopo t = BuildLinear(Gbps(100), Microseconds(1));
  Harness h(t.graph);
  h.transport.StartFlow(MakeFlow(1, t.src_host, t.dst_host, 100'000));
  h.net.sim().Run();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].spec.size_bytes, 100'000u);
  EXPECT_EQ(h.records[0].retransmitted_packets, 0u);
}

TEST(TransportTest, FctClosesOnIdealForLoneFlow) {
  const LinearTopo t = BuildLinear(Gbps(100), Microseconds(1));
  Harness h(t.graph);
  const uint64_t bytes = 1'000'000;
  h.transport.StartFlow(MakeFlow(1, t.src_host, t.dst_host, bytes));
  h.net.sim().Run();
  ASSERT_EQ(h.records.size(), 1u);
  const TimeNs fct = h.records[0].complete_time - h.records[0].start_time;
  // Ideal: ~2 us propagation + 80 us serialization at 100G (plus headers).
  const TimeNs ideal = Microseconds(2) + SerializationDelay(bytes, Gbps(100));
  EXPECT_GT(fct, ideal);
  EXPECT_LT(fct, 2 * ideal);
}

TEST(TransportTest, TinyFlowIsSinglePacket) {
  const LinearTopo t = BuildLinear();
  Harness h(t.graph);
  h.transport.StartFlow(MakeFlow(1, t.src_host, t.dst_host, 100));
  h.net.sim().Run();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].total_packets, 1u);
}

TEST(TransportTest, ManyConcurrentFlowsAllComplete) {
  const Graph g = BuildDumbbell(2, 4, Gbps(100), Milliseconds(1));
  Harness h(g);
  const auto src_hosts = g.HostsInDc(0);
  const auto dst_hosts = g.HostsInDc(1);
  for (FlowId i = 1; i <= 40; ++i) {
    h.transport.ScheduleFlow(MakeFlow(i, src_hosts[i % src_hosts.size()],
                                      dst_hosts[(i + 1) % dst_hosts.size()], 50'000 * i,
                                      static_cast<TimeNs>(i) * Microseconds(10)));
  }
  h.net.sim().Run();
  EXPECT_EQ(h.records.size(), 40u);
  EXPECT_EQ(h.transport.active_senders(), 0);
}

TEST(TransportTest, ScheduledFlowStartsAtRequestedTime) {
  const LinearTopo t = BuildLinear();
  Harness h(t.graph);
  h.transport.ScheduleFlow(MakeFlow(1, t.src_host, t.dst_host, 1000, Milliseconds(3)));
  h.net.sim().Run();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].start_time, Milliseconds(3));
}

TEST(TransportTest, GoBackNRecoversFromDrops) {
  // Tiny inter-DC buffer forces drops; Go-Back-N must still complete the
  // flow, with retransmissions recorded.
  Graph g = BuildDumbbell(1, 1, Gbps(1), Milliseconds(1));
  // Shrink the single inter-DC link buffer.
  Graph g2;
  FabricOptions fo;
  fo.hosts = 1;
  const NodeId dci0 = BuildDcFabric(g2, 0, fo);
  const NodeId dci1 = BuildDcFabric(g2, 1, fo);
  g2.AddLink(dci0, dci1, Gbps(1), Milliseconds(1), /*buffer=*/20'000);
  Harness h(std::move(g2));
  const auto src = h.graph.HostsInDc(0)[0];
  const auto dst = h.graph.HostsInDc(1)[0];
  h.transport.StartFlow(MakeFlow(1, src, dst, 3'000'000));
  h.net.sim().Run(Seconds(30));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_GT(h.records[0].retransmitted_packets, 0u);
  (void)g;
}

TEST(TransportTest, RtoRecoversFromLinkBlackout) {
  // Kill the only link mid-flow, then restore it: the RTO path must resume
  // and complete the transfer.
  Graph g;
  FabricOptions fo;
  fo.hosts = 1;
  const NodeId dci0 = BuildDcFabric(g, 0, fo);
  const NodeId dci1 = BuildDcFabric(g, 1, fo);
  const int inter = g.AddLink(dci0, dci1, Gbps(10), Milliseconds(1));
  Harness h(std::move(g));
  const auto src = h.graph.HostsInDc(0)[0];
  const auto dst = h.graph.HostsInDc(1)[0];
  h.transport.StartFlow(MakeFlow(1, src, dst, 2'000'000));
  h.net.sim().Schedule(Microseconds(300), [&] { h.net.SetLinkUp(inter, false); });
  h.net.sim().Schedule(Milliseconds(20), [&] { h.net.SetLinkUp(inter, true); });
  h.net.sim().Run(Seconds(30));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_GT(h.transport.timeouts(), 0);
}

TEST(TransportTest, EcnMarksGenerateCnps) {
  // Saturate a slow link with two big flows: ECN marks must flow back as
  // CNPs and DCQCN must cut the rate.
  const Graph g = BuildDumbbell(1, 2, Gbps(100), Milliseconds(1));
  // ECN is on by default in NetworkConfig; inter-DC link is 1 Gbps? No:
  // dumbbell passes rate for inter-DC links; keep it slow relative to hosts.
  Graph g2 = BuildDumbbell(1, 2, Gbps(10), Milliseconds(1));
  Harness h(std::move(g2));
  const auto src_hosts = h.graph.HostsInDc(0);
  const auto dst_hosts = h.graph.HostsInDc(1);
  h.transport.StartFlow(MakeFlow(1, src_hosts[0], dst_hosts[0], 4'000'000));
  h.transport.StartFlow(MakeFlow(2, src_hosts[1], dst_hosts[1], 4'000'000));
  h.net.sim().Run(Seconds(10));
  EXPECT_EQ(h.records.size(), 2u);
  EXPECT_GT(h.transport.cnps_received(), 0);
  (void)g;
}

class AllCcTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllCcTest, CompletesUnderEveryCc) {
  const Graph g = BuildDumbbell(2, 2, Gbps(10), Milliseconds(1));
  NetworkConfig ncfg;
  ncfg.enable_int = CcRegistry::Instance().NeedsInt(GetParam());
  TransportConfig tcfg;
  tcfg.cc.inter = GetParam();
  tcfg.cc.intra = GetParam();
  Harness h(g, tcfg, ncfg);
  const auto src_hosts = g.HostsInDc(0);
  const auto dst_hosts = g.HostsInDc(1);
  for (FlowId i = 1; i <= 8; ++i) {
    h.transport.ScheduleFlow(MakeFlow(i, src_hosts[i % 2], dst_hosts[(i + 1) % 2],
                                      500'000, static_cast<TimeNs>(i) * Microseconds(50)));
  }
  h.net.sim().Run(Seconds(20));
  EXPECT_EQ(h.records.size(), 8u) << "cc=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllCcs, AllCcTest,
                         ::testing::Values("dcqcn", "hpcc", "timely", "dctcp", "lcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- Unit tests of the CC modules themselves ---

TEST(DcqcnUnitTest, CnpCutsRateAndRecovers) {
  Dcqcn cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  EXPECT_EQ(cc.rate_bps(), Gbps(100));
  cc.OnCnp(Microseconds(10));
  const int64_t after_cut = cc.rate_bps();
  EXPECT_LT(after_cut, Gbps(100));
  // Rate recovers over time through FR/AI on ACK clocking.
  Packet ack;
  cc.OnAck(ack, nullptr, Milliseconds(1), Milliseconds(50));
  EXPECT_GT(cc.rate_bps(), after_cut);
}

TEST(DcqcnUnitTest, RepeatedCnpsCompound) {
  Dcqcn cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  cc.OnCnp(Microseconds(10));
  const int64_t one = cc.rate_bps();
  cc.OnCnp(Microseconds(20));
  EXPECT_LT(cc.rate_bps(), one);
}

TEST(DcqcnUnitTest, AlphaDecaysWithoutCnps) {
  Dcqcn cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  cc.OnCnp(Microseconds(10));
  const double alpha_after_cnp = cc.alpha();
  Packet ack;
  cc.OnAck(ack, nullptr, Milliseconds(1), Milliseconds(100));
  EXPECT_LT(cc.alpha(), alpha_after_cnp);
}

TEST(DctcpUnitTest, MarkedWindowCutsRate) {
  Dctcp cc;
  cc.Init(Gbps(100), Microseconds(100), 0);
  Packet marked;
  marked.ecn_echo = true;
  // A full RTT window of marked ACKs.
  for (int i = 0; i < 50; ++i) {
    cc.OnAck(marked, nullptr, Microseconds(100), Microseconds(2 * i));
  }
  cc.OnAck(marked, nullptr, Microseconds(100), Microseconds(150));
  EXPECT_LT(cc.rate_bps(), Gbps(100));
  EXPECT_GT(cc.alpha(), 0.0);
}

TEST(DctcpUnitTest, CleanWindowGrowsRate) {
  Dctcp cc;
  cc.Init(Gbps(100), Microseconds(100), 0);
  Packet marked;
  marked.ecn_echo = true;
  for (int i = 0; i < 50; ++i) {
    cc.OnAck(marked, nullptr, Microseconds(100), Microseconds(2 * i));
  }
  cc.OnAck(marked, nullptr, Microseconds(100), Microseconds(150));
  const int64_t low = cc.rate_bps();
  Packet clean;
  for (int i = 0; i < 200; ++i) {
    cc.OnAck(clean, nullptr, Microseconds(100), Microseconds(200 + 2 * i));
  }
  EXPECT_GT(cc.rate_bps(), low);
}

TEST(TimelyUnitTest, RisingRttCutsRate) {
  Timely cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  Packet ack;
  // Steeply rising RTT well above t_high.
  for (int i = 0; i < 20; ++i) {
    cc.OnAck(ack, nullptr, Milliseconds(1) + Microseconds(100) * i + Microseconds(600), 0);
  }
  EXPECT_LT(cc.rate_bps(), Gbps(100));
}

TEST(TimelyUnitTest, LowRttGrowsRateBack) {
  Timely cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  Packet ack;
  for (int i = 0; i < 20; ++i) {
    cc.OnAck(ack, nullptr, Milliseconds(2), 0);
  }
  const int64_t low = cc.rate_bps();
  ASSERT_LT(low, Gbps(100));
  for (int i = 0; i < 50; ++i) {
    cc.OnAck(ack, nullptr, Milliseconds(1) + Microseconds(10), 0);
  }
  EXPECT_GT(cc.rate_bps(), low);
}

TEST(HpccUnitTest, HighUtilizationCutsRate) {
  Hpcc cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  Packet ack;
  IntStack stack;
  stack.hops = 1;
  stack.rec[0].rate_bps = Gbps(100);
  // Queue of a full BDP -> U >= 1 > eta.
  stack.rec[0].qlen_bytes = Gbps(100) / 8 / 1000;  // 1 ms of line rate
  stack.rec[0].tx_bytes = 1'000'000;
  stack.rec[0].ts = Microseconds(100);
  cc.OnAck(ack, &stack, Milliseconds(1), Microseconds(100));
  EXPECT_LT(cc.rate_bps(), Gbps(100));
}

TEST(HpccUnitTest, LowUtilizationProbesUp) {
  Hpcc cc;
  cc.Init(Gbps(100), Milliseconds(1), 0);
  // Drop the rate first.
  cc.OnTimeout(0);
  const int64_t low = cc.rate_bps();
  Packet ack;
  IntStack stack;
  stack.hops = 1;
  stack.rec[0].rate_bps = Gbps(100);
  stack.rec[0].qlen_bytes = 0;
  stack.rec[0].ts = Microseconds(100);
  cc.OnAck(ack, &stack, Milliseconds(1), Microseconds(100));
  EXPECT_GT(cc.rate_bps(), low);
}

TEST(CcRegistryTest, TokensFactoriesAndIntFlag) {
  CcRegistry& reg = CcRegistry::Instance();
  for (const char* token : {"dcqcn", "hpcc", "timely", "dctcp", "lcp"}) {
    ASSERT_TRUE(reg.Known(token)) << token;
    EXPECT_STREQ(reg.Create(token)->name(), token);
  }
  EXPECT_FALSE(reg.Known("cubic"));
  EXPECT_TRUE(reg.NeedsInt("hpcc"));
  EXPECT_FALSE(reg.NeedsInt("dcqcn"));
  EXPECT_FALSE(reg.NeedsInt("lcp"));
  EXPECT_FALSE(CcNeedsInt(SegmentCcSpec{"lcp", "dcqcn"}));
  EXPECT_TRUE(CcNeedsInt(SegmentCcSpec{"hpcc", "dcqcn"}));
  EXPECT_TRUE(CcNeedsInt(SegmentCcSpec{"dcqcn", "hpcc"}));
  std::string token;
  std::string error;
  EXPECT_TRUE(ParseCcToken("lcp", &token, &error));
  EXPECT_EQ(token, "lcp");
  EXPECT_FALSE(ParseCcToken("reno", &token, &error));
  EXPECT_NE(error.find("lcp"), std::string::npos) << error;
}

}  // namespace
}  // namespace lcmp
