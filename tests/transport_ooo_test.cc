// Tests for the out-of-order-tolerance extension (paper Sec. 7.5 future
// work): selective retransmission, flowlet-gap steering, and the contrast
// with Go-Back-N under deliberate reordering.
#include <gtest/gtest.h>

#include <memory>

#include "core/control_plane.h"
#include "core/lcmp_router.h"
#include "routing/policy.h"
#include "stats/fct_recorder.h"
#include "topo/builders.h"
#include "transport/rdma_transport.h"

namespace lcmp {
namespace {

// Test-only policy: per-packet round-robin across candidates — maximal
// reordering pressure when candidate paths have different delays.
class PacketSprayPolicy : public MultipathPolicy {
 public:
  PortIndex SelectPort(SwitchNode& sw, const Packet&,
                       std::span<const PathCandidate> candidates) override {
    for (size_t i = 0; i < candidates.size(); ++i) {
      const PathCandidate& c = candidates[(next_ + i) % candidates.size()];
      if (sw.port(c.port).up()) {
        next_ = (next_ + i + 1) % candidates.size();
        return c.port;
      }
    }
    return kInvalidPort;
  }
  const char* name() const override { return "spray"; }

 private:
  size_t next_ = 0;
};

// Dumbbell with two parallel links of *different* delays so per-packet
// spraying reorders heavily.
Graph AsymmetricDumbbell() {
  Graph g;
  FabricOptions fo;
  fo.hosts = 1;
  const NodeId dci0 = BuildDcFabric(g, 0, fo);
  const NodeId dci1 = BuildDcFabric(g, 1, fo);
  g.AddLink(dci0, dci1, Gbps(50), Milliseconds(1));
  g.AddLink(dci0, dci1, Gbps(50), Milliseconds(3));
  return g;
}

struct Harness {
  Harness(Graph g, PolicyFactory factory, TransportConfig tcfg)
      : graph(std::move(g)),
        net(graph, NetworkConfig{}, std::move(factory)),
        recorder(&net.graph()),
        transport(&net, tcfg,
                  [this](const FlowRecord& r) { records.push_back(r); }) {}
  Graph graph;
  Network net;
  FctRecorder recorder;
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

PolicyFactory SprayFactory() {
  return [](SwitchNode&) { return std::make_unique<PacketSprayPolicy>(); };
}

TEST(OooToleranceTest, GoBackNSuffersUnderSpraying) {
  // Baseline: per-packet spraying over asymmetric-delay paths with a
  // commodity (Go-Back-N) receiver causes heavy retransmission.
  TransportConfig tcfg;
  Harness h(AsymmetricDumbbell(), SprayFactory(), tcfg);
  h.transport.StartFlow(MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0],
                                 4'000'000));
  h.net.sim().Run(Seconds(30));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_GT(h.records[0].retransmitted_packets, 100u);
}

TEST(OooToleranceTest, SelectiveRetransmissionAbsorbsReordering) {
  // With OoO tolerance the same spraying completes with (near-)zero
  // retransmissions: reordered segments are buffered, holes fill naturally.
  TransportConfig tcfg;
  tcfg.reliability = ReliabilityMode::kIrn;
  Harness h(AsymmetricDumbbell(), SprayFactory(), tcfg);
  h.transport.StartFlow(MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0],
                                 4'000'000));
  h.net.sim().Run(Seconds(30));
  ASSERT_EQ(h.records.size(), 1u);
  // Spurious NACKs may trigger a handful of selective retransmits, but the
  // Go-Back-N blowup (hundreds) must be gone.
  EXPECT_LT(h.records[0].retransmitted_packets, 20u);
}

TEST(OooToleranceTest, OooFctBeatsGbnUnderSpraying) {
  auto run = [](bool ooo) {
    TransportConfig tcfg;
    tcfg.reliability = ooo ? ReliabilityMode::kIrn : ReliabilityMode::kGoBackN;
    Harness h(AsymmetricDumbbell(), SprayFactory(), tcfg);
    h.transport.StartFlow(MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0],
                                   8'000'000));
    h.net.sim().Run(Seconds(60));
    return h.records.at(0).complete_time - h.records.at(0).start_time;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(OooToleranceTest, RecoversFromRealLossViaSelectiveRetransmit) {
  // Drop-inducing tiny buffer: holes are real losses, not reordering; the
  // selective path must still complete the flow.
  Graph g;
  FabricOptions fo;
  fo.hosts = 1;
  const NodeId dci0 = BuildDcFabric(g, 0, fo);
  const NodeId dci1 = BuildDcFabric(g, 1, fo);
  g.AddLink(dci0, dci1, Gbps(1), Milliseconds(1), /*buffer=*/20'000);
  TransportConfig tcfg;
  tcfg.reliability = ReliabilityMode::kIrn;
  Harness h(std::move(g), SprayFactory(), tcfg);
  h.transport.StartFlow(MakeFlow(1, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0],
                                 2'000'000));
  h.net.sim().Run(Seconds(60));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_GT(h.records[0].retransmitted_packets, 0u);
}

TEST(OooToleranceTest, FlowletGapRestartsDecisionWithoutReorderDamage) {
  // Flowlet steering (tiny flow-cache idle timeout) + OoO tolerance: flows
  // complete cleanly even though the path may change at flowlet boundaries.
  LcmpConfig lcmp_config;
  lcmp_config.flow_idle_timeout = Microseconds(200);  // flowlet gap
  TransportConfig tcfg;
  tcfg.reliability = ReliabilityMode::kIrn;
  Harness h(AsymmetricDumbbell(), MakeLcmpFactory(lcmp_config), tcfg);
  for (FlowId i = 1; i <= 10; ++i) {
    FlowSpec f = MakeFlow(i, h.graph.HostsInDc(0)[0], h.graph.HostsInDc(1)[0], 1'000'000);
    f.start_time = static_cast<TimeNs>(i) * Milliseconds(2);
    h.transport.ScheduleFlow(f);
  }
  h.net.sim().Run(Seconds(30));
  EXPECT_EQ(h.records.size(), 10u);
}

TEST(OooToleranceTest, InOrderTrafficUnaffected) {
  // Single-path topology: OoO mode must behave identically to the default.
  const LinearTopo t = BuildLinear();
  TransportConfig tcfg;
  tcfg.reliability = ReliabilityMode::kIrn;
  Harness h(t.graph, nullptr, tcfg);
  h.transport.StartFlow(MakeFlow(1, t.src_host, t.dst_host, 1'000'000));
  h.net.sim().Run();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].retransmitted_packets, 0u);
}

}  // namespace
}  // namespace lcmp
