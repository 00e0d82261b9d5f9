// Tests for the statistics pipeline: FCT recorder / slowdown math, size
// buckets, DC-pair filters and link-utilization tracking.
#include <gtest/gtest.h>

#include "routing/ecmp.h"
#include "sim/network.h"
#include "stats/fct_recorder.h"
#include "stats/link_utilization.h"
#include "topo/builders.h"

namespace lcmp {
namespace {

FlowRecord MakeRecord(const Graph& g, NodeId src, NodeId dst, uint64_t bytes, TimeNs fct) {
  FlowRecord r;
  r.spec.src = src;
  r.spec.dst = dst;
  r.spec.size_bytes = bytes;
  r.start_time = Milliseconds(1);
  r.complete_time = Milliseconds(1) + fct;
  (void)g;
  return r;
}

TEST(FctRecorderTest, IdealFctUsesMinDelayPath) {
  const LinearTopo t = BuildLinear(Gbps(100), Microseconds(1));
  FctRecorder rec(&t.graph);
  const uint64_t bytes = 1'000'000;
  const TimeNs ideal = rec.IdealFct(t.src_host, t.dst_host, bytes);
  EXPECT_EQ(ideal, Microseconds(2) + SerializationDelay(bytes, Gbps(100)));
}

TEST(FctRecorderTest, SlowdownIsRelativeToIdeal) {
  const LinearTopo t = BuildLinear(Gbps(100), Microseconds(1));
  FctRecorder rec(&t.graph);
  const uint64_t bytes = 1'000'000;
  const TimeNs ideal = rec.IdealFct(t.src_host, t.dst_host, bytes);
  rec.OnComplete(MakeRecord(t.graph, t.src_host, t.dst_host, bytes, 3 * ideal));
  ASSERT_EQ(rec.completed(), 1);
  EXPECT_NEAR(rec.samples()[0].slowdown, 3.0, 0.01);
  EXPECT_NEAR(rec.Overall().p50, 3.0, 0.01);
}

TEST(FctRecorderTest, DcPairFilter) {
  const Graph g = BuildTestbed8({});
  FctRecorder rec(&g);
  const auto h1 = g.HostsInDc(0);
  const auto h8 = g.HostsInDc(7);
  const TimeNs ideal = rec.IdealFct(h1[0], h8[0], 1000);
  rec.OnComplete(MakeRecord(g, h1[0], h8[0], 1000, 2 * ideal));
  rec.OnComplete(MakeRecord(g, h8[0], h1[0], 1000, 4 * ideal));
  EXPECT_EQ(rec.ForDcPair(0, 7).count, 1);
  EXPECT_NEAR(rec.ForDcPair(0, 7).p50, 2.0, 0.01);
  EXPECT_EQ(rec.ForDcPair(7, 0).count, 1);
  EXPECT_EQ(rec.ForDcPair(0, 3).count, 0);
}

TEST(FctRecorderTest, BucketsPartitionBySize) {
  const LinearTopo t = BuildLinear();
  FctRecorder rec(&t.graph);
  for (uint64_t bytes : {500u, 1500u, 5000u, 50'000u, 500'000u}) {
    const TimeNs ideal = rec.IdealFct(t.src_host, t.dst_host, bytes);
    rec.OnComplete(MakeRecord(t.graph, t.src_host, t.dst_host, bytes, 2 * ideal));
  }
  const auto buckets = rec.ByBuckets({1000, 10'000, 100'000});
  // 4 non-empty buckets: <=1000 (500), <=10k (1500,5000), <=100k (50k),
  // overflow (500k).
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].stats.count, 1);
  EXPECT_EQ(buckets[1].stats.count, 2);
  EXPECT_EQ(buckets[2].stats.count, 1);
  EXPECT_EQ(buckets[3].stats.count, 1);
}

TEST(FctRecorderTest, WherePredicate) {
  const LinearTopo t = BuildLinear();
  FctRecorder rec(&t.graph);
  for (int i = 1; i <= 10; ++i) {
    const TimeNs ideal = rec.IdealFct(t.src_host, t.dst_host, 1000);
    rec.OnComplete(MakeRecord(t.graph, t.src_host, t.dst_host, 1000, i * ideal));
  }
  const SlowdownStats big = rec.Where(
      [](const FctRecorder::Sample& s) { return s.slowdown > 5.0; });
  EXPECT_EQ(big.count, 5);
}

TEST(LinkUtilizationTest, MeasuresTransmittedFraction) {
  Graph g = BuildDumbbell(1, 1, Gbps(1), Milliseconds(1));
  Network net(g, NetworkConfig{}, [](SwitchNode&) { return std::make_unique<EcmpPolicy>(); });
  LinkUtilizationTracker tracker(&net);
  tracker.Begin();
  // Push 10 packets of 1000 B through the single inter-DC link, then idle
  // until exactly 1 ms of window has passed.
  const auto src = g.HostsInDc(0)[0];
  const auto dst = g.HostsInDc(1)[0];
  for (uint32_t i = 0; i < 10; ++i) {
    Packet p;
    p.type = PacketType::kData;
    p.src = src;
    p.dst = dst;
    p.key = FlowKey{src, dst, i, 4791, 17};
    p.size_bytes = 1000;
    net.host(src).Send(p);
  }
  net.sim().Schedule(Milliseconds(10), [] {});
  net.sim().Run();
  const auto utils = tracker.End();
  ASSERT_EQ(utils.size(), 2u);
  // 10 kB over 10 ms on 1 Gbps = 10k*8 / (1e9*0.01) = 0.8%.
  double forward = 0;
  for (const auto& u : utils) {
    forward = std::max(forward, u.utilization);
  }
  EXPECT_NEAR(forward, 0.008, 0.002);
}

TEST(LinkUtilizationTest, WindowExcludesEarlierTraffic) {
  Graph g = BuildDumbbell(1, 1, Gbps(1), Milliseconds(1));
  Network net(g, NetworkConfig{}, [](SwitchNode&) { return std::make_unique<EcmpPolicy>(); });
  const auto src = g.HostsInDc(0)[0];
  const auto dst = g.HostsInDc(1)[0];
  Packet p;
  p.type = PacketType::kData;
  p.src = src;
  p.dst = dst;
  p.key = FlowKey{src, dst, 1, 4791, 17};
  p.size_bytes = 1000;
  net.host(src).Send(p);
  net.sim().Run();
  LinkUtilizationTracker tracker(&net);
  tracker.Begin();
  net.sim().Schedule(Milliseconds(1), [] {});
  net.sim().Run();
  for (const auto& u : tracker.End()) {
    EXPECT_EQ(u.bytes, 0);
  }
}

}  // namespace
}  // namespace lcmp
