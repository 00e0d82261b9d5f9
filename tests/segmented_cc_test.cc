// SegmentedCc composite: min-rate composition, per-segment signal demux
// (gateway-stamp RTT split, ECN mask routing, INT slicing, CNP fan-out), and
// the legacy --cc shim equivalence (a uniform spec must reproduce the
// single-instance transport bit for bit, at any shard count).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "sim/int_pool.h"
#include "transport/cc/cc_registry.h"
#include "transport/cc/segmented_cc.h"

namespace lcmp {
namespace {

// Scripted controller: fixed rate, records every callback it receives.
class FakeCc : public CongestionControl {
 public:
  explicit FakeCc(int64_t rate) : rate_(rate) {}

  void Init(int64_t line_rate_bps, TimeNs base_rtt, TimeNs /*now*/) override {
    init_line_rate = line_rate_bps;
    init_base_rtt = base_rtt;
  }
  void OnAck(const Packet& ack, const IntStack* telemetry, TimeNs rtt, TimeNs /*now*/) override {
    ++acks;
    last_rtt = rtt;
    last_ecn_echo = ack.ecn_echo;
    last_int_hops = telemetry != nullptr ? telemetry->hops : 0;
  }
  void OnCnp(TimeNs /*now*/, uint8_t /*ecn_mask*/) override { ++cnps; }
  void OnTimeout(TimeNs /*now*/) override { ++timeouts; }
  int64_t rate_bps() const override { return rate_; }
  const char* name() const override { return "fake"; }

  int64_t rate_;
  int64_t init_line_rate = 0;
  TimeNs init_base_rtt = 0;
  int acks = 0;
  int cnps = 0;
  int timeouts = 0;
  TimeNs last_rtt = 0;
  bool last_ecn_echo = false;
  int last_int_hops = 0;
};

struct Composite {
  FakeCc* intra_src;
  FakeCc* inter;
  FakeCc* intra_dst;
  std::unique_ptr<SegmentedCc> cc;
};

Composite MakeComposite(int64_t r0, int64_t r1, int64_t r2,
                        SegmentBaseRtts base = {Microseconds(20), Milliseconds(20),
                                                Microseconds(20)}) {
  auto s0 = std::make_unique<FakeCc>(r0);
  auto s1 = std::make_unique<FakeCc>(r1);
  auto s2 = std::make_unique<FakeCc>(r2);
  Composite c{s0.get(), s1.get(), s2.get(), nullptr};
  c.cc = std::make_unique<SegmentedCc>(std::move(s0), std::move(s1), std::move(s2), base,
                                       "fake/fake");
  return c;
}

TEST(SegmentedCcTest, RateIsMinOfSegments) {
  Composite c = MakeComposite(Gbps(100), Gbps(10), Gbps(40));
  EXPECT_EQ(c.cc->rate_bps(), Gbps(10));
  c.inter->rate_ = Gbps(200);
  EXPECT_EQ(c.cc->rate_bps(), Gbps(40));
  c.intra_src->rate_ = Gbps(1);
  EXPECT_EQ(c.cc->rate_bps(), Gbps(1));
}

TEST(SegmentedCcTest, InitHandsEachSegmentItsOwnBaseRtt) {
  SegmentBaseRtts base{Microseconds(15), Milliseconds(40), Microseconds(25)};
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100), base);
  c.cc->Init(Gbps(100), /*base_rtt=*/Milliseconds(41), /*now=*/0);
  EXPECT_EQ(c.intra_src->init_base_rtt, Microseconds(15));
  EXPECT_EQ(c.inter->init_base_rtt, Milliseconds(40));
  EXPECT_EQ(c.intra_dst->init_base_rtt, Microseconds(25));
  EXPECT_EQ(c.inter->init_line_rate, Gbps(100));
}

// Pins the gateway-stamp RTT split exactly: the bugfix threads the source
// and destination DCI arrival offsets through the Packet so each segment sees
// its own round trip, not a base-RTT guess.
TEST(SegmentedCcTest, GatewayStampsSplitRttExactly) {
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100));
  Packet ack;
  ack.type = PacketType::kAck;
  ack.sent_ts = Milliseconds(1);
  ack.gw_src_off = static_cast<uint32_t>(Microseconds(5));    // host -> src DCI
  ack.gw_dst_off = static_cast<uint32_t>(Milliseconds(10));   // host -> dst DCI
  const TimeNs rtt = Milliseconds(21);
  c.cc->OnAck(ack, nullptr, rtt, /*now=*/Milliseconds(22));

  const SegmentRtts& split = c.cc->last_rtts();
  EXPECT_EQ(split.intra_src, 2 * Microseconds(5));
  EXPECT_EQ(split.inter, 2 * (Milliseconds(10) - Microseconds(5)));
  EXPECT_EQ(split.intra_dst, rtt - split.intra_src - split.inter);
  EXPECT_EQ(split.intra_src + split.inter + split.intra_dst, rtt);
  // Each sub-controller received exactly its own segment round trip.
  EXPECT_EQ(c.intra_src->last_rtt, split.intra_src);
  EXPECT_EQ(c.inter->last_rtt, split.inter);
  EXPECT_EQ(c.intra_dst->last_rtt, split.intra_dst);
}

TEST(SegmentedCcTest, MissingStampsFallBackToProportionalSplit) {
  // Base RTTs 1:2:1 -> a 40us measured RTT splits 10/20/10.
  SegmentBaseRtts base{Microseconds(10), Microseconds(20), Microseconds(10)};
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100), base);
  Packet ack;
  ack.type = PacketType::kAck;  // gw offsets stay 0: never crossed a DCI
  c.cc->OnAck(ack, nullptr, Microseconds(40), /*now=*/0);
  EXPECT_EQ(c.intra_src->last_rtt, Microseconds(10));
  EXPECT_EQ(c.inter->last_rtt, Microseconds(20));
  EXPECT_EQ(c.intra_dst->last_rtt, Microseconds(10));
}

TEST(SegmentedCcTest, EcnEchoRoutesByMask) {
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100));
  Packet ack;
  ack.type = PacketType::kAck;
  ack.ecn_echo = true;
  ack.ecn_mask = kSegInterDc;  // the mark happened on the long haul
  c.cc->OnAck(ack, nullptr, Milliseconds(20), /*now=*/0);
  EXPECT_FALSE(c.intra_src->last_ecn_echo);
  EXPECT_TRUE(c.inter->last_ecn_echo);
  EXPECT_FALSE(c.intra_dst->last_ecn_echo);

  ack.ecn_mask = kSegIntraSrc | kSegIntraDst;
  c.cc->OnAck(ack, nullptr, Milliseconds(20), /*now=*/0);
  EXPECT_TRUE(c.intra_src->last_ecn_echo);
  EXPECT_FALSE(c.inter->last_ecn_echo);
  EXPECT_TRUE(c.intra_dst->last_ecn_echo);
}

TEST(SegmentedCcTest, IntStackSlicesByGatewayTimestamp) {
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100));
  Packet ack;
  ack.type = PacketType::kAck;
  ack.sent_ts = 0;
  ack.gw_src_off = static_cast<uint32_t>(Microseconds(10));
  ack.gw_dst_off = static_cast<uint32_t>(Milliseconds(10));

  IntStack stack;
  stack.hops = 4;
  stack.rec[0].ts = Microseconds(5);    // before src gateway -> intra-src
  stack.rec[1].ts = Microseconds(10);   // at src DCI egress -> inter
  stack.rec[2].ts = Milliseconds(5);    // mid long-haul -> inter
  stack.rec[3].ts = Milliseconds(10);   // at/after dst gateway -> intra-dst
  c.cc->OnAck(ack, &stack, Milliseconds(21), /*now=*/0);

  EXPECT_EQ(c.intra_src->last_int_hops, 1);
  EXPECT_EQ(c.inter->last_int_hops, 2);
  EXPECT_EQ(c.intra_dst->last_int_hops, 1);
}

TEST(SegmentedCcTest, CnpRoutesByMaskAndFansOutWhenUnattributed) {
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100));
  c.cc->OnCnp(/*now=*/0, kSegIntraDst);
  EXPECT_EQ(c.intra_src->cnps, 0);
  EXPECT_EQ(c.inter->cnps, 0);
  EXPECT_EQ(c.intra_dst->cnps, 1);
  // Unattributed CNP (mask 0) must not be dropped: hit every segment.
  c.cc->OnCnp(/*now=*/0, 0);
  EXPECT_EQ(c.intra_src->cnps, 1);
  EXPECT_EQ(c.inter->cnps, 1);
  EXPECT_EQ(c.intra_dst->cnps, 2);
}

TEST(SegmentedCcTest, TimeoutFansOutToAllSegments) {
  Composite c = MakeComposite(Gbps(100), Gbps(100), Gbps(100));
  c.cc->OnTimeout(/*now=*/0);
  EXPECT_EQ(c.intra_src->timeouts, 1);
  EXPECT_EQ(c.inter->timeouts, 1);
  EXPECT_EQ(c.intra_dst->timeouts, 1);
}

// --- legacy --cc shim equivalence ------------------------------------------

ExperimentConfig ShimBaseConfig() {
  ExperimentConfig c;
  c.topo = TopologyKind::kTestbed8;
  c.pairing = PairingKind::kEndpointPair;
  c.workload = WorkloadKind::kWebSearch;
  c.policy = PolicyKind::kLcmp;
  c.load = 0.3;
  c.num_flows = 60;
  c.hosts_per_dc = 4;
  c.seed = 404;
  return c;
}

// The uniform spec must drive the simulation bit-identically to the
// pre-registry transport (whose digests the golden corpus pins) at any shard
// count.
TEST(CcShimTest, UniformSpecDigestsMatchLegacyAcrossShardCounts) {
  for (const std::string& token : {std::string("dcqcn"), std::string("timely")}) {
    ExperimentConfig config = ShimBaseConfig();
    std::string error;
    ASSERT_TRUE(ParseCcToken(token, &config.cc.inter, &error)) << error;
    ASSERT_TRUE(ParseCcToken(token, &config.cc.intra, &error)) << error;
    const uint64_t sequential = ExperimentDigest(RunExperiment(config));

    config.shards = 4;
    EXPECT_EQ(ExperimentDigest(RunExperiment(config)), sequential) << token << " at shards=4";
  }
}

// A split spec exercises the composite end to end: the run completes and the
// per-flow controller reported for a cross-DC flow is the SegmentedCc.
TEST(CcShimTest, SplitSpecRunsAndBeatsNothingButCompletes) {
  ExperimentConfig config = ShimBaseConfig();
  std::string error;
  ASSERT_TRUE(SegmentCcSpec::Parse("lcp/dcqcn", &config.cc, &error)) << error;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.flows_completed, result.flows_requested);
  EXPECT_GT(result.overall.p50, 0.0);

  // Determinism holds for the composite too.
  EXPECT_EQ(ExperimentDigest(RunExperiment(config)), ExperimentDigest(RunExperiment(config)));
}

}  // namespace
}  // namespace lcmp
