// Unit tests for the common substrate: RNG, hashing, histogram, logging,
// and the unit helpers in types.h.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/hashing.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/types.h"

namespace lcmp {
namespace {

TEST(TypesTest, DurationConstructors) {
  EXPECT_EQ(Microseconds(1), 1'000);
  EXPECT_EQ(Milliseconds(1), 1'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_EQ(Milliseconds(5), 5 * Microseconds(1000));
}

TEST(TypesTest, RateConstructors) {
  EXPECT_EQ(Gbps(100), 100'000'000'000LL);
  EXPECT_EQ(Mbps(1000), Gbps(1));
  EXPECT_EQ(Kbps(1'000'000), Gbps(1));
}

TEST(TypesTest, SerializationDelayBasics) {
  // 1500 B at 1 Gbps = 12 us.
  EXPECT_EQ(SerializationDelay(1500, Gbps(1)), 12'000);
  // 4 KB at 100 Gbps = 327.68 ns, rounded up to 328.
  EXPECT_EQ(SerializationDelay(4096, Gbps(100)), 328);
  // Rounds up: 1 byte on a fast link still takes >= 1 ns.
  EXPECT_GE(SerializationDelay(1, Gbps(400)), 1);
}

TEST(TypesTest, SerializationDelayLargeValuesDoNotOverflow) {
  // 10 GB at 1 Mbps: ~8e13 ns; must not overflow.
  const int64_t bytes = 10LL * 1000 * 1000 * 1000;
  EXPECT_EQ(SerializationDelay(bytes, Mbps(1)), bytes * 8 * 1000);
}

TEST(TypesTest, FiberDelayMatchesPaperFootnote) {
  // The paper: 1000 km -> 5 ms at 2e8 m/s.
  EXPECT_EQ(FiberDelayForKm(1000), Milliseconds(5));
  EXPECT_EQ(FiberDelayForKm(2000), Milliseconds(10));
  EXPECT_EQ(FiberDelayForKm(200), Milliseconds(1));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1'000'000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(RngTest, ReseedResetsStream) {
  Rng rng(5);
  const uint64_t first = rng.NextU64();
  rng.NextU64();
  rng.Seed(5);
  EXPECT_EQ(rng.NextU64(), first);
}

TEST(HashingTest, FlowKeyEqualityAndHashAgree) {
  FlowKey a{1, 2, 10, 4791, 17};
  FlowKey b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(HashFlowKey(a), HashFlowKey(b));
  b.src_port = 11;
  EXPECT_NE(a, b);
  EXPECT_NE(HashFlowKey(a), HashFlowKey(b));
}

TEST(HashingTest, SaltDecorrelates) {
  FlowKey k{1, 2, 10, 4791, 17};
  EXPECT_NE(HashFlowKey(k, 1), HashFlowKey(k, 2));
}

TEST(HashingTest, HashSpreadsAcrossBuckets) {
  // ECMP depends on good mixing: hashing 1000 sequential flows into 6
  // buckets should hit every bucket with a roughly fair share.
  std::vector<int> counts(6, 0);
  for (uint32_t i = 0; i < 1000; ++i) {
    FlowKey k{1, 2, i, 4791, 17};
    ++counts[HashFlowKey(k) % 6];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 100);
    EXPECT_LT(c, 250);
  }
}

TEST(HashingTest, RoutingFlowIdNeverZero) {
  for (uint32_t i = 0; i < 5000; ++i) {
    FlowKey k{static_cast<NodeId>(i % 17), static_cast<NodeId>(i % 13), i, 4791, 17};
    EXPECT_NE(RoutingFlowId(k), 0u);
  }
}

TEST(HashingTest, ReverseKeySwapsEndpoints) {
  FlowKey k{1, 2, 10, 4791, 17};
  const FlowKey r = ReverseKey(k);
  EXPECT_EQ(r.src, 2);
  EXPECT_EQ(r.dst, 1);
  EXPECT_EQ(r.src_port, 4791u);
  EXPECT_EQ(r.dst_port, 10u);
  EXPECT_EQ(ReverseKey(r), k);
  // Forward and reverse direction must map to distinct switch flow state.
  EXPECT_NE(RoutingFlowId(k), RoutingFlowId(r));
}

TEST(HistogramTest, PercentilesOnKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(HistogramTest, EmptySetIsZero) {
  SampleSet s;
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(HistogramTest, SingleSample) {
  SampleSet s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.5);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 3.5);
}

TEST(HistogramTest, AddAfterPercentileResorts) {
  SampleSet s;
  s.Add(10);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 10);
  s.Add(1);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1);
}

TEST(LoggingTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 5, "abc"), "x=5 y=abc");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(LoggingTest, LevelGate) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(static_cast<int>(GetLogLevel()), static_cast<int>(LogLevel::kError));
  SetLogLevel(prev);
}

}  // namespace
}  // namespace lcmp
