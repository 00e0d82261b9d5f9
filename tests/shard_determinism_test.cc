// Shard-determinism regression (DESIGN.md §12): the conservative-PDES core
// must be bit-identical to the sequential core — same digest, same event
// count, same end time — for every shard count, with and without fault
// injection. The grid tests pin the end-to-end contract; the lineage-key
// unit tests pin the mechanism that makes it hold (event keys depend only on
// the scheduling event's own key, never on which queue or thread runs it, so
// equal-timestamp ties resolve identically in every core layout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "obs/shard_context.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace lcmp {
namespace {

struct ShardDigest {
  uint64_t digest = 0;
  uint64_t events = 0;
  int completed = 0;
  TimeNs end = 0;

  bool operator==(const ShardDigest& o) const {
    return digest == o.digest && events == o.events && completed == o.completed && end == o.end;
  }
};

ShardDigest RunGrid(TopologyKind topo, int shards, bool chaos, TimeNs telemetry_period = 0) {
  ExperimentConfig config;
  config.topo = topo;
  config.policy = PolicyKind::kLcmp;
  config.num_flows = 120;
  config.hosts_per_dc = 2;
  config.seed = 11;
  config.shards = shards;
  config.telemetry_period = telemetry_period;
  if (chaos) {
    // The golden corpus's chaos density: seeded plan drawn by RunExperiment
    // against the built topology, dense enough to hit in-use routes.
    config.chaos_seed = 7;
    config.chaos_rate = 150;
    config.chaos_window_ms = 50;
  }
  const ExperimentResult result = RunExperiment(config);
  ShardDigest d;
  d.digest = ExperimentDigest(result);
  d.events = result.events_processed;
  d.completed = result.flows_completed;
  d.end = result.sim_end_time;
  return d;
}

// The ISSUE's acceptance grid: {shards=1,2,4} x {chaos on/off}, identical
// digests everywhere. Sequential (shards=1) is the reference.
TEST(ShardDeterminismTest, GridShards124TimesChaosOnOffIsBitIdentical) {
  for (const bool chaos : {false, true}) {
    const ShardDigest seq = RunGrid(TopologyKind::kTestbed8, 1, chaos);
    EXPECT_GT(seq.completed, 0);
    for (const int shards : {2, 4}) {
      const ShardDigest par = RunGrid(TopologyKind::kTestbed8, shards, chaos);
      EXPECT_TRUE(seq == par) << "chaos=" << chaos << " shards=" << shards << ": digest "
                              << std::hex << seq.digest << " vs " << par.digest << std::dec
                              << ", events " << seq.events << " vs " << par.events << ", end "
                              << seq.end << " vs " << par.end;
    }
  }
}

// Generated-WAN regression (topo/gen, DESIGN.md §13): a dragonfly built from
// the dedicated TopoRng stream with layered path sets must stay bit-identical
// across shard counts — the generators and the per-layer subgraph sampling
// draw nothing from any per-shard or per-thread state.
ShardDigest RunGeneratedWan(int shards) {
  ExperimentConfig config;
  config.topo = TopologyKind::kDragonfly;
  config.num_dcs = 16;
  config.topo_seed = 21;
  config.hosts_per_dc = 2;
  config.policy = PolicyKind::kLcmp;
  config.path_strategy = PathStrategyKind::kLayered;
  config.path_layers = 3;
  config.num_flows = 120;
  config.seed = 11;
  config.shards = shards;
  const ExperimentResult result = RunExperiment(config);
  ShardDigest d;
  d.digest = ExperimentDigest(result);
  d.events = result.events_processed;
  d.completed = result.flows_completed;
  d.end = result.sim_end_time;
  return d;
}

TEST(ShardDeterminismTest, GeneratedWanWithLayeredPathsIsBitIdentical) {
  const ShardDigest seq = RunGeneratedWan(1);
  EXPECT_GT(seq.completed, 0);
  for (const int shards : {2, 4}) {
    const ShardDigest par = RunGeneratedWan(shards);
    EXPECT_TRUE(seq == par) << "shards=" << shards << ": digest " << std::hex << seq.digest
                            << " vs " << par.digest << std::dec << ", events " << seq.events
                            << " vs " << par.events << ", end " << seq.end << " vs " << par.end;
  }
}

// Cross-check on the sparse 13-DC backbone, whose uneven DC-to-shard
// assignment exercises partitions of very different sizes.
TEST(ShardDeterminismTest, Bso13ShardedMatchesSequential) {
  const ShardDigest seq = RunGrid(TopologyKind::kBso13, 1, /*chaos=*/false);
  const ShardDigest par = RunGrid(TopologyKind::kBso13, 4, /*chaos=*/false);
  EXPECT_TRUE(seq == par) << "events " << seq.events << " vs " << par.events;
}

// --- observability-on determinism (the obs v2 digest guard) ---

// Enabling metrics + tracing + time series must not change a single event:
// obs reads sim state and writes side rings only. The telemetry loop *does*
// add control events, so it is pinned identically (10 ms) on both sides of
// every comparison. Grid: {1,2,4} shards x {unfiltered, filtered} tracing,
// all bit-identical to the obs-off reference.
TEST(ShardDeterminismTest, ObsOnIsBitIdenticalToObsOffAcrossShardCounts) {
  const TimeNs period = Milliseconds(10);
  const ShardDigest ref = RunGrid(TopologyKind::kTestbed8, 1, /*chaos=*/true, period);
  EXPECT_GT(ref.completed, 0);

  for (const int shards : {1, 2, 4}) {
    for (const bool filtered : {false, true}) {
      obs::SetMetricsEnabled(true);
      obs::TimeSeriesHub::Instance().SetEnabled(true);
      obs::FlightRecorder& rec = obs::FlightRecorder::Instance();
      rec.Configure(4096);
      rec.SetFilters(filtered ? 3 : -1, filtered ? 40 : kInvalidNode);
      rec.Enable(true);

      const ShardDigest on = RunGrid(TopologyKind::kTestbed8, shards, /*chaos=*/true, period);

      rec.Enable(false);
      rec.SetFilters(-1, kInvalidNode);
      rec.Clear();
      obs::TimeSeriesHub::Instance().SetEnabled(false);
      obs::SetMetricsEnabled(false);

      EXPECT_TRUE(ref == on) << "shards=" << shards << " filtered=" << filtered << ": digest "
                             << std::hex << ref.digest << " vs " << on.digest << std::dec
                             << ", events " << ref.events << " vs " << on.events << ", end "
                             << ref.end << " vs " << on.end;
    }
  }
}

// --- flight-recorder merge order (obs/trace.cc) ---

// Records written from different shard lanes at the same timestamp must merge
// in lineage-key order, and (ts, key) ties must keep lane order (the stable
// sort over the lane concatenation) — never wall-clock write order.
TEST(FlightRecorderMergeOrder, EqualTimestampRecordsSortByLineageKeyThenLane) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Instance();
  rec.Configure(64);
  rec.SetFilters(-1, kInvalidNode);
  rec.Enable(true);

  TimeNs now = 500;
  uint64_t key = 0;
  {
    // Shard 1's lane writes keys 5 then 1 at t=500 (out of key order).
    obs::ScopedShardContext ctx(obs::ShardContext{obs::LaneForShard(1), 1, &now, &key});
    key = 5;
    rec.Record(obs::TraceEv::kEnqueue, now, /*flow=*/105, 1, 0, 0);
    key = 1;
    rec.Record(obs::TraceEv::kEnqueue, now, /*flow=*/101, 1, 0, 0);
  }
  {
    // Shard 0's lane writes key 3 at the same timestamp.
    obs::ScopedShardContext ctx(obs::ShardContext{obs::LaneForShard(0), 0, &now, &key});
    key = 3;
    rec.Record(obs::TraceEv::kEnqueue, now, /*flow=*/103, 1, 0, 0);
  }
  // (ts, key) tie across lanes: shard 1's lane writes first in wall time, but
  // lane 0 (no context installed -> key 0) must still merge ahead of it.
  {
    obs::ScopedShardContext ctx(obs::ShardContext{obs::LaneForShard(1), 1, &now, &key});
    key = 0;
    rec.Record(obs::TraceEv::kDequeue, /*ts=*/400, /*flow=*/201, 1, 0, 0);
  }
  rec.Record(obs::TraceEv::kDequeue, /*ts=*/400, /*flow=*/200, 1, 0, 0);  // lane 0, key 0

  const std::vector<obs::TraceRecord> merged = rec.MergedRecords();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].flow, 200u);  // t=400 key 0: lane 0 wins the tie
  EXPECT_EQ(merged[0].shard, -1);
  EXPECT_EQ(merged[1].flow, 201u);
  EXPECT_EQ(merged[1].shard, 1);
  EXPECT_EQ(merged[2].flow, 101u);  // t=500: key order 1 < 3 < 5, not lane
  EXPECT_EQ(merged[3].flow, 103u);  // or write order
  EXPECT_EQ(merged[4].flow, 105u);
  EXPECT_EQ(merged[2].shard, 1);
  EXPECT_EQ(merged[3].shard, 0);

  rec.Enable(false);
  rec.Clear();
}

// --- lineage-key ordering units (sim/event_queue.h, sim/simulator.h) ---

// A child scheduled at its parent's own timestamp must sort after the parent
// (and after the parent's already-popped position): the generation field in
// the key's top bits increments per same-time ancestry step.
TEST(LineageKeyOrdering, SameTimeChildSortsAfterParent) {
  Simulator sim;
  bool checked = false;
  sim.ScheduleAt(10, [&] {
    const uint64_t parent = sim.current_event_key();
    const uint64_t child = sim.MintKeyFor(sim.now());
    EXPECT_GT(child, parent);
    EXPECT_EQ(child >> EventQueue::kGenShift, (parent >> EventQueue::kGenShift) + 1);
    // A child at a *later* time restarts at generation zero.
    const uint64_t later = sim.MintKeyFor(sim.now() + 1);
    EXPECT_EQ(later >> EventQueue::kGenShift, 0u);
    checked = true;
  });
  sim.Run(100);
  EXPECT_TRUE(checked);
}

// Setup-time keys (scheduled outside any executing event) come from one
// plain counter; sharded runs point every partition at the same counter so
// setup order is global, exactly as in the one-queue core.
TEST(LineageKeyOrdering, SetupKeysShareOneCounterAcrossQueues) {
  Simulator a;
  Simulator b;
  uint64_t shared = 0;
  a.UseSharedSeq(&shared);
  b.UseSharedSeq(&shared);
  EXPECT_EQ(a.MintKeyFor(5), 0u);
  EXPECT_EQ(b.MintKeyFor(5), 1u);
  EXPECT_EQ(a.MintKeyFor(7), 2u);
  EXPECT_EQ(shared, 3u);
}

// The equal-timestamp cross-shard tie test the tentpole hinges on: a parent
// fans out same-time children, some executed in its own queue and some
// handed to a second queue with producer-minted keys (what the cross-shard
// channel does). Merging the two queues' execution logs by (time, key) must
// reproduce the one-queue core's execution order label for label.
TEST(LineageKeyOrdering, CrossQueueEqualTimestampTiesMatchSequentialOrder) {
  struct Exec {
    TimeNs t = 0;
    uint64_t key = 0;
    std::string label;
  };
  constexpr int kChildren = 6;

  // Reference: everything in one queue. Children all land at t=1000; the
  // first two each spawn a same-time grandchild.
  std::vector<Exec> seq;
  {
    Simulator sim;
    sim.ScheduleAt(1000, [&] {
      for (int i = 0; i < kChildren; ++i) {
        sim.Schedule(0, [&, i] {
          seq.push_back({sim.now(), sim.current_event_key(), "c" + std::to_string(i)});
          if (i < 2) {
            sim.Schedule(0, [&, i] {
              seq.push_back({sim.now(), sim.current_event_key(), "g" + std::to_string(i)});
            });
          }
        });
      }
    });
    sim.Run(2000);
  }
  ASSERT_EQ(seq.size(), static_cast<size_t>(kChildren + 2));
  // Pop order within a timestamp is key order — the invariant the sharded
  // merge relies on.
  EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end(), [](const Exec& x, const Exec& y) {
    return x.t < y.t || (x.t == y.t && x.key < y.key);
  }));

  // Split layout: the parent runs in queue A and hands every odd child to
  // queue B, minting the key itself. Grandchildren are minted by whichever
  // queue runs their parent — their keys must still match the reference
  // because minting reads only the parent's key, not the queue.
  std::vector<Exec> a_log;
  std::vector<Exec> b_log;
  {
    Simulator a;
    Simulator b;
    auto child = [&](Simulator& home, std::vector<Exec>& log, int i) {
      return [&home, &log, i] {
        log.push_back({home.now(), home.current_event_key(), "c" + std::to_string(i)});
        if (i < 2) {
          home.Schedule(0, [&home, &log, i] {
            log.push_back({home.now(), home.current_event_key(), "g" + std::to_string(i)});
          });
        }
      };
    };
    a.ScheduleAt(1000, [&] {
      for (int i = 0; i < kChildren; ++i) {
        const TimeNs at = a.now();
        if (i % 2 == 0) {
          a.Schedule(0, child(a, a_log, i));
        } else {
          b.PushKeyed(at, a.MintKeyFor(at), child(b, b_log, i));
        }
      }
    });
    a.Run(2000);
    b.Run(2000);
  }
  std::vector<Exec> merged;
  merged.insert(merged.end(), a_log.begin(), a_log.end());
  merged.insert(merged.end(), b_log.begin(), b_log.end());
  std::sort(merged.begin(), merged.end(), [](const Exec& x, const Exec& y) {
    return x.t < y.t || (x.t == y.t && x.key < y.key);
  });
  ASSERT_EQ(merged.size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(merged[i].label, seq[i].label) << "tie order diverged at position " << i;
    EXPECT_EQ(merged[i].key, seq[i].key) << "key minting is layout-dependent at " << i;
  }
}

// --- --shards flag rules (src/harness/flags.cc) ---

TEST(ShardFlagsTest, ValidatesBudgetAndUnsafeCombinations) {
  ShardOptions shard;
  SweepOptions sweep;
  std::string error;

  shard.shards = 0;
  EXPECT_FALSE(ValidateShardOptions(shard, sweep, 8, &error));

  // shards=1 is always fine, whatever the budget.
  shard.shards = 1;
  EXPECT_TRUE(ValidateShardOptions(shard, sweep, 1, &error));

  // Single run: S workers against the budget.
  shard.shards = 2;
  EXPECT_TRUE(ValidateShardOptions(shard, sweep, 2, &error));
  shard.shards = 4;
  EXPECT_FALSE(ValidateShardOptions(shard, sweep, 2, &error));
  EXPECT_NE(error.find("oversubscribed"), std::string::npos);

  // Sweep: explicit jobs x shards must fit; --jobs=0 auto-sizes and passes.
  sweep.axes = "load=0.3,0.5";
  sweep.jobs = 4;
  EXPECT_FALSE(ValidateShardOptions(shard, sweep, 8, &error));
  sweep.jobs = 2;
  EXPECT_TRUE(ValidateShardOptions(shard, sweep, 8, &error));
  sweep.jobs = 0;
  EXPECT_TRUE(ValidateShardOptions(shard, sweep, 8, &error));
  // Auto-sizing caps jobs, not shards: S alone must still fit the budget.
  EXPECT_FALSE(ValidateShardOptions(shard, sweep, 2, &error));
  EXPECT_EQ(ResolveSweepJobs(sweep, shard, 8), 2);
  EXPECT_EQ(ResolveSweepJobs(sweep, shard, 2), 1);  // never below one worker
  sweep.jobs = 3;
  EXPECT_EQ(ResolveSweepJobs(sweep, shard, 8), 3);  // explicit wins
}

}  // namespace
}  // namespace lcmp
