#include "harness/scenario.h"

#include <algorithm>
#include <limits>
#include <map>

#include "harness/table.h"

namespace lcmp {

std::vector<SweepCell> ToSweepCells(const std::vector<RunOutcome>& outcomes) {
  std::vector<SweepCell> cells;
  cells.reserve(outcomes.size());
  for (const RunOutcome& outcome : outcomes) {
    cells.push_back(SweepCell{outcome.run.config.policy, outcome.run.config.load,
                              outcome.result});
  }
  return cells;
}

std::vector<NamedResult> ToNamedResults(const std::vector<RunOutcome>& outcomes) {
  std::vector<NamedResult> results;
  results.reserve(outcomes.size());
  for (const RunOutcome& outcome : outcomes) {
    results.push_back(NamedResult{outcome.run.label, outcome.result});
  }
  return results;
}

void PrintSlowdownTable(const std::string& title, const std::vector<SweepCell>& cells,
                        bool dc_pair_only, DcId pair_a, DcId pair_b) {
  std::cout << "\n== " << title << " ==\n";
  TablePrinter table({"load", "policy", "flows", "p50 slowdown", "p99 slowdown",
                      "p50 vs LCMP", "p99 vs LCMP"});
  // Locate the LCMP reference per load for the reduction columns.
  std::map<double, SlowdownStats> lcmp_ref;
  auto stats_of = [&](const SweepCell& c) {
    if (!dc_pair_only) {
      return c.result.overall;
    }
    DcId b = pair_b;
    if (b < 0) {
      // Default: the highest DC id observed among samples (the far endpoint).
      for (const auto& s : c.result.samples) {
        b = std::max({b, s.src_dc, s.dst_dc});
      }
    }
    return c.result.ForDcPairBidir(pair_a, b);
  };
  for (const SweepCell& c : cells) {
    if (c.policy == PolicyKind::kLcmp) {
      lcmp_ref[c.load] = stats_of(c);
    }
  }
  for (const SweepCell& c : cells) {
    const SlowdownStats s = stats_of(c);
    std::string dp50 = "-", dp99 = "-";
    auto ref = lcmp_ref.find(c.load);
    if (ref != lcmp_ref.end() && c.policy != PolicyKind::kLcmp && s.p50 > 0 && s.p99 > 0) {
      // Reduction achieved by LCMP relative to this baseline.
      dp50 = FmtPct((ref->second.p50 - s.p50) / s.p50);
      dp99 = FmtPct((ref->second.p99 - s.p99) / s.p99);
    }
    table.AddRow({Fmt(c.load, 2), PolicyKindName(c.policy), std::to_string(s.count),
                  Fmt(s.p50), Fmt(s.p99), dp50, dp99});
  }
  table.Print();
}

void PrintBucketTable(const std::string& title, const std::vector<NamedResult>& results) {
  std::cout << "\n== " << title << " ==\n";
  TablePrinter table({"flow size", "variant", "count", "p50 slowdown", "p99 slowdown"});
  if (results.empty()) {
    table.Print();
    return;
  }
  // Iterate buckets of the first result; match others by bucket edge.
  for (const BucketStats& ref_bucket : results.front().result.buckets) {
    for (const NamedResult& nr : results) {
      for (const BucketStats& b : nr.result.buckets) {
        if (b.size_hi == ref_bucket.size_hi) {
          table.AddRow({FmtBytes(b.size_hi == std::numeric_limits<uint64_t>::max()
                                     ? ref_bucket.size_lo
                                     : b.size_hi),
                        nr.name, std::to_string(b.stats.count), Fmt(b.stats.p50),
                        Fmt(b.stats.p99)});
        }
      }
    }
  }
  table.Print();
}

void PrintLinkUtilizationTable(const std::string& title,
                               const std::vector<NamedResult>& results) {
  std::cout << "\n== " << title << " ==\n";
  std::vector<std::string> headers = {"directed link"};
  for (const NamedResult& nr : results) {
    headers.push_back(nr.name + " util");
  }
  TablePrinter table(headers);
  if (results.empty()) {
    table.Print();
    return;
  }
  const auto& ref_links = results.front().result.link_utils;
  for (size_t i = 0; i < ref_links.size(); ++i) {
    std::vector<std::string> row = {ref_links[i].name};
    for (const NamedResult& nr : results) {
      row.push_back(Fmt(nr.result.link_utils[i].utilization * 100.0, 1) + "%");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

ExperimentConfig IncastScenarioConfig(int fanin) {
  ExperimentConfig c;
  c.topo = TopologyKind::kTestbed8;
  c.pairing = PairingKind::kEndpointPair;
  c.workload = WorkloadKind::kWebSearch;
  c.load = 0.20;
  c.num_flows = 400;
  c.hosts_per_dc = 8;
  c.seed = 2026;
  // One quarter of the background matrix stays inside the source DC so the
  // intra segment sees realistic cross traffic, not just the incast itself.
  c.mix_intra = 0.25;
  c.incast_fanin = fanin;
  // Each incast sender ships several windows' worth (16 MB against the 4 MB
  // cap below): a flow that fits inside one window is transmitted open-loop
  // before any long-haul feedback returns, and the CC comparison this family
  // exists for would measure nothing.
  c.incast_bytes = 16 << 20;
  // The incast family runs with a bounded in-flight window: with the legacy
  // open-loop sender every sub-BDP flow is fully transmitted before the first
  // long-haul feedback returns (~1 RTT = 20 ms = 250 MB at 100G), so every CC
  // algorithm degenerates to the same line-rate blast. 4 MB caps a single
  // flow at roughly W/RTT = 1.6 Gbps over the long haul — about the fair
  // share of a 64-to-1 incast on a 100G border — which makes the inter-DC CC
  // choice observable.
  c.max_inflight_bytes = 4 * 1024 * 1024;
  return c;
}

void PrintIncastTable(const std::string& title, const std::vector<NamedResult>& results) {
  std::cout << "\n== " << title << " ==\n";
  TablePrinter table({"variant", "incast flows", "incast p50", "incast p99",
                      "background p99"});
  for (const NamedResult& nr : results) {
    table.AddRow({nr.name, std::to_string(nr.result.incast.count),
                  Fmt(nr.result.incast.p50), Fmt(nr.result.incast.p99),
                  Fmt(nr.result.overall.p99)});
  }
  table.Print();
}

}  // namespace lcmp
