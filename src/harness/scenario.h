// Figure-level scenario helpers shared by the bench binaries: bridge sweep
// outcomes into the paper-style comparison tables.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/runner.h"

namespace lcmp {

// Result of one (policy, load) grid cell (legacy table input).
struct SweepCell {
  PolicyKind policy;
  double load;
  ExperimentResult result;
};

// Bridges sweep outcomes to the legacy (policy, load) tables by reading
// policy and load back out of each run's config.
std::vector<SweepCell> ToSweepCells(const std::vector<RunOutcome>& outcomes);

// Prints "load | policy | p50 | p99 | vs-LCMP reductions" rows for a sweep
// (the shape of Fig. 5 / 7 / 9 / 10).
void PrintSlowdownTable(const std::string& title, const std::vector<SweepCell>& cells,
                        bool dc_pair_only = false, DcId pair_a = 0, DcId pair_b = -1);

// Prints per-size-bucket p50/p99 rows for a set of named results
// (the shape of Fig. 11).
struct NamedResult {
  std::string name;
  ExperimentResult result;
};
// Bridges sweep outcomes to the named-result printers (name = run label).
std::vector<NamedResult> ToNamedResults(const std::vector<RunOutcome>& outcomes);

void PrintBucketTable(const std::string& title, const std::vector<NamedResult>& results);

// Prints Fig. 1b-style per-link utilization for a set of named results.
void PrintLinkUtilizationTable(const std::string& title, const std::vector<NamedResult>& results);

// Base configuration for the incast/oversubscription scenario family
// (ext_incast and the incast-smoke CI job): a mixed intra+inter WebSearch
// background matrix on the 8-DC testbed plus a fanin-to-1 incast burst into
// the last DC. Sweep `os_borders` and the `cc`/`cc.inter`/`cc.intra` split
// on top of this base.
ExperimentConfig IncastScenarioConfig(int fanin = 64);

// Prints "variant | incast flows | incast p50/p99 | background p99" rows for
// runs produced from IncastScenarioConfig (result.incast is only populated
// when incast_fanin > 0).
void PrintIncastTable(const std::string& title, const std::vector<NamedResult>& results);

}  // namespace lcmp
