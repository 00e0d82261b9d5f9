// Shared presets and output helpers for the figure benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/scenario.h"
#include "harness/table.h"

namespace lcmp {

// Expands and runs a sweep spec on the parallel engine (all cores by
// default; set LCMP_BENCH_JOBS to pin the worker count, 1 = sequential).
// Results are deterministic regardless of the job count. A malformed spec
// is a bench bug: report and abort.
inline std::vector<RunOutcome> RunSpec(const SweepSpec& spec) {
  SweepRunnerOptions opts;
  if (const char* jobs = std::getenv("LCMP_BENCH_JOBS")) {
    opts.jobs = std::atoi(jobs);
  }
  std::vector<RunOutcome> outcomes;
  std::string error;
  if (!RunSweep(spec, opts, &outcomes, &error)) {
    std::fprintf(stderr, "sweep spec error: %s\n", error.c_str());
    std::exit(1);
  }
  return outcomes;
}

// The display label one axis contributed to a run's cell (falls back to the
// full run label if the axis is absent).
inline std::string CellLabel(const RunOutcome& outcome, const std::string& field) {
  for (const auto& [axis_field, label] : outcome.run.cell) {
    if (axis_field == field) {
      return label;
    }
  }
  return outcome.run.label;
}

// Baseline configuration for the 8-DC testbed experiments (Fig. 1/5/9/10/11).
inline ExperimentConfig Testbed8Config() {
  ExperimentConfig c;
  c.topo = TopologyKind::kTestbed8;
  c.pairing = PairingKind::kEndpointPair;
  c.workload = WorkloadKind::kWebSearch;
  c.load = 0.30;
  c.num_flows = 600;
  c.hosts_per_dc = 8;
  c.seed = 2026;
  return c;
}

// Baseline configuration for the 13-DC BSONetwork experiments (Fig. 7/8).
inline ExperimentConfig Bso13Config() {
  ExperimentConfig c;
  c.topo = TopologyKind::kBso13;
  c.pairing = PairingKind::kAllToAll;
  c.workload = WorkloadKind::kWebSearch;
  c.load = 0.30;
  c.num_flows = 1500;
  c.hosts_per_dc = 4;
  c.seed = 2026;
  return c;
}

// Prints the figure banner and the paper's expectation for the shape.
inline void Banner(const std::string& figure, const std::string& paper_expectation) {
  std::printf("\n########################################################################\n");
  std::printf("# %s\n", figure.c_str());
  std::printf("# Paper expectation: %s\n", paper_expectation.c_str());
  std::printf("########################################################################\n");
}

inline void Note(const std::string& text) { std::printf("NOTE: %s\n", text.c_str()); }

}  // namespace lcmp
