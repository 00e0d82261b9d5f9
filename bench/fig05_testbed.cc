// Figure 5: median and tail FCT slowdown for WebSearch on the 8-DC testbed
// under 30%, 50% and 80% load, comparing ECMP, UCMP, RedTE and LCMP with
// DCQCN. The paper measures this on a SoftRoCE/Mininet testbed; here it is
// a plain simulated policy x load sweep of the testbed topology.
//
// Expected shape (paper Sec. 6.1): LCMP reduces median slowdown by 36-41%
// vs ECMP, ~76% vs UCMP, 36-54% vs RedTE; p99 reductions 56-68% vs ECMP,
// 45-64% vs UCMP, 73-77% vs RedTE; RedTE behaves like ECMP because its
// 100 ms control loop cannot track microsecond bursts.
#include "bench/bench_util.h"

int main() {
  using namespace lcmp;
  Banner("Figure 5 - 8-DC testbed: FCT slowdown at 30/50/80% load",
         "LCMP lowest at every load; UCMP worst medians; RedTE ~ ECMP");

  ExperimentConfig base = Testbed8Config();
  base.num_flows = 400;
  // Loads first: the slowest-varying axis, matching the load-major table
  // order.
  SweepSpec spec(base);
  spec.Loads({0.30, 0.50, 0.80})
      .Policies({PolicyKind::kEcmp, PolicyKind::kUcmp, PolicyKind::kRedte, PolicyKind::kLcmp});
  const auto cells = ToSweepCells(RunSpec(spec));
  PrintSlowdownTable("Fig. 5 - WebSearch on the 8-DC testbed (DCQCN)", cells);

  Note("'pXX vs LCMP' columns report the reduction LCMP achieves relative to that "
       "baseline at the same load (negative = LCMP lower/better).");
  return 0;
}
