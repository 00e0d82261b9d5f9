// Future-work extension (paper Sec. 7.5): fine-grained flowlet steering with
// lightweight out-of-order tolerance.
//
// The paper pins each flow to one path because commodity RNICs collapse
// under reordering (Go-Back-N). Its future-work section proposes trading a
// small, controlled amount of reordering for faster congestion reaction via
// flowlet-level steering plus IRN-style OoO tracking. This bench implements
// and evaluates exactly that trade on the 8-DC topology at 50% load:
//   - flow-level LCMP (the paper's shipped design),
//   - flowlet LCMP (200 us gap) with a Go-Back-N receiver (shows the damage
//     reordering does to RNIC-style recovery), and
//   - flowlet LCMP with selective-retransmission OoO tolerance (the proposed
//     future design).
//
// Expected shape: flowlet+GBN suffers heavy retransmission; flowlet+OoO
// removes the retransmit blowup and matches or beats flow-level stickiness.
#include "bench/bench_util.h"

int main() {
  using namespace lcmp;
  Banner("Extension (Sec. 7.5) - flowlet steering with OoO tolerance",
         "flowlet+GBN: retransmit blowup; flowlet+OoO: no blowup, responsive");

  ExperimentConfig base = Testbed8Config();
  base.policy = PolicyKind::kLcmp;
  base.load = 0.5;
  base.num_flows = 400;
  SweepSpec spec(base);
  spec.Variants({{"", "flow-level LCMP (paper)"},
                 {"lcmp.flow_idle_timeout_us=200 lcmp.gc_period_ms=10",
                  "flowlet LCMP + Go-Back-N"},
                 {"lcmp.flow_idle_timeout_us=200 lcmp.gc_period_ms=10 reliability=irn",
                  "flowlet LCMP + OoO tolerance"}});

  TablePrinter table({"variant", "flows", "p50 slowdown", "p99 slowdown", "retransmits"});
  for (const RunOutcome& o : RunSpec(spec)) {
    table.AddRow({o.run.label, std::to_string(o.result.flows_completed),
                  Fmt(o.result.overall.p50), Fmt(o.result.overall.p99),
                  std::to_string(o.result.retransmitted_packets)});
  }
  std::printf("\n== Flowlet steering trade-off (WebSearch @ 50%%, 8-DC) ==\n");
  table.Print();
  Note("flowlet gap = 200 us of flow idleness; OoO tolerance = bounded receiver "
       "reorder buffer + selective retransmission (IRN-style).");
  return 0;
}
