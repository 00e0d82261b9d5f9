// perfbench: the outside-in performance benchmark of the LCMP simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--git-head SHA]
//
// Each pipeline pass drives the simulator through the same layer calls, in
// the same order, as RunExperiment, and times every boundary from here:
//
//   BuildTopology -> Network ctor -> ControlPlane::Provision ->
//   BuildPairing/GenerateTraffic -> RdmaTransport::ScheduleFlow ->
//   Simulator::Run | ShardEngine::Run -> FctRecorder + CollectTelemetry
//
// A workload pools `sub_seeds` distinct inputs derived from --seed; passes
// cycle through them until --seconds have elapsed (and every input ran
// once). Host-time metrics are medians over passes, each rescaled by the
// host's speed around it (see HostScale); FCT slowdowns (simulated time,
// exact for a given seed) are percentiles over the pooled flows.
//
// --trace 0 prints the end-to-end metrics of untraced passes. --trace 1 runs
// each pass twice, untraced then traced (metrics registry and profile sites
// on, telemetry loop off so the event stream is unchanged), and prints the
// per-layer metrics, in host time as measured. The last stdout line is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it carries each untraced pass as measured.
//
// Correctness gate, outside the timed passes, on the first input cut to a
// quarter of its flows: the composed pipeline's ExperimentDigest equals
// RunExperiment's, a sharded workload at shards=1 equals its sharded run, and
// a traced pass equals its untraced twin. Any mismatch or unfinished flow
// prints correct=false and exits 1. A build with asserts enabled or not of
// type Release exits 2 before measuring.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "common/histogram.h"
#include "core/control_plane.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/shard_profile.h"
#include "sim/shard_engine.h"
#include "stats/link_utilization.h"
#include "workload/flow_cdf.h"

namespace {

using namespace lcmp;
using Clock = std::chrono::steady_clock;

double SecondsOf(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// Lowers the process's peak-RSS mark to its current RSS (Linux clear_refs
// "5"), so PeakRssMb() then reads the peak of what ran since.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// The process's peak RSS in MB: VmHWM, or the lifetime peak from getrusage
// where /proc is unreadable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kb >= 0) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- host speed

// A shared host's speed swings by up to 2x within seconds to minutes as
// other tenants load its cores (no steal time shows: CPU time swings with
// wall time), and a slow stretch can cover a whole run, which no median
// inside the run removes. So each timed pass is bracketed by a fixed loop
// that runs no simulator code, and host-time metrics are rescaled by the
// loop's slowdown against kReferenceCalibS raised to kHostScaleExponent. The
// loop is compute-bound in L1 and slows more under contention than the
// simulator, which spends part of its time waiting on memory: over eight
// testbed8 runs, pass event rates tracked the square root of the loop's time
// (spread of the run medians 0.18 as measured, 0.04 rescaled).
constexpr double kReferenceCalibS = 0.007;
constexpr double kHostScaleExponent = 0.5;

// Host seconds per reference-host second, for a calibration time.
double HostScale(double calib_s) {
  return std::pow(calib_s / kReferenceCalibS, kHostScaleExponent);
}

volatile uint64_t calib_sink = 0;

// Median host seconds of five runs of the calibration loop: 200000
// pop/push pairs on a 4096-entry binary min-heap of hashed keys.
double CalibrationSeconds() {
  static std::vector<uint64_t> heap = [] {
    std::vector<uint64_t> h;
    uint64_t x = 1;
    for (int i = 0; i < 4096; ++i) {
      x = Mix64(x);
      h.push_back(x);
    }
    std::make_heap(h.begin(), h.end(), std::greater<>());
    return h;
  }();
  std::vector<double> reps;
  uint64_t x = calib_sink;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 200000; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      x = Mix64(x);
      heap.back() += x >> 44;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    reps.push_back(SecondsOf(Clock::now() - t0));
  }
  calib_sink = x;
  std::nth_element(reps.begin(), reps.begin() + 2, reps.end());
  return reps[2];
}

// ---------------------------------------------------------------- workloads

// BSO 13-DC, all-to-all WebSearch at load 0.5 under LCMP with the default
// open-loop sender and CC on the sequential core: hundreds of thousands of
// packets pending on millisecond fibre, so the event heap and ports dominate.
ExperimentConfig Bso13OpenLoop(uint64_t seed) {
  ExperimentConfig c;
  c.topo = TopologyKind::kBso13;
  c.pairing = PairingKind::kAllToAll;
  c.policy = PolicyKind::kLcmp;
  c.workload = WorkloadKind::kWebSearch;
  c.load = 0.5;
  c.seed = seed;
  return c;
}

// testbed8 DC1<->DC8, half the flows intra-DC, a 4 MB in-flight window,
// split CC (LCP long-haul, DCQCN in-fabric), IRN over 1e-3 DCI loss with 8:2
// gateway FEC: a closed ACK-clocked loop where transport, CC and FEC work.
ExperimentConfig Testbed8LossyMixed(uint64_t seed) {
  ExperimentConfig c;
  c.topo = TopologyKind::kTestbed8;
  c.pairing = PairingKind::kEndpointPair;
  c.policy = PolicyKind::kLcmp;
  c.workload = WorkloadKind::kWebSearch;
  c.hosts_per_dc = 8;
  c.load = 0.5;
  c.mix_intra = 0.5;
  c.max_inflight_bytes = 4LL * 1024 * 1024;
  c.cc.inter = "lcp";
  c.cc.intra = "dcqcn";
  c.reliability = ReliabilityMode::kIrn;
  c.dci_loss_rate = 1e-3;
  c.fec_k = 8;
  c.fec_m = 2;
  c.seed = seed;
  return c;
}

// 200-DC dragonfly of 16-leaf/8-spine fabrics with 4 FatPaths-style path
// layers, all-to-all at load 0.25, right-sized flow caches, 2 PDES shards.
// The graph is fixed (topo_seed); only the traffic follows the seed.
ExperimentConfig Dragonfly200Sharded(uint64_t seed) {
  ExperimentConfig c;
  c.topo = TopologyKind::kDragonfly;
  c.num_dcs = 200;
  c.topo_seed = 7;
  c.fabric = FabricKind::kLeafSpine;
  c.fabric_leaves = 16;
  c.fabric_spines = 8;
  c.hosts_per_dc = 16;
  c.pairing = PairingKind::kAllToAll;
  c.workload = WorkloadKind::kWebSearch;
  c.policy = PolicyKind::kLcmp;
  c.path_strategy = PathStrategyKind::kLayered;
  c.path_layers = 4;
  c.load = 0.25;
  c.lcmp.flow_cache_auto = true;
  c.shards = 2;
  c.seed = seed;
  return c;
}

struct Workload {
  const char* name;
  ExperimentConfig (*config)(uint64_t seed);
  int flows;      // flows per input
  int sub_seeds;  // distinct inputs pooled per invocation

  // Input `i` of the invocation seeded `seed`.
  ExperimentConfig Input(uint64_t seed, int i) const {
    ExperimentConfig c = config(seed * 64 + static_cast<uint64_t>(i % sub_seeds) + 1);
    c.num_flows = flows;
    return c;
  }
};

// testbed8 runs 2000-flow inputs: at 1000 flows, whether an input's pending
// set crosses 2^18 events (one more doubling of the event-queue storage,
// ~12 MB) is a coin flip, which made peak RSS bimodal across seeds.
const Workload kWorkloads[] = {
    {"bso13-openloop", Bso13OpenLoop, 1000, 8},
    {"testbed8-lossy-mixed", Testbed8LossyMixed, 2000, 6},
    {"dragonfly200-sharded", Dragonfly200Sharded, 300, 10},
};

// ----------------------------------------------------------------- pipeline

// One pass through the pipeline: host-time spans (seconds), the run's
// identity, and (traced passes only) the layer counters and site times.
struct Pass {
  uint64_t seed = 0;
  bool traced = false;
  double topo_s = 0;
  double network_s = 0;
  double provision_s = 0;
  double gen_s = 0;
  double schedule_s = 0;
  double start_s = 0;  // utilization baseline + policy-tick arming
  double setup_s = 0;
  double run_s = 0;
  double collect_s = 0;
  double wall_s = 0;
  // Untraced timed passes only: peak RSS and the calibration loop's time
  // around the pass.
  double peak_rss_mb = 0;
  double calib_s = 0;
  uint64_t events = 0;
  int requested = 0;
  int completed = 0;
  uint64_t digest = 0;
  size_t topo_bytes = 0;
  size_t path_table_bytes = 0;
  std::vector<double> slowdowns;
  std::map<std::string, double> layer;
};

// Reads the registry counters and profile sites a traced pass produced.
void ReadLayers(Pass& p, const obs::BarrierProfiler::Summary* barrier) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.GetCounter(name)->Total());
  };
  std::map<std::string, double> site_s;
  for (const obs::ProfileSiteRow& row : obs::ProfileSiteRows()) {
    site_s[row.tag] += static_cast<double>(row.wall_ns) / 1e9;
  }
  auto site = [&site_s](const char* tag) {
    auto it = site_s.find(tag);
    return it == site_s.end() ? 0.0 : it->second;
  };
  std::map<std::string, double>& m = p.layer;
  m["sim.port.tx_packets"] = counter("sim.port.tx_packets");
  m["sim.port.drops"] = counter("sim.port.drops");
  m["sim.port.ecn_marks"] = counter("sim.port.ecn_marks");
  m["sim.dci.lost_packets"] = counter("lcmp.dci.lost_packets");
  m["sim.fec.recovered_packets"] = counter("lcmp.fec.recovered_packets");
  m["sim.fec.unrecovered_packets"] = counter("lcmp.fec.unrecovered_packets");
  m["transport.data_packets_sent"] = counter("transport.data_packets_sent");
  m["transport.retransmits"] = counter("transport.retransmitted_packets");
  m["transport.nacks"] = counter("transport.nacks");
  m["transport.cnps"] = counter("transport.cnps");
  m["transport.timeouts"] = counter("transport.timeouts");
  m["core.new_flow_decisions"] = counter("lcmp.router.new_flow_decisions");
  m["core.fallback_decisions"] = counter("lcmp.router.fallback_decisions");
  m["core.flow_cache.hits"] = counter("lcmp.flow_cache.hits");
  m["core.flow_cache.lookups"] =
      counter("lcmp.flow_cache.hits") + counter("lcmp.flow_cache.misses");
  m["core.flow_cache.evictions"] = counter("lcmp.flow_cache.evictions");

  // Sites are inclusive: decide_new_flow nests inside select_port, so the
  // latter's self time subtracts it. transport.pace can nest inside the ACK
  // and NACK handlers on windowed senders, so the transport sum is an upper
  // bound on transport self time.
  const double select = site("lcmp.select_port");
  const double decide = site("lcmp.decide_new_flow");
  m["core.select_port_s"] = select - decide;
  m["core.decide_new_flow_s"] = decide;
  m["core.monitor_tick_s"] = site("lcmp.monitor_tick");
  m["transport.handle_ack_s"] = site("transport.handle_ack");
  m["transport.pace_s"] = site("transport.pace");
  double transport = 0;
  for (const auto& [tag, s] : site_s) {
    if (tag.rfind("transport.", 0) == 0) {
      transport += s;
    }
  }
  m["transport.handlers_s"] = transport;

  // Event-loop time no site claims: event queue + ports + forwarding self
  // time. Sharded runs measure the loop as the workers' summed busy time.
  double loop_s = p.run_s;
  m["pdes.windows"] = 0;
  m["pdes.busy_ms"] = 0;
  m["pdes.stall_ms"] = 0;
  m["pdes.channel_high_water"] = 0;
  m["pdes.coord_ms"] = 0;
  if (barrier != nullptr) {
    uint64_t busy = 0;
    uint64_t stall = 0;
    for (const auto& s : barrier->per_shard) {
      busy += s.busy_ns;
      stall += s.stall_ns;
    }
    loop_s = static_cast<double>(busy) / 1e9;
    m["pdes.windows"] = static_cast<double>(barrier->windows);
    m["pdes.busy_ms"] = static_cast<double>(busy) / 1e6;
    m["pdes.stall_ms"] = static_cast<double>(stall) / 1e6;
    m["pdes.channel_high_water"] = static_cast<double>(barrier->channel_high_water);
    m["pdes.coord_ms"] = static_cast<double>(barrier->coord_drain_ns + barrier->coord_advance_ns +
                                             barrier->coord_control_ns) /
                         1e6;
  }
  m["sim.loop_unattributed_s"] = loop_s - select - m["core.monitor_tick_s"] - transport;
}

enum class PassMode { kSetupOnly, kUntraced, kTraced };

// Mirrors RunExperiment's build / run / collect sequence for the config
// fields the workloads use (no faults, incast or burst mode). kSetupOnly
// stops at the first simulated event.
Pass RunPipeline(const ExperimentConfig& config, PassMode mode) {
  const bool traced = mode == PassMode::kTraced;
  Pass p;
  p.seed = config.seed;
  p.traced = traced;
  if (traced) {
    obs::MetricsRegistry::Instance().ResetValues();
    obs::ResetProfile();
    obs::SetMetricsEnabled(true);
    obs::SetProfileEnabled(true);
  }
  const Clock::time_point t0 = Clock::now();
  Clock::time_point mark = t0;
  auto lap = [&mark]() {
    const Clock::time_point now = Clock::now();
    const double s = SecondsOf(now - mark);
    mark = now;
    return s;
  };

  const Graph graph = BuildTopology(config);
  p.topo_s = lap();

  LcmpConfig lcmp_eff = config.lcmp;
  if (lcmp_eff.flow_cache_auto) {
    lcmp_eff.flow_cache_capacity =
        std::clamp(4 * config.num_flows, 1024, config.lcmp.flow_cache_capacity);
  }
  NetworkConfig net_config;
  net_config.seed = config.seed;
  net_config.shards = config.shards;
  net_config.enable_int = CcNeedsInt(config.cc);
  net_config.paths.strategy = config.path_strategy;
  net_config.paths.layers = config.path_layers;
  net_config.paths.drop_permille = config.layer_drop_permille;
  net_config.paths.seed = config.topo_seed != 0 ? config.topo_seed : config.seed;
  net_config.dci_loss_rate = config.dci_loss_rate;
  net_config.dci_burst_len = config.dci_burst_len;
  net_config.fec_k = config.fec_k;
  net_config.fec_m = config.fec_m;
  Network net(graph, net_config, MakePolicyFactory(config.policy, lcmp_eff));
  p.network_s = lap();

  ControlPlane control_plane(lcmp_eff);
  control_plane.Provision(net);
  p.provision_s = lap();

  const std::vector<std::pair<DcId, DcId>> pairs = BuildPairing(config, graph.num_dcs());
  TrafficGenConfig traffic;
  traffic.workload = config.workload;
  traffic.offered_bps = OfferedLoadForUtilization(graph, net.routes(), pairs, config.load);
  traffic.num_flows = config.num_flows;
  traffic.seed = Mix64(config.seed ^ 0x7ea1);
  traffic.mix_intra = config.mix_intra;
  const std::vector<FlowSpec> flows = GenerateTraffic(graph, pairs, traffic);
  p.gen_s = lap();

  FctRecorder recorder(&net.graph());
  TransportConfig tconfig;
  tconfig.cc = config.cc;
  tconfig.cc_inter = config.cc_inter;
  tconfig.cc_intra = config.cc_intra;
  tconfig.reliability = config.reliability;
  tconfig.max_inflight_bytes = config.max_inflight_bytes;
  Simulator& sim = net.sim();
  const int expected = static_cast<int>(flows.size());
  std::unique_ptr<ShardEngine<FlowRecord>> engine;
  if (net.num_shards() > 1) {
    engine = std::make_unique<ShardEngine<FlowRecord>>(&net, config.horizon, expected);
  }
  RdmaTransport transport(&net, tconfig, [&](const FlowRecord& rec) {
    if (engine != nullptr) {
      engine->OnComplete(rec, rec.spec.dst);
      return;
    }
    recorder.OnComplete(rec);
    if (recorder.completed() >= expected) {
      sim.Stop();
    }
  });
  for (const FlowSpec& f : flows) {
    transport.ScheduleFlow(f);
  }
  p.schedule_s = lap();
  LinkUtilizationTracker util(&net);
  util.Begin();
  net.StartPolicyTicks();
  p.start_s = lap();
  p.setup_s = SecondsOf(mark - t0);
  if (mode == PassMode::kSetupOnly) {
    return p;
  }

  obs::BarrierProfiler::Summary barrier;
  TimeNs end_time = 0;
  if (engine != nullptr) {
    obs::BarrierProfiler& prof = obs::BarrierProfiler::Instance();
    const bool profiling = traced && prof.Begin(net.num_shards());
    engine->Run();
    if (profiling) {
      prof.End();
      barrier = prof.Summarize();
    }
    for (const auto& c : engine->SortedCompletions()) {
      recorder.OnComplete(c.rec);
    }
    p.events = engine->events_processed();
    end_time = engine->end_time();
  } else {
    sim.Run(config.horizon);
    p.events = sim.events_processed();
    end_time = sim.now();
  }
  p.run_s = lap();

  // RunExperiment's collect phase; only its time is kept.
  recorder.Overall();
  recorder.ByBuckets(SizeBucketEdges(config.workload));
  util.End();
  control_plane.CollectTelemetry(net);
  net.CollectDciStats();
  p.collect_s = lap();
  p.wall_s = SecondsOf(mark - t0);

  p.requested = expected;
  p.completed = recorder.completed();
  p.topo_bytes = net.TopoBytes();
  p.path_table_bytes = net.PathTableBytes();
  p.slowdowns.reserve(recorder.samples().size());
  for (const FctRecorder::Sample& s : recorder.samples()) {
    p.slowdowns.push_back(s.slowdown);
  }
  ExperimentResult identity;
  identity.samples = recorder.samples();
  identity.events_processed = p.events;
  identity.flows_completed = p.completed;
  identity.sim_end_time = end_time;
  p.digest = ExperimentDigest(identity);

  if (traced) {
    ReadLayers(p, engine != nullptr ? &barrier : nullptr);
    obs::SetMetricsEnabled(false);
    obs::SetProfileEnabled(false);
  }
  return p;
}

// ------------------------------------------------------------------ output

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double MedianOf(const std::vector<const Pass*>& passes, F field) {
  std::vector<double> v;
  for (const Pass* p : passes) {
    v.push_back(field(*p));
  }
  return Median(v);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_head = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = *val != '\0' && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (*end != '\0') {
        return false;
      }
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "0") == 0 ? 0 : std::strcmp(val, "1") == 0 ? 1 : -1;
    } else if (key == "--git-head") {
      a->git_head = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed && a->seconds > 0 && a->trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--git-head SHA]\n",
                 argv[0]);
    return 2;
  }
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  if (asserts || std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build%s; rebuild as Release\n",
                 PERFBENCH_BUILD_TYPE, asserts ? " with asserts enabled" : "");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", \"git_head\": \"%s\", "
      "\"sub_seeds\": %d}}\n",
      w->name, static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      args.git_head.c_str(), w->sub_seeds);
  std::fflush(stdout);

  // An untimed warm-up pass first: the first pass in a process runs markedly
  // slower than its repeats. Then timed passes cycle through the sub-seeds
  // until the time is up and each input has run once; traced mode pairs every
  // untraced pass with a traced twin on the same input. Set-up takes
  // milliseconds on the small topologies, so each pass is followed by up to
  // four set-up-only passes (while they cost under a tenth of the pass),
  // spread over the whole window like the timed passes, and scaled by the
  // host speed measured around their pass. Peak RSS is taken per untraced
  // pass: the process-lifetime peak follows the one input whose pending set
  // happens to cross an event-queue doubling.
  std::vector<Pass> passes;
  std::vector<double> setup_samples;  // reference-host seconds
  const Pass warmup = RunPipeline(w->Input(args.seed, 0), PassMode::kUntraced);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < w->sub_seeds || SecondsOf(Clock::now() - start) < args.seconds; ++i) {
    const ExperimentConfig config = w->Input(args.seed, i);
    const double calib_before = CalibrationSeconds();
    ResetPeakRss();
    passes.push_back(RunPipeline(config, PassMode::kUntraced));
    passes.back().peak_rss_mb = PeakRssMb();
    passes.back().calib_s = (calib_before + CalibrationSeconds()) / 2;
    const double scale = HostScale(passes.back().calib_s);
    const double setup_s = passes.back().setup_s;
    const double budget = passes.back().wall_s / 10;
    setup_samples.push_back(setup_s / scale);
    double spent = 0;
    for (int k = 0; k < 4 && spent + setup_s < budget; ++k) {
      const Clock::time_point t0 = Clock::now();
      setup_samples.push_back(RunPipeline(config, PassMode::kSetupOnly).setup_s / scale);
      spent += SecondsOf(Clock::now() - t0);
    }
    if (trace) {
      passes.push_back(RunPipeline(config, PassMode::kTraced));
    }
  }
  const double measured_s = SecondsOf(Clock::now() - start);

  // Correctness gate. Every pass finished its flows, and every pass of one
  // input (traced or not) has one digest.
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<std::pair<uint64_t, int>, uint64_t> digest_of_input;
  auto account = [&](const Pass& p, const char* what) {
    attempted += p.requested;
    failed += p.requested - p.completed;
    auto [it, fresh] = digest_of_input.emplace(std::make_pair(p.seed, p.requested), p.digest);
    if (!fresh && it->second != p.digest) {
      std::fprintf(stderr, "perfbench: %s digest %016llx != %016llx (seed %llu)\n", what,
                   static_cast<unsigned long long>(p.digest),
                   static_cast<unsigned long long>(it->second),
                   static_cast<unsigned long long>(p.seed));
      correct = false;
    }
  };
  account(warmup, "warm-up pass");
  for (const Pass& p : passes) {
    account(p, p.traced ? "traced pass" : "repeated pass");
  }
  // The three digest checks run on the first input cut to a quarter of its
  // flows, so together they cost about one pass.
  ExperimentConfig gate = w->Input(args.seed, 0);
  gate.num_flows = w->flows / 4;
  const Pass gate_pass = RunPipeline(gate, PassMode::kUntraced);
  account(gate_pass, "gate pass");
  const uint64_t first_digest = gate_pass.digest;

  // 1. The composed pipeline equals RunExperiment.
  const ExperimentResult reference = RunExperiment(gate);
  attempted += reference.flows_requested;
  failed += reference.flows_requested - reference.flows_completed;
  const uint64_t reference_digest = ExperimentDigest(reference);
  if (reference_digest != first_digest) {
    std::fprintf(stderr, "perfbench: pipeline digest %016llx != RunExperiment %016llx\n",
                 static_cast<unsigned long long>(first_digest),
                 static_cast<unsigned long long>(reference_digest));
    correct = false;
  }
  // 2. A sharded workload equals its sequential run.
  double speedup_vs_1 = 0;
  if (gate.shards > 1) {
    ExperimentConfig seq = gate;
    seq.shards = 1;
    const Pass one = RunPipeline(seq, PassMode::kUntraced);
    account(one, "shards=1");
    speedup_vs_1 = one.run_s / gate_pass.run_s;
  }
  // 3. Tracing leaves the run unchanged (traced mode also paired every pass).
  account(RunPipeline(gate, PassMode::kTraced), "traced pass");
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %lld of %lld flows did not complete\n",
                 static_cast<long long>(failed), static_cast<long long>(attempted));
    correct = false;
  }

  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  for (const Pass& p : passes) {
    (p.traced ? traced : untraced).push_back(&p);
  }
  // Pooled FCT slowdowns over one pass of each input.
  SampleSet pooled;
  int requested = 0;
  for (int i = 0; i < w->sub_seeds; ++i) {
    const Pass& p = *untraced[static_cast<size_t>(i)];
    requested += p.requested;
    for (double s : p.slowdowns) {
      pooled.Add(s);
    }
  }
  // Untimed detail: the untraced passes as measured, before host scaling.
  auto per_pass = [&untraced](const char* fmt, auto field) {
    std::string out = "[";
    for (const Pass* p : untraced) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), fmt, field(*p));
      out += (out.size() > 1 ? ", " : "") + std::string(buf);
    }
    return out + "]";
  };
  auto rate = [](const Pass& p) { return static_cast<double>(p.events) / p.run_s; };
  auto calib_ms = [](const Pass& p) { return p.calib_s * 1e3; };
  const double fct_samples = static_cast<double>(pooled.size());
  const double p50 = pooled.Percentile(50);
  const double p99 = pooled.Percentile(99);
  const double incomplete_frac = 1.0 - fct_samples / requested;
  std::printf(
      "{\"detail\": {\"passes\": %zu, \"measured_s\": %.3f, \"fct_samples\": %.0f, "
      "\"flows_requested\": %d, \"flows_incomplete_frac\": %.17g, \"fct_p50_slowdown\": %.17g, "
      "\"fct_p99_slowdown\": %.17g, \"pipeline_digest\": \"%016llx\", "
      "\"run_experiment_digest\": \"%016llx\", \"pass_wall_s\": %s, "
      "\"pass_events_per_s\": %s, \"pass_calib_ms\": %s, \"pass_peak_rss_mb\": %s}}\n",
      passes.size(), measured_s, fct_samples, requested, incomplete_frac, p50, p99,
      static_cast<unsigned long long>(first_digest),
      static_cast<unsigned long long>(reference_digest),
      per_pass("%.4f", [](const Pass& p) { return p.wall_s; }).c_str(),
      per_pass("%.0f", rate).c_str(), per_pass("%.3f", calib_ms).c_str(),
      per_pass("%.1f", [](const Pass& p) { return p.peak_rss_mb; }).c_str());

  std::vector<Metric> metrics;
  if (!trace) {
    // Host-time metrics in reference-host units (see kReferenceCalibS).
    metrics = {
        {"wall_s", MedianOf(untraced, [](const Pass& p) { return p.wall_s / HostScale(p.calib_s); }),
         "s"},
        {"setup_s", Median(setup_samples), "s"},
        {"events_per_s",
         MedianOf(untraced, [&rate](const Pass& p) { return rate(p) * HostScale(p.calib_s); }),
         "1/s"},
        {"peak_rss_mb", MedianOf(untraced, [](const Pass& p) { return p.peak_rss_mb; }), "MB"},
        {"fct_p50_slowdown", p50, "x"},
        {"fct_p99_slowdown", p99, "x"},
    };
  } else {
    // Counts sum over one traced pass of each input; times are medians over
    // every traced pass; footprints are the fixed topology's.
    std::map<std::string, double> sum;
    for (int i = 0; i < w->sub_seeds; ++i) {
      const Pass& p = *traced[static_cast<size_t>(i)];
      for (const auto& [name, v] : p.layer) {
        // A high-water mark does not add up across inputs.
        sum[name] = name == "pdes.channel_high_water" ? std::max(sum[name], v) : sum[name] + v;
      }
      sum["sim.events"] += static_cast<double>(p.events);
    }
    auto t = [&traced](const char* name) {
      return MedianOf(traced, [name](const Pass& p) { return p.layer.at(name); });
    };
    const double untraced_wall = MedianOf(untraced, [](const Pass& p) { return p.wall_s; });
    const double traced_wall = MedianOf(traced, [](const Pass& p) { return p.wall_s; });
    const double first_tx = sum["transport.data_packets_sent"] - sum["transport.retransmits"];
    const double fec_base = sum["sim.fec.recovered_packets"] + sum["sim.fec.unrecovered_packets"];
    const double pdes_wall = sum["pdes.busy_ms"] + sum["pdes.stall_ms"];
    metrics = {
        {"sim.run_s", MedianOf(traced, [](const Pass& p) { return p.run_s; }), "s"},
        {"sim.loop_unattributed_s", t("sim.loop_unattributed_s"), "s"},
        {"sim.events", sum["sim.events"], "count"},
        {"sim.port.tx_packets", sum["sim.port.tx_packets"], "count"},
        {"sim.events_per_hop", Ratio(sum["sim.events"], sum["sim.port.tx_packets"]), "ratio"},
        {"sim.port.drops", sum["sim.port.drops"], "count"},
        {"sim.port.ecn_marks", sum["sim.port.ecn_marks"], "count"},
        {"sim.dci.lost_packets", sum["sim.dci.lost_packets"], "count"},
        {"sim.fec.recovered_packets", sum["sim.fec.recovered_packets"], "count"},
        {"sim.fec.unrecovered_packets", sum["sim.fec.unrecovered_packets"], "count"},
        {"sim.fec.recovered_ratio", Ratio(sum["sim.fec.recovered_packets"], fec_base), "ratio"},
        {"sim.network_build_s", MedianOf(traced, [](const Pass& p) { return p.network_s; }), "s"},
        {"sim.path_table_bytes", static_cast<double>(traced.front()->path_table_bytes), "B"},
        {"sim.start_s", MedianOf(traced, [](const Pass& p) { return p.start_s; }), "s"},
        {"transport.handlers_s", t("transport.handlers_s"), "s"},
        {"transport.handle_ack_s", t("transport.handle_ack_s"), "s"},
        {"transport.pace_s", t("transport.pace_s"), "s"},
        {"transport.schedule_s", MedianOf(traced, [](const Pass& p) { return p.schedule_s; }),
         "s"},
        {"transport.data_packets_sent", sum["transport.data_packets_sent"], "count"},
        {"transport.retransmits", sum["transport.retransmits"], "count"},
        {"transport.first_tx_packets", first_tx, "count"},
        {"transport.first_tx_ratio", Ratio(first_tx, sum["transport.data_packets_sent"]),
         "ratio"},
        {"transport.nacks", sum["transport.nacks"], "count"},
        {"transport.cnps", sum["transport.cnps"], "count"},
        {"transport.timeouts", sum["transport.timeouts"], "count"},
        {"core.select_port_s", t("core.select_port_s"), "s"},
        {"core.decide_new_flow_s", t("core.decide_new_flow_s"), "s"},
        {"core.new_flow_decisions", sum["core.new_flow_decisions"], "count"},
        {"core.fallback_decisions", sum["core.fallback_decisions"], "count"},
        {"core.flow_cache.hits", sum["core.flow_cache.hits"], "count"},
        {"core.flow_cache.lookups", sum["core.flow_cache.lookups"], "count"},
        {"core.flow_cache.hit_ratio",
         Ratio(sum["core.flow_cache.hits"], sum["core.flow_cache.lookups"]), "ratio"},
        {"core.flow_cache.evictions", sum["core.flow_cache.evictions"], "count"},
        {"core.monitor_tick_s", t("core.monitor_tick_s"), "s"},
        {"core.provision_s", MedianOf(traced, [](const Pass& p) { return p.provision_s; }), "s"},
        {"topo.build_s", MedianOf(traced, [](const Pass& p) { return p.topo_s; }), "s"},
        {"topo.graph_bytes", static_cast<double>(traced.front()->topo_bytes), "B"},
        {"workload.gen_s", MedianOf(traced, [](const Pass& p) { return p.gen_s; }), "s"},
        {"workload.flows_requested", static_cast<double>(requested), "count"},
        {"pdes.windows", sum["pdes.windows"], "count"},
        {"pdes.busy_ms", t("pdes.busy_ms"), "ms"},
        {"pdes.stall_ms", t("pdes.stall_ms"), "ms"},
        {"pdes.stall_pct", 100.0 * Ratio(sum["pdes.stall_ms"], pdes_wall), "%"},
        {"pdes.channel_high_water", sum["pdes.channel_high_water"], "count"},
        {"pdes.coord_ms", t("pdes.coord_ms"), "ms"},
        {"pdes.speedup_vs_1", speedup_vs_1, "x"},
        {"stats.collect_s", MedianOf(traced, [](const Pass& p) { return p.collect_s; }), "s"},
        {"stats.fct_samples", fct_samples, "count"},
        {"flows_incomplete_frac", incomplete_frac, "ratio"},
        {"obs.trace_overhead_pct", 100.0 * (traced_wall / untraced_wall - 1.0), "%"},
    };
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
