#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/lcmp_router.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "obs/metrics.h"
#include "obs/shard_profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "routing/ecmp.h"
#include "routing/redte.h"
#include "routing/ucmp.h"
#include "routing/wcmp.h"
#include "sim/shard_engine.h"
#include "topo/gen/import.h"
#include "topo/gen/wan_gen.h"

namespace lcmp {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kEcmp:
      return "ECMP";
    case PolicyKind::kWcmp:
      return "WCMP";
    case PolicyKind::kUcmp:
      return "UCMP";
    case PolicyKind::kRedte:
      return "RedTE";
    case PolicyKind::kLcmp:
      return "LCMP";
  }
  return "?";
}

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTestbed8:
      return "testbed-8dc";
    case TopologyKind::kBso13:
      return "bso-13dc";
    case TopologyKind::kTestbed8Sym:
      return "testbed-8dc-sym";
    case TopologyKind::kRandomWan:
      return "random-wan";
    case TopologyKind::kDragonfly:
      return "dragonfly-wan";
    case TopologyKind::kSlimFly:
      return "slimfly-wan";
    case TopologyKind::kFatTree:
      return "fattree-wan";
    case TopologyKind::kImported:
      return "imported-wan";
  }
  return "?";
}

const char* PolicyKindToken(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kEcmp:
      return "ecmp";
    case PolicyKind::kWcmp:
      return "wcmp";
    case PolicyKind::kUcmp:
      return "ucmp";
    case PolicyKind::kRedte:
      return "redte";
    case PolicyKind::kLcmp:
      return "lcmp";
  }
  return "?";
}

const char* TopologyKindToken(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTestbed8:
      return "testbed8";
    case TopologyKind::kBso13:
      return "bso13";
    case TopologyKind::kTestbed8Sym:
      return "testbed8-sym";
    case TopologyKind::kRandomWan:
      return "random";
    case TopologyKind::kDragonfly:
      return "dragonfly";
    case TopologyKind::kSlimFly:
      return "slimfly";
    case TopologyKind::kFatTree:
      return "fattree";
    case TopologyKind::kImported:
      return "imported";
  }
  return "?";
}

const char* FabricKindToken(FabricKind kind) {
  switch (kind) {
    case FabricKind::kCollapsed:
      return "collapsed";
    case FabricKind::kLeafSpine:
      return "leafspine";
  }
  return "?";
}

const char* PathStrategyKindToken(PathStrategyKind kind) {
  switch (kind) {
    case PathStrategyKind::kDownhill:
      return "downhill";
    case PathStrategyKind::kLayered:
      return "layered";
  }
  return "?";
}

const char* WorkloadKindToken(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kWebSearch:
      return "websearch";
    case WorkloadKind::kFbHdp:
      return "fbhdp";
    case WorkloadKind::kAliStorage:
      return "alistorage";
  }
  return "?";
}

const char* PairingKindToken(PairingKind kind) {
  switch (kind) {
    case PairingKind::kEndpointPair:
      return "endpoints";
    case PairingKind::kAllToAll:
      return "all";
    case PairingKind::kAllToAllFocusEndpoints:
      return "all-focus";
    case PairingKind::kEndpointOneWay:
      return "endpoints-oneway";
  }
  return "?";
}

namespace {

// Shared skeleton for the Parse*Kind helpers: match `text` against the token
// table; on failure compose "unknown <what> '<text>' (expected one of: ...)".
template <typename Kind>
bool ParseKindToken(const std::string& text, const char* what,
                    const std::vector<std::pair<const char*, Kind>>& table, Kind* out,
                    std::string* error) {
  for (const auto& [token, kind] : table) {
    if (text == token) {
      *out = kind;
      return true;
    }
  }
  if (error != nullptr) {
    std::string expected;
    for (const auto& [token, kind] : table) {
      (void)kind;
      if (!expected.empty()) {
        expected += " | ";
      }
      expected += token;
    }
    *error = std::string("unknown ") + what + " '" + text + "' (expected one of: " + expected +
             ")";
  }
  return false;
}

}  // namespace

bool ParsePolicyKind(const std::string& text, PolicyKind* out, std::string* error) {
  return ParseKindToken<PolicyKind>(text, "policy",
                                    {{"ecmp", PolicyKind::kEcmp},
                                     {"wcmp", PolicyKind::kWcmp},
                                     {"ucmp", PolicyKind::kUcmp},
                                     {"redte", PolicyKind::kRedte},
                                     {"lcmp", PolicyKind::kLcmp}},
                                    out, error);
}

bool ParseTopologyKind(const std::string& text, TopologyKind* out, std::string* error) {
  return ParseKindToken<TopologyKind>(text, "topology",
                                      {{"testbed8", TopologyKind::kTestbed8},
                                       {"bso13", TopologyKind::kBso13},
                                       {"testbed8-sym", TopologyKind::kTestbed8Sym},
                                       {"random", TopologyKind::kRandomWan},
                                       {"dragonfly", TopologyKind::kDragonfly},
                                       {"slimfly", TopologyKind::kSlimFly},
                                       {"fattree", TopologyKind::kFatTree},
                                       {"imported", TopologyKind::kImported}},
                                      out, error);
}

bool ParseFabricKind(const std::string& text, FabricKind* out, std::string* error) {
  return ParseKindToken<FabricKind>(text, "fabric",
                                    {{"collapsed", FabricKind::kCollapsed},
                                     {"leafspine", FabricKind::kLeafSpine}},
                                    out, error);
}

bool ParsePathStrategyKind(const std::string& text, PathStrategyKind* out, std::string* error) {
  return ParseKindToken<PathStrategyKind>(text, "path strategy",
                                          {{"downhill", PathStrategyKind::kDownhill},
                                           {"layered", PathStrategyKind::kLayered}},
                                          out, error);
}

bool ParseWorkloadKind(const std::string& text, WorkloadKind* out, std::string* error) {
  return ParseKindToken<WorkloadKind>(text, "workload",
                                      {{"websearch", WorkloadKind::kWebSearch},
                                       {"fbhdp", WorkloadKind::kFbHdp},
                                       {"alistorage", WorkloadKind::kAliStorage}},
                                      out, error);
}

bool ParsePairingKind(const std::string& text, PairingKind* out, std::string* error) {
  return ParseKindToken<PairingKind>(text, "pairing",
                                     {{"endpoints", PairingKind::kEndpointPair},
                                      {"all", PairingKind::kAllToAll},
                                      {"all-focus", PairingKind::kAllToAllFocusEndpoints},
                                      {"endpoints-oneway", PairingKind::kEndpointOneWay}},
                                     out, error);
}

PolicyFactory MakePolicyFactory(PolicyKind kind, const LcmpConfig& lcmp_config) {
  switch (kind) {
    case PolicyKind::kEcmp:
      return [](SwitchNode&) { return std::make_unique<EcmpPolicy>(); };
    case PolicyKind::kWcmp:
      return [](SwitchNode&) { return std::make_unique<WcmpPolicy>(); };
    case PolicyKind::kUcmp:
      return [](SwitchNode&) { return std::make_unique<UcmpPolicy>(); };
    case PolicyKind::kRedte:
      return [](SwitchNode&) { return std::make_unique<RedtePolicy>(); };
    case PolicyKind::kLcmp:
      return MakeLcmpFactory(lcmp_config);
  }
  return [](SwitchNode&) { return std::make_unique<EcmpPolicy>(); };
}

namespace {

// Topology-generation seed: its own field when set, otherwise the run seed.
// Kept separate so a sweep can vary traffic seeds over one fixed graph.
uint64_t EffectiveTopoSeed(const ExperimentConfig& config) {
  return config.topo_seed != 0 ? config.topo_seed : config.seed;
}

// Fabric shape for the generated/imported WAN kinds.
FabricOptions GeneratedFabric(const ExperimentConfig& config) {
  FabricOptions fabric;
  fabric.kind = config.fabric;
  fabric.hosts = config.hosts_per_dc;
  fabric.leaves = config.fabric_leaves;
  fabric.spines = config.fabric_spines;
  return fabric;
}

// The base topology before experiment-axis post-processing.
Graph BuildBaseTopology(const ExperimentConfig& config) {
  switch (config.topo) {
    case TopologyKind::kTestbed8: {
      Testbed8Options opts;
      opts.fabric.hosts = config.hosts_per_dc;
      return BuildTestbed8(opts);
    }
    case TopologyKind::kBso13: {
      Bso13Options opts;
      opts.fabric.hosts = config.hosts_per_dc;
      return BuildBso13(opts);
    }
    case TopologyKind::kTestbed8Sym: {
      Testbed8Options opts;
      for (auto& cls : opts.classes) {
        cls.rate_bps = Gbps(100);
        cls.per_link_delay_ns = Milliseconds(10);
      }
      opts.fabric.hosts = config.hosts_per_dc;
      return BuildTestbed8(opts);
    }
    case TopologyKind::kRandomWan: {
      RandomWanOptions opts;
      opts.num_dcs = config.num_dcs;
      opts.extra_chords = config.extra_chords;
      opts.seed = EffectiveTopoSeed(config);
      opts.fabric = GeneratedFabric(config);
      return BuildRandomWan(opts);
    }
    case TopologyKind::kDragonfly: {
      DragonflyWanOptions opts;
      opts.num_dcs = config.num_dcs;
      opts.group_size = config.df_group_size;
      opts.global_links_per_dc = config.df_global_links;
      opts.seed = EffectiveTopoSeed(config);
      opts.fabric = GeneratedFabric(config);
      return BuildDragonflyWan(opts);
    }
    case TopologyKind::kSlimFly: {
      SlimFlyWanOptions opts;
      opts.num_dcs = config.num_dcs;
      opts.seed = EffectiveTopoSeed(config);
      opts.fabric = GeneratedFabric(config);
      return BuildSlimFlyWan(opts);
    }
    case TopologyKind::kFatTree: {
      FatTreeWanOptions opts;
      opts.num_dcs = config.num_dcs;
      opts.seed = EffectiveTopoSeed(config);
      opts.fabric = GeneratedFabric(config);
      return BuildFatTreeWan(opts);
    }
    case TopologyKind::kImported: {
      WanImportOptions opts;
      opts.path = config.topo_file;
      opts.fabric = GeneratedFabric(config);
      Graph g;
      std::string error;
      LCMP_CHECK_MSG(ImportWan(opts, &g, &error), "topology import failed: %s", error.c_str());
      return g;
    }
  }
  return BuildTestbed8({});
}

}  // namespace

Graph BuildTopology(const ExperimentConfig& config) {
  Graph g = BuildBaseTopology(config);
  // Oversubscribed DCI borders: divide every inter-DC link's rate by
  // os_borders, leaving intra-DC fabric capacity untouched. os_borders == 1
  // (the default) touches nothing, so pinned topologies stay bit-identical.
  if (config.os_borders > 1) {
    for (int li = 0; li < g.num_links(); ++li) {
      const LinkSpec& l = g.link(li);
      if (g.vertex(l.a).kind == VertexKind::kDciSwitch &&
          g.vertex(l.b).kind == VertexKind::kDciSwitch && g.vertex(l.a).dc != g.vertex(l.b).dc) {
        g.SetLinkRate(li, std::max<int64_t>(l.rate_bps / config.os_borders, 1));
      }
    }
  }
  return g;
}

std::vector<std::pair<DcId, DcId>> BuildPairing(const ExperimentConfig& config, int num_dcs) {
  if (config.pairing == PairingKind::kAllToAll) {
    return AllOrderedDcPairs(num_dcs);
  }
  if (config.pairing == PairingKind::kAllToAllFocusEndpoints) {
    std::vector<std::pair<DcId, DcId>> pairs = AllOrderedDcPairs(num_dcs);
    const DcId a = 0;
    const DcId b = static_cast<DcId>(num_dcs - 1);
    for (int i = 0; i < 3; ++i) {
      pairs.emplace_back(a, b);
      pairs.emplace_back(b, a);
    }
    return pairs;
  }
  const DcId a = 0;
  const DcId b = static_cast<DcId>(num_dcs - 1);
  if (config.pairing == PairingKind::kEndpointOneWay) {
    return {{a, b}};
  }
  // Endpoint pair: first and last DC, both directions (DC1 <-> DC8 on the
  // testbed topology; DC1 <-> DC13 endpoints carry hosts in bso13 too).
  return {{a, b}, {b, a}};
}

SlowdownStats ExperimentResult::ForDcPair(DcId src, DcId dst) const {
  SampleSet set;
  for (const auto& s : samples) {
    if (s.src_dc == src && s.dst_dc == dst) {
      set.Add(s.slowdown);
    }
  }
  SlowdownStats out;
  out.count = static_cast<int>(set.size());
  if (out.count > 0) {
    out.mean = set.Mean();
    out.p50 = set.Percentile(50);
    out.p95 = set.Percentile(95);
    out.p99 = set.Percentile(99);
  }
  return out;
}

SlowdownStats ExperimentResult::ForDcPairBidir(DcId a, DcId b) const {
  SampleSet set;
  for (const auto& s : samples) {
    if ((s.src_dc == a && s.dst_dc == b) || (s.src_dc == b && s.dst_dc == a)) {
      set.Add(s.slowdown);
    }
  }
  SlowdownStats out;
  out.count = static_cast<int>(set.size());
  if (out.count > 0) {
    out.mean = set.Mean();
    out.p50 = set.Percentile(50);
    out.p95 = set.Percentile(95);
    out.p99 = set.Percentile(99);
  }
  return out;
}

namespace {

bool OutOfRange(const char* field, double value, const char* domain, std::string* error) {
  if (error != nullptr) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "field '%s' = %g is out of range (want %s)", field, value,
                  domain);
    *error = buf;
  }
  return false;
}

}  // namespace

bool ValidateExperimentConfig(const ExperimentConfig& config, std::string* error) {
  // Negated comparisons so NaN fails every bound.
  if (config.num_flows <= 0) {
    return OutOfRange("flows", config.num_flows, "> 0", error);
  }
  if (!(config.load > 0.0 && config.load <= 1.0)) {
    return OutOfRange("load", config.load, "(0, 1]", error);
  }
  if (!(config.mix_intra >= 0.0 && config.mix_intra < 1.0)) {
    return OutOfRange("mix_intra", config.mix_intra, "[0, 1)", error);
  }
  if (!(config.dci_loss_rate >= 0.0 && config.dci_loss_rate < 1.0)) {
    return OutOfRange("dci_loss_rate", config.dci_loss_rate, "[0, 1)", error);
  }
  if (config.max_inflight_bytes < 0) {
    return OutOfRange("max_inflight_bytes", static_cast<double>(config.max_inflight_bytes),
                      ">= 0", error);
  }
  return true;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  LCMP_CHECK(ValidateConfig(config.lcmp));
  const Graph graph = BuildTopology(config);

  // Right-size the flow cache to the run when requested. Applied to a copy:
  // the config echoed in results/digests stays exactly what the user set.
  LcmpConfig lcmp_eff = config.lcmp;
  if (lcmp_eff.flow_cache_auto) {
    lcmp_eff.flow_cache_capacity =
        std::clamp(4 * config.num_flows, 1024, config.lcmp.flow_cache_capacity);
  }

  NetworkConfig net_config;
  net_config.seed = config.seed;
  net_config.shards = config.shards;
  net_config.enable_int = CcNeedsInt(config.cc);
  net_config.pfc.enabled = config.pfc_enabled;
  net_config.pfc.xoff_bytes = config.pfc_xoff_bytes;
  net_config.pfc.xon_bytes = config.pfc_xon_bytes;
  net_config.paths.strategy = config.path_strategy;
  net_config.paths.layers = config.path_layers;
  net_config.paths.drop_permille = config.layer_drop_permille;
  net_config.paths.seed = EffectiveTopoSeed(config);
  LCMP_CHECK(config.fec_k == 0 || config.fec_m > 0);
  net_config.dci_loss_rate = config.dci_loss_rate;
  net_config.dci_burst_len = config.dci_burst_len;
  net_config.fec_k = config.fec_k;
  net_config.fec_m = config.fec_m;
  Network net(graph, net_config, MakePolicyFactory(config.policy, lcmp_eff));

  // Control plane provisioning (no-op for non-LCMP policies).
  ControlPlane control_plane(lcmp_eff);
  control_plane.Provision(net);

  // Workload: open-loop Poisson arrivals by default, or a simultaneous burst
  // (herd-effect experiments) when burst_mode is set.
  auto pairs = BuildPairing(config, graph.num_dcs());
  // Transit-heavy WANs (fat-tree agg/core stages, imported backbones) have
  // host-less DCs that cannot source or sink traffic: drop those pairs, and
  // if the endpoint pairing itself landed on transit DCs, retarget it to the
  // first/last host-bearing DC. No-op on the paper topologies (their endpoint
  // DCs always carry hosts, and all-to-all over them never hits an empty DC).
  {
    std::vector<bool> has_hosts(static_cast<size_t>(graph.num_dcs()), false);
    for (NodeId id = 0; id < graph.num_vertices(); ++id) {
      const Vertex& v = graph.vertex(id);
      if (v.kind == VertexKind::kHost && v.dc >= 0) {
        has_hosts[static_cast<size_t>(v.dc)] = true;
      }
    }
    auto hostless = [&](const std::pair<DcId, DcId>& p) {
      return !has_hosts[static_cast<size_t>(p.first)] || !has_hosts[static_cast<size_t>(p.second)];
    };
    pairs.erase(std::remove_if(pairs.begin(), pairs.end(), hostless), pairs.end());
    if (pairs.empty()) {
      DcId first = kInvalidDc;
      DcId last = kInvalidDc;
      for (DcId dc = 0; dc < graph.num_dcs(); ++dc) {
        if (has_hosts[static_cast<size_t>(dc)]) {
          if (first == kInvalidDc) {
            first = dc;
          }
          last = dc;
        }
      }
      LCMP_CHECK_MSG(first != kInvalidDc && last != first,
                     "topology has fewer than two host-bearing DCs");
      pairs = config.pairing == PairingKind::kEndpointOneWay
                  ? std::vector<std::pair<DcId, DcId>>{{first, last}}
                  : std::vector<std::pair<DcId, DcId>>{{first, last}, {last, first}};
    }
  }
  std::vector<FlowSpec> flows;
  if (config.burst_mode) {
    BurstConfig burst;
    burst.workload = config.workload;
    burst.num_flows = config.num_flows;
    burst.fixed_size_bytes = config.burst_size_bytes;
    burst.seed = Mix64(config.seed ^ 0x7ea1);
    flows = GenerateBurst(graph, pairs, burst);
  } else {
    TrafficGenConfig traffic;
    traffic.workload = config.workload;
    traffic.offered_bps = OfferedLoadForUtilization(graph, net.routes(), pairs, config.load);
    traffic.num_flows = config.num_flows;
    traffic.seed = Mix64(config.seed ^ 0x7ea1);
    traffic.mix_intra = config.mix_intra;
    flows = GenerateTraffic(graph, pairs, traffic);
  }
  // Synchronized N-to-1 incast rides on top of the background matrix; its
  // flow ids start right after the background flows so the result can be
  // split into background vs incast populations by id.
  FlowId incast_first_id = 0;
  if (config.incast_fanin > 0) {
    IncastConfig inc;
    inc.fanin = config.incast_fanin;
    inc.bytes_per_sender = config.incast_bytes;
    inc.start_time = 0;
    inc.first_flow_id = static_cast<FlowId>(flows.size()) + 1;
    incast_first_id = inc.first_flow_id;
    const std::vector<FlowSpec> inc_flows = GenerateIncast(graph, inc);
    flows.insert(flows.end(), inc_flows.begin(), inc_flows.end());
  }

  // Transport + stats.
  FctRecorder recorder(&net.graph());
  TransportConfig tconfig;
  tconfig.cc = config.cc;
  tconfig.cc_inter = config.cc_inter;
  tconfig.cc_intra = config.cc_intra;
  tconfig.reliability = config.reliability;
  tconfig.max_inflight_bytes = config.max_inflight_bytes;
  Simulator& sim = net.sim();
  const int expected = static_cast<int>(flows.size());
  // Sharded runs buffer completions with their (time, key) stamps and replay
  // them into the recorder in merged order after the run — the exact order
  // the sequential core's callback saw them (digest equality depends on it).
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

  // Fault injection + invariant monitoring (no-ops when unconfigured; the
  // monitor only reads state, so enabling it cannot change the run).
  FaultInjector injector(net, &control_plane);
  std::unique_ptr<InvariantMonitor> monitor;
  if (config.monitor_invariants) {
    InvariantMonitorOptions mopts;
    mopts.strict = config.monitor_strict;
    monitor = std::make_unique<InvariantMonitor>(net, mopts);
    injector.SetMonitor(monitor.get());
    monitor->Start();
  }
  // An explicit plan wins; otherwise a non-zero chaos seed draws one, so
  // fault sweeps are expressible as plain (sweepable) config fields.
  FaultPlan armed_plan = config.fault_plan;
  if (armed_plan.empty() && config.chaos_seed != 0) {
    ChaosOptions chaos;
    chaos.seed = config.chaos_seed;
    chaos.faults_per_sec = config.chaos_rate;
    chaos.window = Milliseconds(config.chaos_window_ms);
    armed_plan = GenerateChaosPlan(graph, chaos);
  }
  if (!armed_plan.empty()) {
    injector.Arm(armed_plan);
  }

  LinkUtilizationTracker util(&net);
  util.Begin();
  net.StartPolicyTicks();
  if (config.telemetry_period > 0) {
    control_plane.StartTelemetryLoop(net, config.telemetry_period);
  }
  if (engine != nullptr) {
    // Barrier/stall profiling is wall-clock-only, so arm it whenever any obs
    // subsystem is on (the trace export consumes it). Begin() can fail only if
    // another run holds the profiler (e.g. a parallel sweep); then this run
    // just goes unprofiled.
    const bool profile_barriers =
        (obs::MetricsEnabled() || obs::TraceEnabled() || obs::ProfileEnabled() ||
         obs::TimeSeriesHub::Instance().enabled()) &&
        obs::BarrierProfiler::Instance().Begin(net.num_shards());
    engine->Run();
    if (profile_barriers) {
      obs::BarrierProfiler::Instance().End();
    }
    for (const auto& c : engine->SortedCompletions()) {
      recorder.OnComplete(c.rec);
    }
  } else {
    sim.Run(config.horizon);
  }
  control_plane.StopTelemetryLoop(net);
  if (monitor != nullptr) {
    monitor->Stop();
    monitor->FinalCheck(expected, recorder.completed(), armed_plan.AllClearTime());
  }

  ExperimentResult result;
  result.config = config;
  result.overall = recorder.Overall();
  if (incast_first_id > 0) {
    result.incast = recorder.Where(
        [incast_first_id](const FctRecorder::Sample& s) { return s.flow >= incast_first_id; });
    result.incast_flows_completed = result.incast.count;
  }
  result.buckets = recorder.ByBuckets(SizeBucketEdges(config.workload));
  result.link_utils = util.End();
  result.samples = recorder.samples();
  result.telemetry = control_plane.CollectTelemetry(net);
  result.flows_completed = recorder.completed();
  result.flows_requested = expected;
  result.retransmitted_packets = transport.retransmitted_packets();
  result.timeouts = transport.timeouts();
  const DciTierStats dci_stats = net.CollectDciStats();
  result.dci_lost_packets = dci_stats.lost_packets;
  result.fec_repair_packets = dci_stats.repair_packets;
  result.fec_recovered_packets = dci_stats.recovered_packets;
  result.fec_unrecovered_packets = dci_stats.unrecovered_packets;
  result.events_processed = engine != nullptr ? engine->events_processed() : sim.events_processed();
  result.sim_end_time = engine != nullptr ? engine->end_time() : sim.now();
  result.multipath_pair_fraction = net.routes().MultipathPairFraction();
  result.faults_injected = injector.injections();
  result.topo_bytes = net.TopoBytes();
  result.path_table_bytes = net.PathTableBytes();
  result.static_table_bytes = net.StaticTableBytes();
  result.num_dcis = net.NumDciSwitches();
  for (NodeId id = 0; id < graph.num_vertices(); ++id) {
    if (graph.vertex(id).kind != VertexKind::kHost) {
      ++result.num_switches;
    }
  }
  // Substrate accounting (cheap: one pass over switch ports).
  for (NodeId id = 0; id < graph.num_vertices(); ++id) {
    if (graph.vertex(id).kind == VertexKind::kHost) {
      continue;
    }
    SwitchNode& sw = net.switch_node(id);
    for (PortIndex p = 0; p < sw.num_ports(); ++p) {
      result.switch_dropped_packets += sw.port(p).dropped_packets();
      result.total_paused_ns += sw.port(p).paused_ns();
    }
    if (sw.pfc() != nullptr) {
      result.pfc_pause_frames += sw.pfc()->pause_frames_sent();
    }
  }
  // Endpoint egress spread: the first DC's candidate egresses toward the
  // last DC (herd-effect experiments read these off the result).
  if (graph.num_dcs() >= 2) {
    const DcId last = static_cast<DcId>(graph.num_dcs() - 1);
    SwitchNode& first_dci = net.switch_node(graph.DciOfDc(0));
    for (const PathCandidate& cand : first_dci.CandidatesTo(last)) {
      const Port& port = first_dci.port(cand.port);
      result.endpoint_max_queue_bytes =
          std::max(result.endpoint_max_queue_bytes, port.max_queue_bytes());
      if (port.tx_bytes() > 1'000'000) {
        ++result.endpoint_egress_used;
      }
    }
  }
  if (monitor != nullptr) {
    result.invariant_checks = monitor->checks_run();
    result.invariant_violations = monitor->violations();
    result.violation_log = monitor->violation_log();
  }
  if (result.flows_completed < expected) {
    LCMP_WARN("experiment finished %d/%d flows before the horizon (policy=%s load=%.2f)",
              result.flows_completed, expected, PolicyKindName(config.policy), config.load);
  }
  return result;
}

}  // namespace lcmp
