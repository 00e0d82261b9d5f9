// lcmp_sim: command-line experiment driver (the artifact's scripts/ folder
// equivalent). Runs one experiment described by flags, prints the summary
// table, and optionally dumps CSVs for external analysis/plotting.
//
//   lcmp_sim --topo=testbed8 --policy=lcmp --workload=websearch
//            --cc-inter=dcqcn --load=0.5 --flows=500 --seed=7 --csv-prefix=out/run1
//
// A run (or any run of a sweep) that leaves a flow unfinished exits 1; an
// out-of-range config value exits 2 before anything runs.
//
// Sweep mode: --sweep-spec=<file.json> and/or --sweep-axes="..." switch to
// the parallel sweep engine. The single-run flags above still apply — they
// seed the sweep's base config — and --jobs picks the worker count:
//
//   lcmp_sim --flows=300 --sweep-axes="load=0.3,0.5;policy=ecmp,lcmp"
//            --jobs=8 --sweep-out=sweep_results.json
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/csv_writer.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace {

using namespace lcmp;

bool ParseEnums(const FlagSet& flags, ExperimentConfig& config, std::string& error) {
  return ParseTopologyKind(flags.GetString("topo"), &config.topo, &error) &&
         ParsePolicyKind(flags.GetString("policy"), &config.policy, &error) &&
         ParseWorkloadKind(flags.GetString("workload"), &config.workload, &error) &&
         ParsePairingKind(flags.GetString("pairing"), &config.pairing, &error) &&
         ParseFabricKind(flags.GetString("fabric"), &config.fabric, &error) &&
         ParsePathStrategyKind(flags.GetString("paths"), &config.path_strategy, &error) &&
         ParseReliabilityMode(flags.GetString("reliability"), &config.reliability, &error) &&
         ApplyConfigField(&config, "fec", flags.GetString("fec"), &error);
}

// Segment-split CC selection. Both flags default to "" so "not given" is
// distinguishable: each one given overrides its segment.
bool ApplyCcFlags(const FlagSet& flags, ExperimentConfig& config, std::string& error) {
  const std::string inter = flags.GetString("cc-inter");
  if (!inter.empty() && !ParseCcToken(inter, &config.cc.inter, &error)) {
    return false;
  }
  const std::string intra = flags.GetString("cc-intra");
  if (!intra.empty() && !ParseCcToken(intra, &config.cc.intra, &error)) {
    return false;
  }
  return true;
}

int RunSweepMode(const ExperimentConfig& base, const SweepOptions& sweep_opts,
                 const FaultOptions& fault_opts, int jobs, const std::string& csv_prefix) {
  SweepSpec spec(base);
  // In sweep mode the chaos flags become config fields so every run draws
  // its own plan against its own topology (an explicit --fault-plan file was
  // already resolved into base.fault_plan against the base topology).
  spec.base.chaos_seed = fault_opts.chaos_seed;
  spec.base.chaos_rate = fault_opts.chaos_rate;
  spec.base.chaos_window_ms = fault_opts.chaos_window_ms;

  std::string error;
  if (!sweep_opts.spec_file.empty() && !LoadSweepSpecFile(sweep_opts.spec_file, &spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (!sweep_opts.axes.empty() && !ParseSweepAxes(sweep_opts.axes, &spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (!sweep_opts.spec_out.empty()) {
    if (!SaveSweepSpecFile(sweep_opts.spec_out, spec, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote resolved sweep spec to %s\n", sweep_opts.spec_out.c_str());
  }

  SweepRunnerOptions runner_opts;
  runner_opts.jobs = jobs;

  const auto start = std::chrono::steady_clock::now();
  std::vector<RunOutcome> outcomes;
  if (!RunSweep(spec, runner_opts, &outcomes, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  double run_seconds = 0;
  for (const RunOutcome& o : outcomes) {
    run_seconds += o.wall_seconds;
  }
  std::printf("sweep: %zu runs on %d jobs in %.2f s (%.2f s of simulation, %.2fx)\n",
              outcomes.size(), jobs, wall, run_seconds, wall > 0 ? run_seconds / wall : 0.0);

  TablePrinter table({"run", "flows", "p50 slowdown", "p99 slowdown", "digest", "wall s"});
  for (const RunOutcome& o : outcomes) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(o.digest));
    table.AddRow({o.run.label, std::to_string(o.result.flows_completed), Fmt(o.result.overall.p50),
                  Fmt(o.result.overall.p99), digest, Fmt(o.wall_seconds, 2)});
  }
  table.Print();

  if (sweep_opts.verify_sequential) {
    std::vector<RunOutcome> sequential;
    SweepRunnerOptions seq_opts;
    seq_opts.jobs = 1;
    if (!RunSweep(spec, seq_opts, &sequential, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    int mismatches = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].digest != sequential[i].digest) {
        std::fprintf(stderr,
                     "DIGEST MISMATCH run %zu (%s): jobs=%d -> %016llx, jobs=1 -> %016llx\n", i,
                     outcomes[i].run.label.c_str(), jobs,
                     static_cast<unsigned long long>(outcomes[i].digest),
                     static_cast<unsigned long long>(sequential[i].digest));
        ++mismatches;
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "verify-sequential: %d of %zu runs diverged\n", mismatches,
                   outcomes.size());
      return 1;
    }
    std::printf("verify-sequential: all %zu digests identical to --jobs=1\n", outcomes.size());
  }

  if (!sweep_opts.results_out.empty()) {
    if (!WriteSweepResultsJson(sweep_opts.results_out, outcomes, jobs, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote sweep results to %s\n", sweep_opts.results_out.c_str());
  }
  if (!csv_prefix.empty()) {
    const std::string path = csv_prefix + "_sweep.csv";
    if (!WriteSweepSummaryCsv(path, outcomes)) {
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  size_t incomplete = 0;
  for (const RunOutcome& o : outcomes) {
    incomplete += o.result.flows_completed < o.result.flows_requested ? 1 : 0;
  }
  if (incomplete > 0) {
    std::fprintf(stderr, "incomplete sweep: %zu of %zu runs left flows unfinished\n", incomplete,
                 outcomes.size());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("topo", "testbed8",
               "topology: testbed8 | bso13 | testbed8-sym | random | dragonfly | slimfly | "
               "fattree | imported")
      .Define("dcs", "16", "DC count for generated topologies (slimfly/fattree round up)")
      .Define("topo-seed", "0", "topology-generation seed; 0 = derive from --seed")
      .Define("chords", "8", "random topology: chords on top of the ring")
      .Define("df-group-size", "0", "dragonfly: DCs per group (0 = auto)")
      .Define("df-global-links", "2", "dragonfly: global-link budget per DC")
      .Define("topo-file", "", "imported topology: edge-list or .gml path")
      .Define("fabric", "collapsed", "generated-DC fabric: collapsed | leafspine")
      .Define("fabric-leaves", "4", "leaf-spine fabric: leaf switches per DC")
      .Define("fabric-spines", "2", "leaf-spine fabric: spine switches per DC")
      .Define("paths", "downhill", "candidate-path strategy: downhill | layered")
      .Define("path-layers", "4", "layered paths: total layers incl. minimal layer 0")
      .Define("layer-drop-permille", "250", "layered paths: per-layer link drop rate (1/1000)")
      .Define("flow-cache-auto", "false", "right-size LCMP flow caches to the flow count")
      .Define("policy", "lcmp", "routing policy: ecmp | wcmp | ucmp | redte | lcmp")
      .Define("workload", "websearch", "flow-size mix: websearch | fbhdp | alistorage")
      .Define("cc-inter", "", "long-haul segment CC: dcqcn | hpcc | timely | dctcp | lcp")
      .Define("cc-intra", "", "intra-DC segment CC: dcqcn | hpcc | timely | dctcp | lcp")
      .Define("incast-fanin", "0", "N-to-1 incast senders at the last DC (0 = off)")
      .Define("incast-bytes", "1048576", "bytes each incast sender ships")
      .Define("os-borders", "1", "divide every DCI<->DCI link rate by this factor")
      .Define("mix-intra", "0", "fraction of background flows kept intra-DC [0,1)")
      .Define("reliability", "gbn", "transport loss recovery: gbn (Go-Back-N) | irn")
      .Define("dci-loss-rate", "0", "standing DCI packet corruption rate [0,1)")
      .Define("dci-burst-len", "1", "mean DCI corruption-burst length in packets")
      .Define("fec", "off", "DCI gateway FEC shim: k:m (e.g. 8:2) | off")
      .Define("max-inflight-bytes", "0",
              "bounded in-flight sender window in bytes (0 = legacy unbounded)")
      .Define("pairing", "endpoints",
              "traffic pairing: endpoints | all | all-focus | endpoints-oneway")
      .Define("load", "0.3", "target average inter-DC link utilization (0, 1]")
      .Define("flows", "500", "number of flows to generate")
      .Define("hosts-per-dc", "8", "hosts per datacenter")
      .Define("seed", "1", "PRNG seed (runs are deterministic per seed)")
      .Define("alpha", "3", "LCMP global fusion weight for C_path")
      .Define("beta", "1", "LCMP global fusion weight for C_cong")
      .Define("w-dl", "3", "LCMP path-quality delay weight")
      .Define("w-lc", "1", "LCMP path-quality capacity weight")
      .Define("w-ql", "2", "LCMP congestion queue-level weight")
      .Define("w-tl", "1", "LCMP congestion trend weight")
      .Define("w-dp", "1", "LCMP congestion duration weight")
      .Define("csv-prefix", "", "if set, write <prefix>_{flows,links,buckets}.csv"
              " (in sweep mode: <prefix>_sweep.csv)");
  DefineSweepFlags(flags);
  DefineShardFlags(flags);
  DefineObsFlags(flags);
  DefineFaultFlags(flags);
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  ExperimentConfig config;
  std::string error;
  if (!ParseEnums(flags, config, error) || !ApplyCcFlags(flags, config, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  config.load = flags.GetDouble("load");
  config.incast_fanin = static_cast<int>(flags.GetInt("incast-fanin"));
  config.incast_bytes = static_cast<uint64_t>(flags.GetInt("incast-bytes"));
  config.os_borders = static_cast<int>(flags.GetInt("os-borders"));
  config.mix_intra = flags.GetDouble("mix-intra");
  config.max_inflight_bytes = flags.GetInt("max-inflight-bytes");
  config.dci_loss_rate = flags.GetDouble("dci-loss-rate");
  config.dci_burst_len = flags.GetDouble("dci-burst-len");
  config.num_flows = static_cast<int>(flags.GetInt("flows"));
  config.hosts_per_dc = static_cast<int>(flags.GetInt("hosts-per-dc"));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.num_dcs = static_cast<int>(flags.GetInt("dcs"));
  config.topo_seed = static_cast<uint64_t>(flags.GetInt("topo-seed"));
  config.extra_chords = static_cast<int>(flags.GetInt("chords"));
  config.df_group_size = static_cast<int>(flags.GetInt("df-group-size"));
  config.df_global_links = static_cast<int>(flags.GetInt("df-global-links"));
  config.topo_file = flags.GetString("topo-file");
  config.fabric_leaves = static_cast<int>(flags.GetInt("fabric-leaves"));
  config.fabric_spines = static_cast<int>(flags.GetInt("fabric-spines"));
  config.path_layers = static_cast<int>(flags.GetInt("path-layers"));
  config.layer_drop_permille = static_cast<int>(flags.GetInt("layer-drop-permille"));
  config.lcmp.flow_cache_auto = flags.GetBool("flow-cache-auto");
  config.lcmp.alpha = static_cast<int>(flags.GetInt("alpha"));
  config.lcmp.beta = static_cast<int>(flags.GetInt("beta"));
  config.lcmp.w_dl = static_cast<int>(flags.GetInt("w-dl"));
  config.lcmp.w_lc = static_cast<int>(flags.GetInt("w-lc"));
  config.lcmp.w_ql = static_cast<int>(flags.GetInt("w-ql"));
  config.lcmp.w_tl = static_cast<int>(flags.GetInt("w-tl"));
  config.lcmp.w_dp = static_cast<int>(flags.GetInt("w-dp"));

  const ObsOptions obs_opts = ApplyObsFlags(flags);
  if (obs_opts.telemetry_period_ms > 0) {
    config.telemetry_period = Milliseconds(obs_opts.telemetry_period_ms);
  } else if (!obs_opts.metrics_out.empty() || !obs_opts.timeseries_out.empty() ||
             (obs_opts.trace && obs_opts.TraceOutIsJson())) {
    // Metrics/time-series/Perfetto-counter outputs without an explicit
    // cadence still deserve a time series. NOTE: the telemetry loop adds
    // control events and so changes the digest — obs-on/obs-off digest
    // comparisons must pin --telemetry-period-ms identically on both sides.
    config.telemetry_period = Milliseconds(10);
  }

  const FaultOptions fault_opts = GetFaultOptions(flags);
  const SweepOptions sweep_opts = GetSweepOptions(flags);
  config.monitor_invariants = fault_opts.monitor;

  if (!ValidateSweepObsOptions(sweep_opts, obs_opts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const ShardOptions shard_opts = GetShardOptions(flags);
  if (!ValidateShardOptions(shard_opts, sweep_opts, DefaultJobs(), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  config.shards = shard_opts.shards;

  if (sweep_opts.active()) {
    // An explicit plan file is resolved once against the base topology;
    // chaos flags are passed through as config fields (see RunSweepMode).
    if (!fault_opts.fault_plan_file.empty()) {
      FaultOptions plan_only = fault_opts;
      plan_only.chaos_seed = 0;
      if (!BuildFaultPlan(plan_only, BuildTopology(config), &config.fault_plan, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    }
    const int status =
        RunSweepMode(config, sweep_opts, fault_opts,
                     ResolveSweepJobs(sweep_opts, shard_opts, DefaultJobs()),
                     flags.GetString("csv-prefix"));
    FinalizeObs(obs_opts, 0);
    return status;
  }

  if (!ValidateExperimentConfig(config, &error) ||
      !BuildFaultPlan(fault_opts, BuildTopology(config), &config.fault_plan, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  const ExperimentResult result = RunExperiment(config);

  std::printf("topology=%s policy=%s workload=%s cc=%s load=%.2f seed=%llu\n",
              TopologyKindName(config.topo), PolicyKindName(config.policy),
              WorkloadKindName(config.workload), config.cc.Token().c_str(), config.load,
              static_cast<unsigned long long>(config.seed));
  std::printf("flows completed: %d/%d  (sim time %.3f s, %llu events)\n",
              result.flows_completed, result.flows_requested,
              static_cast<double>(result.sim_end_time) / kNsPerSec,
              static_cast<unsigned long long>(result.events_processed));
  // Machine-greppable determinism digest (same folding as sweep mode): CI's
  // obs-trace-smoke job compares this line across obs-on/obs-off runs.
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(ExperimentDigest(result)));

  if (!config.fault_plan.empty()) {
    std::printf("faults: %zu planned events, %lld injections, monitor %s (%lld checks, %lld "
                "violations)\n",
                config.fault_plan.size(), static_cast<long long>(result.faults_injected),
                config.monitor_invariants ? "on" : "off",
                static_cast<long long>(result.invariant_checks),
                static_cast<long long>(result.invariant_violations));
  }

  TablePrinter summary({"metric", "value"});
  summary.AddRow({"p50 slowdown", Fmt(result.overall.p50)});
  summary.AddRow({"p95 slowdown", Fmt(result.overall.p95)});
  summary.AddRow({"p99 slowdown", Fmt(result.overall.p99)});
  summary.AddRow({"mean slowdown", Fmt(result.overall.mean)});
  summary.AddRow({"retransmitted packets", std::to_string(result.retransmitted_packets)});
  if (config.dci_loss_rate > 0 || config.fec_k > 0) {
    summary.AddRow({"dci lost packets", std::to_string(result.dci_lost_packets)});
    summary.AddRow({"fec repair packets", std::to_string(result.fec_repair_packets)});
    summary.AddRow({"fec recovered", std::to_string(result.fec_recovered_packets)});
    summary.AddRow({"fec unrecovered", std::to_string(result.fec_unrecovered_packets)});
  }
  if (config.incast_fanin > 0) {
    summary.AddRow({"incast flows completed", std::to_string(result.incast_flows_completed)});
    summary.AddRow({"incast p50 slowdown", Fmt(result.incast.p50)});
    summary.AddRow({"incast p99 slowdown", Fmt(result.incast.p99)});
  }
  summary.Print();

  const std::string prefix = flags.GetString("csv-prefix");
  if (!prefix.empty()) {
    const bool ok = WriteFlowSamplesCsv(prefix + "_flows.csv", result) &&
                    WriteLinkUtilizationCsv(prefix + "_links.csv", result) &&
                    WriteBucketsCsv(prefix + "_buckets.csv", result);
    if (!ok) {
      return 1;
    }
    std::printf("wrote %s_{flows,links,buckets}.csv\n", prefix.c_str());
  }
  FinalizeObs(obs_opts, result.sim_end_time);
  if (result.flows_completed < result.flows_requested) {
    std::fprintf(stderr, "incomplete run: %d of %d flows unfinished\n",
                 result.flows_requested - result.flows_completed, result.flows_requested);
    return 1;
  }
  return 0;
}
