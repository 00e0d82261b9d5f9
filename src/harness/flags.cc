#include "harness/flags.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace lcmp {

FlagSet& FlagSet::Define(const std::string& name, const std::string& default_value,
                         const std::string& help) {
  if (flags_.find(name) == flags_.end()) {
    order_.push_back(name);
  }
  flags_[name] = Flag{default_value, default_value, help};
  return *this;
}

bool FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it != flags_.end() && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag: --" + name;
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string FlagSet::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? std::string() : it->second.value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  return std::strtoll(GetString(name).c_str(), nullptr, 10);
}

double FlagSet::GetDouble(const std::string& name) const {
  return std::strtod(GetString(name).c_str(), nullptr);
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string FlagSet::Usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n\nflags:\n";
  for (const std::string& name : order_) {
    const Flag& f = flags_.at(name);
    out += "  --" + name + " (default: " + f.default_value + ")\n      " + f.help + "\n";
  }
  return out;
}

void DefineObsFlags(FlagSet& flags) {
  flags.Define("metrics-out", "", "write the metrics registry as JSON (.csv for CSV) on exit")
      .Define("trace", "false", "enable the packet flight recorder (no filters = all events)")
      .Define("trace-flow", "-1", "flight recorder: record this flow id (enables tracing)")
      .Define("trace-node", "-1", "flight recorder: record this node id (enables tracing)")
      .Define("trace-out", "trace.csv",
              "flight recorder dump path (written when tracing); a .json path "
              "writes a Chrome-trace/Perfetto export instead of CSV")
      .Define("trace-depth", "65536", "flight recorder ring capacity in records")
      .Define("timeseries-out", "",
              "write the time-series telemetry rings (link util, queue depth, CC "
              "rate) as CSV on exit; sampled on the --telemetry-period-ms sweep")
      .Define("profile", "false", "per-event-type wall-time profile, reported on exit")
      .Define("telemetry-period-ms", "0",
              "control-plane telemetry + metric snapshot cadence; 0 disables the loop");
}

bool ObsOptions::TraceOutIsJson() const {
  const std::string suffix = ".json";
  return trace_out.size() >= suffix.size() &&
         trace_out.compare(trace_out.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ObsOptions ApplyObsFlags(const FlagSet& flags) {
  ObsOptions opts;
  opts.metrics_out = flags.GetString("metrics-out");
  opts.trace_out = flags.GetString("trace-out");
  opts.timeseries_out = flags.GetString("timeseries-out");
  opts.trace_flow = flags.GetInt("trace-flow");
  opts.trace_node = static_cast<int32_t>(flags.GetInt("trace-node"));
  opts.trace_depth = flags.GetInt("trace-depth");
  opts.trace = flags.GetBool("trace") || opts.trace_flow >= 0 || opts.trace_node >= 0;
  opts.profile = flags.GetBool("profile");
  opts.telemetry_period_ms = flags.GetInt("telemetry-period-ms");

  if (!opts.metrics_out.empty()) {
    obs::SetMetricsEnabled(true);
  }
  if (opts.trace) {
    obs::FlightRecorder& rec = obs::FlightRecorder::Instance();
    if (opts.trace_depth > 0) {
      rec.Configure(static_cast<size_t>(opts.trace_depth));
    }
    rec.SetFilters(opts.trace_flow, opts.trace_node);
    rec.Enable(true);
  }
  // Time-series telemetry feeds the --timeseries-out CSV and the counter
  // tracks of a Chrome-trace export; both need the hub sampling. The CC-rate
  // series reads a metrics gauge, so metrics come on too.
  if (!opts.timeseries_out.empty() || (opts.trace && opts.TraceOutIsJson())) {
    obs::TimeSeriesHub::Instance().SetEnabled(true);
    obs::SetMetricsEnabled(true);
  }
  // --metrics-out implies a profile: attributing wall time by event type is
  // part of the same "what did this run spend its time on" story.
  if (opts.profile || !opts.metrics_out.empty()) {
    obs::SetProfileEnabled(true);
  }
  return opts;
}

void FinalizeObs(const ObsOptions& opts, int64_t now_ns) {
  if (!opts.metrics_out.empty()) {
    if (obs::MetricsRegistry::Instance().WriteFile(opts.metrics_out, now_ns)) {
      std::printf("wrote metrics to %s\n", opts.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n", opts.metrics_out.c_str());
    }
  }
  if (opts.trace && !opts.trace_out.empty()) {
    obs::FlightRecorder& rec = obs::FlightRecorder::Instance();
    if (opts.TraceOutIsJson()) {
      if (obs::WriteChromeTrace(opts.trace_out, now_ns)) {
        std::printf("wrote Chrome trace (%llu recorded, %zu in ring) to %s\n",
                    static_cast<unsigned long long>(rec.total_recorded()), rec.size(),
                    opts.trace_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write Chrome trace to %s\n", opts.trace_out.c_str());
      }
    } else if (rec.DumpToFile(opts.trace_out)) {
      std::printf("wrote %llu trace records (%zu in ring) to %s\n",
                  static_cast<unsigned long long>(rec.total_recorded()), rec.size(),
                  opts.trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", opts.trace_out.c_str());
    }
  }
  if (!opts.timeseries_out.empty()) {
    if (obs::TimeSeriesHub::Instance().WriteCsv(opts.timeseries_out)) {
      std::printf("wrote %zu time series to %s\n", obs::TimeSeriesHub::Instance().num_series(),
                  opts.timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write time series to %s\n", opts.timeseries_out.c_str());
    }
  }
  if (obs::ProfileEnabled()) {
    std::printf("%s", obs::ProfileReport().c_str());
  }
}

void DefineSweepFlags(FlagSet& flags) {
  flags
      .Define("jobs", "0",
              "parallel sweep worker threads; 0 = hardware concurrency, 1 = sequential")
      .Define("sweep-spec", "", "JSON sweep spec file (enables sweep mode)")
      .Define("sweep-axes", "",
              "inline sweep axes 'field=v1,v2;field2=...' (enables sweep mode)")
      .Define("sweep-spec-out", "", "write the resolved sweep spec JSON to this path")
      .Define("sweep-out", "", "write machine-readable sweep results JSON to this path")
      .Define("verify-sequential", "false",
              "re-run the sweep at --jobs=1 and fail on any digest mismatch");
}

SweepOptions GetSweepOptions(const FlagSet& flags) {
  SweepOptions opts;
  opts.jobs = static_cast<int>(flags.GetInt("jobs"));
  opts.spec_file = flags.GetString("sweep-spec");
  opts.spec_out = flags.GetString("sweep-spec-out");
  opts.axes = flags.GetString("sweep-axes");
  opts.results_out = flags.GetString("sweep-out");
  opts.verify_sequential = flags.GetBool("verify-sequential");
  return opts;
}

bool ValidateSweepObsOptions(const SweepOptions& sweep, const ObsOptions& obs,
                             std::string* error) {
  if (!sweep.active() || obs.metrics_out.empty()) {
    return true;
  }
  // jobs == 0 means DefaultJobs(), which is > 1 on any multicore machine —
  // only an explicit --jobs=1 makes the merged snapshot well-defined.
  if (sweep.jobs != 1) {
    if (error != nullptr) {
      *error =
          "--metrics-out with a parallel sweep (--jobs != 1) would merge all "
          "concurrent runs into one process-global metrics snapshot; re-run "
          "with --jobs=1 for a sequential aggregate, or drop --metrics-out";
    }
    return false;
  }
  return true;
}

void DefineShardFlags(FlagSet& flags) {
  flags.Define("shards", "1",
               "partition the event core into N DC-group shards (conservative PDES, "
               "bit-identical results; see DESIGN.md); 1 = sequential core");
}

ShardOptions GetShardOptions(const FlagSet& flags) {
  ShardOptions opts;
  opts.shards = static_cast<int>(flags.GetInt("shards"));
  return opts;
}

bool ValidateShardOptions(const ShardOptions& shard, const SweepOptions& sweep,
                          int thread_budget, std::string* error) {
  if (shard.shards < 1) {
    if (error != nullptr) {
      *error = "--shards must be >= 1";
    }
    return false;
  }
  if (shard.shards == 1) {
    return true;
  }
  // Thread budget: every concurrent experiment spawns `shards` workers, so
  // even one run (or an auto-sized sweep, which caps jobs but not shards)
  // needs the shard count alone to fit.
  const int runs = sweep.active() && sweep.jobs > 0 ? sweep.jobs : 1;
  if (runs * shard.shards > thread_budget) {
    if (error != nullptr) {
      char buf[256];
      // --jobs=0 auto-sizing only helps when the shard count itself fits.
      const bool autosize_helps = sweep.active() && shard.shards <= thread_budget;
      std::snprintf(buf, sizeof(buf),
                    "oversubscribed: %d concurrent run%s x %d shard workers = %d threads, but "
                    "hardware concurrency is %d; lower %s",
                    runs, runs == 1 ? "" : "s", shard.shards, runs * shard.shards, thread_budget,
                    autosize_helps
                        ? "--jobs or --shards (or --jobs=0 to auto-size under the budget)"
                        : "--shards");
      *error = buf;
    }
    return false;
  }
  return true;
}

int ResolveSweepJobs(const SweepOptions& sweep, const ShardOptions& shard, int thread_budget) {
  if (sweep.jobs > 0) {
    return sweep.jobs;
  }
  const int shards = shard.shards < 1 ? 1 : shard.shards;
  const int jobs = thread_budget / shards;
  return jobs < 1 ? 1 : jobs;
}

void DefineFaultFlags(FlagSet& flags) {
  flags
      .Define("fault-plan", "",
              "fault plan file to inject (see src/fault/fault_plan.h for the format)")
      .Define("chaos-seed", "0",
              "seed for the chaos fault generator; 0 disables (ignored with --fault-plan)")
      .Define("chaos-rate", "20", "chaos generator: average fault episodes per simulated second")
      .Define("chaos-window-ms", "300", "chaos generator: injection window length in ms")
      .Define("monitor", "false",
              "run the fault-invariant monitor (fails fast on any violation)")
      .Define("fault-plan-out", "", "write the resolved fault plan text to this path");
}

FaultOptions GetFaultOptions(const FlagSet& flags) {
  FaultOptions opts;
  opts.fault_plan_file = flags.GetString("fault-plan");
  opts.chaos_seed = static_cast<uint64_t>(flags.GetInt("chaos-seed"));
  opts.chaos_rate = flags.GetDouble("chaos-rate");
  opts.chaos_window_ms = flags.GetInt("chaos-window-ms");
  opts.monitor = flags.GetBool("monitor");
  opts.fault_plan_out = flags.GetString("fault-plan-out");
  return opts;
}

bool BuildFaultPlan(const FaultOptions& opts, const Graph& graph, FaultPlan* plan,
                    std::string* error) {
  plan->events.clear();
  if (!opts.fault_plan_file.empty()) {
    if (!LoadFaultPlanFile(opts.fault_plan_file, graph, plan, error)) {
      return false;
    }
  } else if (opts.chaos_seed != 0) {
    ChaosOptions chaos;
    chaos.seed = opts.chaos_seed;
    chaos.faults_per_sec = opts.chaos_rate;
    chaos.window = Milliseconds(opts.chaos_window_ms);
    *plan = GenerateChaosPlan(graph, chaos);
  }
  if (!opts.fault_plan_out.empty()) {
    std::ofstream out(opts.fault_plan_out);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot write fault plan to " + opts.fault_plan_out;
      }
      return false;
    }
    out << plan->ToString();
  }
  return true;
}

}  // namespace lcmp
