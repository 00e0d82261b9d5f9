// Minimal command-line flag parsing for the lcmp_sim CLI (no external
// dependencies). Flags look like --name=value or --name value; --help lists
// registered flags.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.h"

namespace lcmp {

class FlagSet {
 public:
  // Parses argv; returns false (and fills error()) on malformed input or an
  // unknown flag. Registered flags must be declared before Parse.
  bool Parse(int argc, const char* const* argv);

  // Declares a flag with a default and a help string; returns *this for
  // chaining.
  FlagSet& Define(const std::string& name, const std::string& default_value,
                  const std::string& help);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  // Formats the flag table for --help.
  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
  std::string error_;
};

// --- observability flags (shared by lcmp_sim and the example binaries) ---
//
// DefineObsFlags registers the --metrics-out / --trace-* / --profile family;
// ApplyObsFlags reads them, turns the matching obs subsystems on, and returns
// the parsed options; FinalizeObs writes the requested dumps at end of run.
struct ObsOptions {
  std::string metrics_out;       // "" = metrics disabled
  std::string trace_out;         // flight-recorder dump path (.json = Chrome trace)
  std::string timeseries_out;    // time-series telemetry CSV path
  int64_t trace_flow = -1;       // -1 = no flow filter
  int32_t trace_node = -1;       // -1 = no node filter
  int64_t trace_depth = 65536;   // ring capacity (records)
  bool trace = false;            // recorder on (implied by filters/trace-out)
  bool profile = false;          // per-event-type profiling on
  int64_t telemetry_period_ms = 0;  // 0 = no periodic metric snapshots

  // True when --trace-out names a .json file: FinalizeObs then writes the
  // Chrome-trace/Perfetto export (obs/trace_export.h) instead of the CSV dump.
  bool TraceOutIsJson() const;
};

void DefineObsFlags(FlagSet& flags);
ObsOptions ApplyObsFlags(const FlagSet& flags);
// Dumps metrics/trace/profile as requested; `now_ns` stamps the metrics file.
void FinalizeObs(const ObsOptions& opts, int64_t now_ns);

// --- sweep flags (the parallel sweep engine; src/harness/sweep.h) ---
//
// DefineSweepFlags registers --jobs / --sweep-* / --verify-sequential;
// GetSweepOptions reads them. Sweep mode activates when a spec file or
// inline axes are given; otherwise the CLI runs one experiment as before.
struct SweepOptions {
  int jobs = 0;                   // 0 = hardware concurrency
  std::string spec_file;          // --sweep-spec: JSON spec to load
  std::string spec_out;           // --sweep-spec-out: resolved spec round-trip
  std::string axes;               // --sweep-axes: "field=v1,v2;field2=..."
  std::string results_out;        // --sweep-out: sweep_results.json path
  bool verify_sequential = false; // re-run at jobs=1 and compare digests

  bool active() const { return !spec_file.empty() || !axes.empty(); }
};

void DefineSweepFlags(FlagSet& flags);
SweepOptions GetSweepOptions(const FlagSet& flags);

// Rejects flag combinations whose output would be silently wrong. Today that
// is --metrics-out with a parallel sweep: the metrics registry is
// process-global, so a sweep at --jobs>1 would merge every concurrent run's
// counters into one indistinguishable snapshot. Metrics in sweep mode are
// therefore only allowed at --jobs=1, where the dump is a well-defined
// sequential aggregate over all runs (documented in DESIGN.md §9). Returns
// false and fills `error` on a bad combination.
bool ValidateSweepObsOptions(const SweepOptions& sweep, const ObsOptions& obs,
                             std::string* error);

// --- shard flags (the conservative-PDES sharded core; DESIGN.md §12) ---
//
// DefineShardFlags registers --shards; GetShardOptions reads it;
// ValidateShardOptions enforces the thread budget; ResolveSweepJobs picks
// a sweep worker count that keeps jobs x shards inside the thread budget.
struct ShardOptions {
  int shards = 1;  // event-core partitions per run; 1 = the sequential core
};

void DefineShardFlags(FlagSet& flags);
ShardOptions GetShardOptions(const FlagSet& flags);

// Rejects shard counts the host cannot honor. Every other flag composes with
// --shards > 1: observability sinks are per-shard lanes merged
// deterministically by (sim-time, lineage key) at dump time (DESIGN.md §7).
//
// Thread budget: a run at --shards=S spawns S workers and a sweep at
// --jobs=J runs J experiments concurrently, so the process needs J*S (or S)
// threads. Explicit combinations over `thread_budget` (callers pass
// DefaultJobs(); parameterized for tests) are rejected; --jobs=0 in a sweep
// auto-sizes instead (ResolveSweepJobs) and always validates.
//
// Returns false and fills `error` on a bad combination (CLI exits 2).
bool ValidateShardOptions(const ShardOptions& shard, const SweepOptions& sweep,
                          int thread_budget, std::string* error);

// Effective sweep worker count under the thread budget: an explicit --jobs
// wins (ValidateShardOptions vetted the product); --jobs=0 resolves to
// max(1, thread_budget / shards) so auto-sized sweeps never oversubscribe
// when every run spawns its own shard workers.
int ResolveSweepJobs(const SweepOptions& sweep, const ShardOptions& shard, int thread_budget);

// --- fault-injection flags (src/fault/; shared by lcmp_sim and soak tools) ---
//
// DefineFaultFlags registers --fault-plan / --chaos-* / --monitor;
// GetFaultOptions reads them; BuildFaultPlan resolves them into a FaultPlan
// against the experiment's graph (an explicit plan file wins over chaos).
struct FaultOptions {
  std::string fault_plan_file;   // "" = no plan file
  uint64_t chaos_seed = 0;       // 0 = chaos generator off
  double chaos_rate = 20.0;      // fault episodes per simulated second
  int64_t chaos_window_ms = 300; // injection window length
  bool monitor = false;          // attach the InvariantMonitor (strict)
  std::string fault_plan_out;    // dump the resolved plan text here
};

void DefineFaultFlags(FlagSet& flags);
FaultOptions GetFaultOptions(const FlagSet& flags);
// Builds the plan from the options (file > chaos > empty) and, if requested,
// writes its resolved text to fault_plan_out. Returns false + `error` when
// the plan file is missing or malformed.
bool BuildFaultPlan(const FaultOptions& opts, const Graph& graph, FaultPlan* plan,
                    std::string* error);

}  // namespace lcmp
