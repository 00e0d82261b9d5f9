#include "validate/golden.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/json_util.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "topo/gen/topo_stats.h"

namespace lcmp {
namespace validate {
namespace {

// Every scenario keeps the flow count small enough that the full corpus runs
// in a few seconds; the digest folds every per-flow sample, so even these
// short runs pin the behavior of the whole stack.
constexpr char kBaseline[] = "flows=120 hosts_per_dc=2 seed=11";

std::string HexDigest(uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace

const std::vector<GoldenScenario>& GoldenScenarios() {
  static const std::vector<GoldenScenario>* scenarios = new std::vector<GoldenScenario>{
      // Every policy on the Fig. 1a asymmetric testbed.
      {"testbed8-ecmp", std::string(kBaseline) + " policy=ecmp"},
      {"testbed8-wcmp", std::string(kBaseline) + " policy=wcmp"},
      {"testbed8-ucmp", std::string(kBaseline) + " policy=ucmp"},
      {"testbed8-redte", std::string(kBaseline) + " policy=redte"},
      {"testbed8-lcmp", std::string(kBaseline) + " policy=lcmp"},
      // The sparse Europe-like backbone (Fig. 4b).
      {"bso13-ecmp", std::string(kBaseline) + " topo=bso13 policy=ecmp"},
      {"bso13-lcmp", std::string(kBaseline) + " topo=bso13 policy=lcmp"},
      // Herd-effect micro-benchmark: symmetric routes, synchronized burst.
      {"testbed8sym-lcmp-burst", std::string(kBaseline) +
                                     " topo=testbed8-sym policy=lcmp pairing=endpoints-oneway"
                                     " burst=true burst_size_bytes=2000000 flows=48"},
      // Fault injection: seeded chaos dense enough to hit in-use routes
      // inside the short run, with and without LCMP, monitor attached.
      {"testbed8-lcmp-chaos",
       std::string(kBaseline) + " policy=lcmp chaos_seed=7 chaos_rate=150 chaos_window_ms=50"
                                " monitor=true monitor_strict=false"},
      {"testbed8-ecmp-chaos",
       std::string(kBaseline) + " policy=ecmp chaos_seed=7 chaos_rate=150 chaos_window_ms=50"},
      // Substrate / transport extensions, at a load high enough that the
      // congestion-control and OoO machinery actually engages.
      {"testbed8-lcmp-pfc", std::string(kBaseline) + " policy=lcmp pfc=true workload=fbhdp"},
      {"testbed8-lcmp-ooo-hpcc",
       std::string(kBaseline) + " policy=lcmp reliability=irn cc=hpcc load=0.8"},
      {"testbed8-lcmp-timely-ali",
       std::string(kBaseline) + " policy=lcmp cc=timely workload=alistorage load=0.5"},
      // Segment-split CC + windowed sender (DESIGN.md §14): the incast /
      // oversubscription family with the LCP long-haul stack, and a plain
      // split run without incast. Both pin the gateway-stamp RTT demux, the
      // SegmentedCc min-rate composition and the in-flight window.
      {"testbed8-incast-split",
       std::string(kBaseline) +
           " policy=lcmp cc=lcp/dcqcn incast_fanin=8 incast_bytes=8388608"
           " os_borders=4 mix_intra=0.25 max_inflight_bytes=4194304"},
      {"testbed8-lcmp-split-windowed",
       std::string(kBaseline) + " policy=lcmp cc=lcp/dcqcn max_inflight_bytes=2097152 load=0.5"},
      // Lossy DCI tier (DESIGN.md §15): IRN selective retransmit on a clean
      // wire (digest must match gbn when nothing is lost or reordered), the
      // Gilbert-Elliott loss model under both reliability modes, and the
      // gateway FEC shim reconstructing across the loss.
      {"testbed8-lcmp-irn", std::string(kBaseline) + " policy=lcmp reliability=irn"},
      {"testbed8-lossy-gbn",
       std::string(kBaseline) +
           " policy=lcmp dci_loss_rate=0.001 dci_burst_len=4 max_inflight_bytes=4194304"},
      {"testbed8-lossy-irn",
       std::string(kBaseline) + " policy=lcmp reliability=irn dci_loss_rate=0.001"
                                " dci_burst_len=4 max_inflight_bytes=4194304"},
      {"testbed8-lossy-fec",
       std::string(kBaseline) + " policy=lcmp reliability=irn dci_loss_rate=0.001 fec=8:2"
                                " max_inflight_bytes=4194304"},
  };
  return *scenarios;
}

bool BuildGoldenConfig(const GoldenScenario& scenario, ExperimentConfig* config,
                       std::string* error) {
  *config = ExperimentConfig{};
  return ApplyConfigField(config, "overrides", scenario.overrides, error);
}

std::string ConfigEcho(const ExperimentConfig& config) {
  const ExperimentConfig defaults;
  std::string out;
  for (const std::string& field : KnownConfigFields()) {
    std::string cur;
    std::string def;
    if (!GetConfigField(config, field, &cur) || !GetConfigField(defaults, field, &def) ||
        cur == def) {
      continue;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += field + '=' + cur;
  }
  return out;
}

GoldenRecord ComputeGoldenRecord(const GoldenScenario& scenario, int shards) {
  ExperimentConfig config;
  std::string error;
  GoldenRecord record;
  record.name = scenario.name;
  if (!BuildGoldenConfig(scenario, &config, &error)) {
    record.config_echo = "INVALID SCENARIO: " + error;
    return record;
  }
  config.shards = shards;
  const ExperimentResult result = RunExperiment(config);
  record.digest = ExperimentDigest(result);
  record.events_processed = result.events_processed;
  record.flows_completed = result.flows_completed;
  record.sim_end_ns = result.sim_end_time;
  record.config_echo = ConfigEcho(config);
  record.p50_slowdown = result.overall.p50;
  record.p99_slowdown = result.overall.p99;
  return record;
}

std::string GoldenRecordToJson(const GoldenRecord& record) {
  using json::FormatDouble;
  using json::JsonEscape;
  std::string out = "{\n";
  out += "  \"name\": \"" + JsonEscape(record.name) + "\",\n";
  out += "  \"digest\": \"" + HexDigest(record.digest) + "\",\n";
  out += "  \"events_processed\": " + std::to_string(record.events_processed) + ",\n";
  out += "  \"flows_completed\": " + std::to_string(record.flows_completed) + ",\n";
  out += "  \"sim_end_ns\": " + std::to_string(record.sim_end_ns) + ",\n";
  out += "  \"config\": \"" + JsonEscape(record.config_echo) + "\",\n";
  out += "  \"p50_slowdown\": " + FormatDouble(record.p50_slowdown) + ",\n";
  out += "  \"p99_slowdown\": " + FormatDouble(record.p99_slowdown) + "\n";
  out += "}\n";
  return out;
}

bool ParseGoldenRecord(const std::string& text, GoldenRecord* record, std::string* error) {
  json::JsonValue root;
  if (!json::ParseJson(text, &root, error)) {
    return false;
  }
  if (root.kind != json::JsonValue::Kind::kObject) {
    *error = "golden record is not a JSON object";
    return false;
  }
  auto scalar = [&](const char* key, std::string* out) {
    const json::JsonValue* v = root.Find(key);
    if (v == nullptr || !v->AsString(out)) {
      *error = std::string("golden record missing field '") + key + "'";
      return false;
    }
    return true;
  };
  std::string digest_hex;
  std::string events;
  std::string flows;
  std::string sim_end;
  if (!scalar("name", &record->name) || !scalar("digest", &digest_hex) ||
      !scalar("events_processed", &events) || !scalar("flows_completed", &flows) ||
      !scalar("sim_end_ns", &sim_end) || !scalar("config", &record->config_echo)) {
    return false;
  }
  record->digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
  record->events_processed = std::strtoull(events.c_str(), nullptr, 10);
  record->flows_completed = std::strtoll(flows.c_str(), nullptr, 10);
  record->sim_end_ns = std::strtoll(sim_end.c_str(), nullptr, 10);
  std::string p;
  if (scalar("p50_slowdown", &p)) {
    record->p50_slowdown = std::strtod(p.c_str(), nullptr);
  }
  if (scalar("p99_slowdown", &p)) {
    record->p99_slowdown = std::strtod(p.c_str(), nullptr);
  }
  *error = {};
  return true;
}

bool LoadGoldenRecord(const std::string& path, GoldenRecord* record, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open golden record '" + path + "'";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseGoldenRecord(ss.str(), record, error);
}

bool SaveGoldenRecord(const std::string& path, const GoldenRecord& record, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write golden record '" + path + "'";
    return false;
  }
  out << GoldenRecordToJson(record);
  if (!out) {
    *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

GoldenDiff CompareGolden(const GoldenRecord& pinned, const GoldenRecord& current) {
  GoldenDiff diff;
  std::string detail;
  auto mismatch = [&](const std::string& what, const std::string& want,
                      const std::string& got) {
    if (!detail.empty()) {
      detail += "; ";
    }
    detail += what + ": pinned " + want + ", current " + got;
  };
  if (pinned.digest != current.digest) {
    mismatch("digest", HexDigest(pinned.digest), HexDigest(current.digest));
  }
  if (pinned.events_processed != current.events_processed) {
    mismatch("events_processed", std::to_string(pinned.events_processed),
             std::to_string(current.events_processed));
  }
  if (pinned.flows_completed != current.flows_completed) {
    mismatch("flows_completed", std::to_string(pinned.flows_completed),
             std::to_string(current.flows_completed));
  }
  if (pinned.sim_end_ns != current.sim_end_ns) {
    mismatch("sim_end_ns", std::to_string(pinned.sim_end_ns),
             std::to_string(current.sim_end_ns));
  }
  if (pinned.config_echo != current.config_echo) {
    mismatch("config", "'" + pinned.config_echo + "'", "'" + current.config_echo + "'");
  }
  diff.match = detail.empty();
  diff.detail = std::move(detail);
  return diff;
}

const std::vector<TopoFamilyScenario>& TopoFamilyScenarios() {
  // Sizes are small enough to build in milliseconds but large enough that a
  // generator change cannot hide (partial dragonfly group, rounded-up MMS
  // and Clos sizes, chorded random ring).
  static const std::vector<TopoFamilyScenario>* scenarios =
      new std::vector<TopoFamilyScenario>{
          {"dragonfly", "topo=dragonfly dcs=32 topo_seed=7 hosts_per_dc=2"},
          {"slimfly", "topo=slimfly dcs=50 topo_seed=7 hosts_per_dc=2"},
          {"fattree", "topo=fattree dcs=20 topo_seed=7 hosts_per_dc=2"},
          {"random", "topo=random dcs=16 chords=8 topo_seed=7 hosts_per_dc=2"},
      };
  return *scenarios;
}

bool ComputeTopoFamilyDigest(const TopoFamilyScenario& scenario, uint64_t* digest,
                             std::string* error) {
  ExperimentConfig config;
  if (!ApplyConfigField(&config, "overrides", scenario.overrides, error)) {
    return false;
  }
  *digest = StructuralDigest(BuildTopology(config));
  return true;
}

std::string TopoFamilyGoldenPath(const std::string& dir) {
  return dir + "/topo_families.json";
}

bool LoadTopoFamilyRecords(const std::string& path, std::vector<TopoFamilyRecord>* out,
                           std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open topo-family corpus '" + path + "'";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  json::JsonValue root;
  if (!json::ParseJson(ss.str(), &root, error)) {
    return false;
  }
  const json::JsonValue* families = root.Find("families");
  if (families == nullptr || families->kind != json::JsonValue::Kind::kArray) {
    *error = "topo-family corpus has no 'families' array";
    return false;
  }
  out->clear();
  for (const json::JsonValue& item : families->items) {
    TopoFamilyRecord rec;
    std::string digest_hex;
    const json::JsonValue* name = item.Find("name");
    const json::JsonValue* digest = item.Find("digest");
    const json::JsonValue* config = item.Find("config");
    if (name == nullptr || !name->AsString(&rec.name) || digest == nullptr ||
        !digest->AsString(&digest_hex) || config == nullptr ||
        !config->AsString(&rec.config_echo)) {
      *error = "malformed topo-family record in '" + path + "'";
      return false;
    }
    rec.digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
    out->push_back(std::move(rec));
  }
  return true;
}

bool SaveTopoFamilyRecords(const std::string& path,
                           const std::vector<TopoFamilyRecord>& records, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write topo-family corpus '" + path + "'";
    return false;
  }
  out << "{\n  \"families\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out << "    {\"name\": \"" << json::JsonEscape(records[i].name) << "\", \"digest\": \""
        << HexDigest(records[i].digest) << "\", \"config\": \""
        << json::JsonEscape(records[i].config_echo) << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out) {
    *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

std::string GoldenDir() {
  const char* env = std::getenv("LCMP_GOLDEN_DIR");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef LCMP_GOLDEN_DIR
  return LCMP_GOLDEN_DIR;
#else
  return "tests/golden";
#endif
}

std::string GoldenPath(const std::string& dir, const std::string& scenario_name) {
  return dir + "/" + scenario_name + ".json";
}

}  // namespace validate
}  // namespace lcmp
