#include "harness/sweep.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "harness/json_util.h"
#include "transport/cc/cc_registry.h"
#include "workload/flow_cdf.h"

namespace lcmp {
namespace {

using json::FormatDouble;
using json::JsonEscape;
using json::JsonValue;

// ---- scalar codecs ----

bool ParseI64Val(const char* field, const std::string& text, int64_t* out, std::string* error) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    if (error != nullptr) {
      *error = std::string("field '") + field + "': expected integer, got '" + text + "'";
    }
    return false;
  }
  *out = v;
  return true;
}

bool ParseIntVal(const char* field, const std::string& text, int* out, std::string* error) {
  int64_t v = 0;
  if (!ParseI64Val(field, text, &v, error)) {
    return false;
  }
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    if (error != nullptr) {
      *error = std::string("field '") + field + "': value " + text + " out of int range";
    }
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64Val(const char* field, const std::string& text, uint64_t* out, std::string* error) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end != text.c_str() + text.size() || errno == ERANGE) {
    if (error != nullptr) {
      *error = std::string("field '") + field + "': expected unsigned integer, got '" + text + "'";
    }
    return false;
  }
  *out = v;
  return true;
}

bool ParseDoubleVal(const char* field, const std::string& text, double* out, std::string* error) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    if (error != nullptr) {
      *error = std::string("field '") + field + "': expected number, got '" + text + "'";
    }
    return false;
  }
  *out = v;
  return true;
}

bool ParseBoolVal(const char* field, const std::string& text, bool* out, std::string* error) {
  if (text == "true" || text == "1" || text == "on" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  if (error != nullptr) {
    *error = std::string("field '") + field + "': expected true|false, got '" + text + "'";
  }
  return false;
}

// ---- field registry ----

struct FieldEntry {
  const char* name;
  bool (*apply)(ExperimentConfig*, const std::string&, std::string*);
  // Null for write-only fields (the per-segment cc selectors): they never
  // appear in config echoes or serialized specs — their state is already
  // carried by the composite "cc" field.
  std::string (*get)(const ExperimentConfig&);
};

// REF is a member chain off ExperimentConfig (e.g. `load` or `lcmp.alpha`).
#define LCMP_FIELD_INT(NAME, REF)                                    \
  {NAME,                                                             \
   [](ExperimentConfig* c, const std::string& v, std::string* e) {   \
     return ParseIntVal(NAME, v, &(c->REF), e);                      \
   },                                                                \
   [](const ExperimentConfig& c) { return std::to_string(c.REF); }}

#define LCMP_FIELD_I64(NAME, REF)                                    \
  {NAME,                                                             \
   [](ExperimentConfig* c, const std::string& v, std::string* e) {   \
     return ParseI64Val(NAME, v, &(c->REF), e);                      \
   },                                                                \
   [](const ExperimentConfig& c) { return std::to_string(c.REF); }}

#define LCMP_FIELD_U64(NAME, REF)                                    \
  {NAME,                                                             \
   [](ExperimentConfig* c, const std::string& v, std::string* e) {   \
     return ParseU64Val(NAME, v, &(c->REF), e);                      \
   },                                                                \
   [](const ExperimentConfig& c) { return std::to_string(c.REF); }}

#define LCMP_FIELD_DOUBLE(NAME, REF)                                 \
  {NAME,                                                             \
   [](ExperimentConfig* c, const std::string& v, std::string* e) {   \
     return ParseDoubleVal(NAME, v, &(c->REF), e);                   \
   },                                                                \
   [](const ExperimentConfig& c) { return FormatDouble(c.REF); }}

#define LCMP_FIELD_BOOL(NAME, REF)                                   \
  {NAME,                                                             \
   [](ExperimentConfig* c, const std::string& v, std::string* e) {   \
     return ParseBoolVal(NAME, v, &(c->REF), e);                     \
   },                                                                \
   [](const ExperimentConfig& c) {                                   \
     return std::string(c.REF ? "true" : "false");                   \
   }}

// Time fields are exposed in a human unit (the NAME's _ms/_us suffix) and
// stored as TimeNs; sub-unit precision is not representable by design.
#define LCMP_FIELD_TIME(NAME, REF, UNIT_NS)                          \
  {NAME,                                                             \
   [](ExperimentConfig* c, const std::string& v, std::string* e) {   \
     int64_t units = 0;                                              \
     if (!ParseI64Val(NAME, v, &units, e)) {                         \
       return false;                                                 \
     }                                                               \
     c->REF = units * (UNIT_NS);                                     \
     return true;                                                    \
   },                                                                \
   [](const ExperimentConfig& c) {                                   \
     return std::to_string(c.REF / (UNIT_NS));                       \
   }}

const std::vector<FieldEntry>& FieldTable() {
  static const std::vector<FieldEntry>* table = new std::vector<FieldEntry>{
      // Experiment shape.
      {"topo",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParseTopologyKind(v, &c->topo, e);
       },
       [](const ExperimentConfig& c) { return std::string(TopologyKindToken(c.topo)); }},
      {"pairing",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParsePairingKind(v, &c->pairing, e);
       },
       [](const ExperimentConfig& c) { return std::string(PairingKindToken(c.pairing)); }},
      {"policy",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParsePolicyKind(v, &c->policy, e);
       },
       [](const ExperimentConfig& c) { return std::string(PolicyKindToken(c.policy)); }},
      // "cc" carries the whole SegmentCcSpec: a bare token ("dcqcn") sets
      // both segments — so uniform specs echo exactly what the legacy enum
      // field echoed — while "lcp/dcqcn" splits inter/intra.
      {"cc",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return SegmentCcSpec::Parse(v, &c->cc, e);
       },
       [](const ExperimentConfig& c) { return c.cc.Token(); }},
      {"cc.inter",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParseCcToken(v, &c->cc.inter, e);
       },
       nullptr},
      {"cc.intra",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParseCcToken(v, &c->cc.intra, e);
       },
       nullptr},
      {"workload",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParseWorkloadKind(v, &c->workload, e);
       },
       [](const ExperimentConfig& c) { return std::string(WorkloadKindToken(c.workload)); }},
      LCMP_FIELD_DOUBLE("load", load),
      LCMP_FIELD_INT("flows", num_flows),
      LCMP_FIELD_U64("seed", seed),
      LCMP_FIELD_INT("hosts_per_dc", hosts_per_dc),
      // Generated/imported topologies (topo/gen/).
      LCMP_FIELD_INT("dcs", num_dcs),
      LCMP_FIELD_U64("topo_seed", topo_seed),
      LCMP_FIELD_INT("chords", extra_chords),
      LCMP_FIELD_INT("df_group_size", df_group_size),
      LCMP_FIELD_INT("df_global_links", df_global_links),
      {"topo_file",
       [](ExperimentConfig* c, const std::string& v, std::string*) {
         c->topo_file = v;
         return true;
       },
       [](const ExperimentConfig& c) { return c.topo_file; }},
      {"fabric",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParseFabricKind(v, &c->fabric, e);
       },
       [](const ExperimentConfig& c) { return std::string(FabricKindToken(c.fabric)); }},
      LCMP_FIELD_INT("fabric_leaves", fabric_leaves),
      LCMP_FIELD_INT("fabric_spines", fabric_spines),
      {"paths",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParsePathStrategyKind(v, &c->path_strategy, e);
       },
       [](const ExperimentConfig& c) {
         return std::string(PathStrategyKindToken(c.path_strategy));
       }},
      LCMP_FIELD_INT("path_layers", path_layers),
      LCMP_FIELD_INT("layer_drop_permille", layer_drop_permille),
      LCMP_FIELD_TIME("horizon_ms", horizon, 1'000'000),
      LCMP_FIELD_TIME("telemetry_us", telemetry_period, 1'000),
      // Faults / invariants.
      LCMP_FIELD_BOOL("monitor", monitor_invariants),
      LCMP_FIELD_BOOL("monitor_strict", monitor_strict),
      LCMP_FIELD_U64("chaos_seed", chaos_seed),
      LCMP_FIELD_DOUBLE("chaos_rate", chaos_rate),
      LCMP_FIELD_I64("chaos_window_ms", chaos_window_ms),
      // Transport / substrate.
      {"reliability",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         return ParseReliabilityMode(v, &c->reliability, e);
       },
       [](const ExperimentConfig& c) { return std::string(ReliabilityModeToken(c.reliability)); }},
      // Lossy long-haul tier (DESIGN.md §15).
      LCMP_FIELD_DOUBLE("dci_loss_rate", dci_loss_rate),
      LCMP_FIELD_DOUBLE("dci_burst_len", dci_burst_len),
      LCMP_FIELD_INT("fec_k", fec_k),
      LCMP_FIELD_INT("fec_m", fec_m),
      // Composite FEC spec "k:m" (or "off"); echoes alongside fec_k/fec_m
      // (re-applying both is idempotent).
      {"fec",
       [](ExperimentConfig* c, const std::string& v, std::string* e) {
         if (v == "off" || v == "0") {
           c->fec_k = 0;
           c->fec_m = 0;
           return true;
         }
         const size_t colon = v.find(':');
         int k = 0;
         int m = 0;
         if (colon == std::string::npos || !ParseIntVal("fec", v.substr(0, colon), &k, e) ||
             !ParseIntVal("fec", v.substr(colon + 1), &m, e) || k <= 0 || m <= 0) {
           if (e != nullptr && e->empty()) {
             *e = "fec expects k:m (positive integers) or off";
           }
           return false;
         }
         c->fec_k = k;
         c->fec_m = m;
         return true;
       },
       [](const ExperimentConfig& c) {
         return c.fec_k > 0 ? std::to_string(c.fec_k) + ":" + std::to_string(c.fec_m)
                            : std::string("off");
       }},
      LCMP_FIELD_BOOL("pfc", pfc_enabled),
      LCMP_FIELD_I64("pfc_xoff_bytes", pfc_xoff_bytes),
      LCMP_FIELD_I64("pfc_xon_bytes", pfc_xon_bytes),
      LCMP_FIELD_BOOL("burst", burst_mode),
      LCMP_FIELD_U64("burst_size_bytes", burst_size_bytes),
      // Incast / oversubscription scenario family (DESIGN.md §14).
      LCMP_FIELD_INT("incast_fanin", incast_fanin),
      LCMP_FIELD_U64("incast_bytes", incast_bytes),
      LCMP_FIELD_INT("os_borders", os_borders),
      LCMP_FIELD_DOUBLE("mix_intra", mix_intra),
      LCMP_FIELD_I64("max_inflight_bytes", max_inflight_bytes),
      // Per-segment CC tuning (defaults match each algorithm's paper values,
      // so an unset field changes nothing).
      LCMP_FIELD_DOUBLE("cc.inter.lcp.gain", cc_inter.lcp.gain),
      LCMP_FIELD_TIME("cc.inter.lcp.headroom_us", cc_inter.lcp.headroom, 1'000),
      LCMP_FIELD_I64("cc.inter.lcp.ai_bps", cc_inter.lcp.ai_bps),
      LCMP_FIELD_DOUBLE("cc.inter.dcqcn.g", cc_inter.dcqcn.g),
      LCMP_FIELD_I64("cc.inter.dcqcn.rai_bps", cc_inter.dcqcn.rai_bps),
      LCMP_FIELD_DOUBLE("cc.inter.dctcp.g", cc_inter.dctcp.g),
      LCMP_FIELD_DOUBLE("cc.inter.timely.beta", cc_inter.timely.beta),
      LCMP_FIELD_DOUBLE("cc.inter.hpcc.eta", cc_inter.hpcc.eta),
      LCMP_FIELD_DOUBLE("cc.intra.lcp.gain", cc_intra.lcp.gain),
      LCMP_FIELD_TIME("cc.intra.lcp.headroom_us", cc_intra.lcp.headroom, 1'000),
      LCMP_FIELD_I64("cc.intra.lcp.ai_bps", cc_intra.lcp.ai_bps),
      LCMP_FIELD_DOUBLE("cc.intra.dcqcn.g", cc_intra.dcqcn.g),
      LCMP_FIELD_I64("cc.intra.dcqcn.rai_bps", cc_intra.dcqcn.rai_bps),
      LCMP_FIELD_DOUBLE("cc.intra.dctcp.g", cc_intra.dctcp.g),
      LCMP_FIELD_DOUBLE("cc.intra.timely.beta", cc_intra.timely.beta),
      LCMP_FIELD_DOUBLE("cc.intra.hpcc.eta", cc_intra.hpcc.eta),
      // LCMP ablation knobs (paper Sec. 7.2-7.5).
      LCMP_FIELD_INT("lcmp.alpha", lcmp.alpha),
      LCMP_FIELD_INT("lcmp.beta", lcmp.beta),
      LCMP_FIELD_INT("lcmp.w_dl", lcmp.w_dl),
      LCMP_FIELD_INT("lcmp.w_lc", lcmp.w_lc),
      LCMP_FIELD_INT("lcmp.s_path", lcmp.s_path),
      LCMP_FIELD_INT("lcmp.w_ql", lcmp.w_ql),
      LCMP_FIELD_INT("lcmp.w_tl", lcmp.w_tl),
      LCMP_FIELD_INT("lcmp.w_dp", lcmp.w_dp),
      LCMP_FIELD_INT("lcmp.s_cong", lcmp.s_cong),
      LCMP_FIELD_INT("lcmp.trend_shift_k", lcmp.trend_shift_k),
      LCMP_FIELD_INT("lcmp.keep_num", lcmp.keep_num),
      LCMP_FIELD_INT("lcmp.keep_den", lcmp.keep_den),
      LCMP_FIELD_INT("lcmp.all_congested_threshold", lcmp.all_congested_threshold),
      LCMP_FIELD_INT("lcmp.flow_cache_capacity", lcmp.flow_cache_capacity),
      LCMP_FIELD_BOOL("lcmp.flow_cache_auto", lcmp.flow_cache_auto),
      LCMP_FIELD_TIME("lcmp.sample_interval_us", lcmp.sample_interval, 1'000),
      LCMP_FIELD_TIME("lcmp.flow_idle_timeout_us", lcmp.flow_idle_timeout, 1'000),
      LCMP_FIELD_TIME("lcmp.gc_period_ms", lcmp.gc_period, 1'000'000),
      LCMP_FIELD_BOOL("lcmp.disable_failover", lcmp.disable_failover),
  };
  return *table;
}

#undef LCMP_FIELD_INT
#undef LCMP_FIELD_I64
#undef LCMP_FIELD_U64
#undef LCMP_FIELD_DOUBLE
#undef LCMP_FIELD_BOOL
#undef LCMP_FIELD_TIME

bool IsKnownField(const std::string& field) {
  for (const FieldEntry& entry : FieldTable()) {
    if (field == entry.name) {
      return true;
    }
  }
  return false;
}

bool UnknownFieldError(const std::string& field, std::string* error) {
  if (error != nullptr) {
    std::string known;
    for (const FieldEntry& entry : FieldTable()) {
      if (!known.empty()) {
        known += ", ";
      }
      known += entry.name;
    }
    *error = "unknown config field '" + field + "' (known: " + known + ", overrides)";
  }
  return false;
}

}  // namespace

std::vector<std::string> KnownConfigFields() {
  std::vector<std::string> names;
  names.reserve(FieldTable().size());
  for (const FieldEntry& entry : FieldTable()) {
    names.emplace_back(entry.name);
  }
  return names;
}

bool ApplyConfigField(ExperimentConfig* config, const std::string& field,
                      const std::string& value, std::string* error) {
  if (field == "overrides") {
    std::istringstream stream(value);
    std::string token;
    while (stream >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) {
          *error = "overrides token '" + token + "' is not of the form field=value";
        }
        return false;
      }
      if (!ApplyConfigField(config, token.substr(0, eq), token.substr(eq + 1), error)) {
        return false;
      }
    }
    return true;
  }
  for (const FieldEntry& entry : FieldTable()) {
    if (field == entry.name) {
      return entry.apply(config, value, error);
    }
  }
  return UnknownFieldError(field, error);
}

bool GetConfigField(const ExperimentConfig& config, const std::string& field, std::string* out) {
  for (const FieldEntry& entry : FieldTable()) {
    if (field == entry.name) {
      if (entry.get == nullptr) {
        return false;  // write-only field
      }
      *out = entry.get(config);
      return true;
    }
  }
  return false;
}

// ---- builder ----

SweepSpec& SweepSpec::Axis(std::string field, std::vector<std::string> values) {
  SweepAxis axis;
  axis.field = std::move(field);
  axis.values.reserve(values.size());
  for (std::string& value : values) {
    axis.values.emplace_back(std::move(value));
  }
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::AxisLabeled(std::string field, std::vector<AxisValue> values) {
  SweepAxis axis;
  axis.field = std::move(field);
  axis.values = std::move(values);
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::Policies(const std::vector<PolicyKind>& kinds) {
  SweepAxis axis;
  axis.field = "policy";
  for (const PolicyKind kind : kinds) {
    axis.values.emplace_back(PolicyKindToken(kind), PolicyKindName(kind));
  }
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::Loads(const std::vector<double>& loads) {
  SweepAxis axis;
  axis.field = "load";
  for (const double load : loads) {
    axis.values.emplace_back(json::FormatDouble(load));
  }
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::Seeds(const std::vector<uint64_t>& seeds) {
  SweepAxis axis;
  axis.field = "seed";
  for (const uint64_t seed : seeds) {
    axis.values.emplace_back(std::to_string(seed));
  }
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::Workloads(const std::vector<WorkloadKind>& kinds) {
  SweepAxis axis;
  axis.field = "workload";
  for (const WorkloadKind kind : kinds) {
    axis.values.emplace_back(WorkloadKindToken(kind), WorkloadKindName(kind));
  }
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::Ccs(const std::vector<std::string>& tokens) {
  SweepAxis axis;
  axis.field = "cc";
  for (const std::string& token : tokens) {
    axis.values.emplace_back(token);
  }
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::Variants(std::vector<AxisValue> variants) {
  return AxisLabeled("overrides", std::move(variants));
}

// ---- expansion ----

bool ExpandSweep(const SweepSpec& spec, std::vector<SweepRun>* runs, std::string* error) {
  runs->clear();
  size_t total = 1;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.field != "overrides" && !IsKnownField(axis.field)) {
      return UnknownFieldError(axis.field, error);
    }
    if (axis.values.empty()) {
      if (error != nullptr) {
        *error = "axis '" + axis.field + "' has no values";
      }
      return false;
    }
    if (total > 1'000'000 / axis.values.size()) {
      if (error != nullptr) {
        *error = "sweep grid exceeds 1e6 cells";
      }
      return false;
    }
    total *= axis.values.size();
  }
  runs->reserve(total);
  for (size_t idx = 0; idx < total; ++idx) {
    SweepRun run;
    run.index = idx;
    run.config = spec.base;
    // Mixed-radix decode, first axis most significant (varies slowest).
    size_t rem = idx;
    size_t place = total;
    for (const SweepAxis& axis : spec.axes) {
      place /= axis.values.size();
      const AxisValue& av = axis.values[rem / place];
      rem %= place;
      std::string apply_error;
      if (!ApplyConfigField(&run.config, axis.field, av.value, &apply_error)) {
        if (error != nullptr) {
          *error = "axis '" + axis.field + "' value '" + av.value + "': " + apply_error;
        }
        return false;
      }
      run.cell.emplace_back(axis.field, av.Label());
      if (!run.label.empty()) {
        run.label += ' ';
      }
      if (axis.field == "overrides") {
        run.label += av.Label().empty() ? std::string("base") : av.Label();
      } else {
        run.label += axis.field + "=" + av.Label();
      }
    }
    if (run.label.empty()) {
      run.label = "base";
    }
    std::string range_error;
    if (!ValidateExperimentConfig(run.config, &range_error)) {
      if (error != nullptr) {
        *error = "run '" + run.label + "': " + range_error;
      }
      return false;
    }
    runs->push_back(std::move(run));
  }
  return true;
}

// ---- JSON ----

std::string SweepSpecToJson(const SweepSpec& spec) {
  const ExperimentConfig defaults;
  std::string out = "{\n  \"base\": {";
  bool first = true;
  for (const FieldEntry& entry : FieldTable()) {
    if (entry.get == nullptr) {
      continue;  // write-only; the composite "cc" field carries the state
    }
    const std::string cur = entry.get(spec.base);
    if (cur == entry.get(defaults)) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += std::string("    \"") + entry.name + "\": \"" + JsonEscape(cur) + "\"";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"axes\": [";
  first = true;
  for (const SweepAxis& axis : spec.axes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"field\": \"" + JsonEscape(axis.field) + "\", \"values\": [";
    bool value_first = true;
    for (const AxisValue& value : axis.values) {
      if (!value_first) {
        out += ", ";
      }
      value_first = false;
      if (value.label.empty()) {
        out += "\"" + JsonEscape(value.value) + "\"";
      } else {
        out += "{\"label\": \"" + JsonEscape(value.label) + "\", \"value\": \"" +
               JsonEscape(value.value) + "\"}";
      }
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

bool AxisValueFromJson(const JsonValue& value, AxisValue* out, std::string* error) {
  if (value.kind == JsonValue::Kind::kObject) {
    const JsonValue* inner = value.Find("value");
    if (inner == nullptr || !inner->AsString(&out->value)) {
      if (error != nullptr) {
        *error = "axis value object needs a scalar \"value\" member";
      }
      return false;
    }
    if (const JsonValue* label = value.Find("label")) {
      if (!label->AsString(&out->label)) {
        if (error != nullptr) {
          *error = "axis value \"label\" must be a scalar";
        }
        return false;
      }
    }
    return true;
  }
  if (value.AsString(&out->value)) {
    return true;
  }
  if (error != nullptr) {
    *error = "axis values must be scalars or {\"label\", \"value\"} objects";
  }
  return false;
}

}  // namespace

bool ParseSweepSpecJson(const std::string& text, SweepSpec* spec, std::string* error) {
  JsonValue root;
  if (!json::ParseJson(text, &root, error)) {
    return false;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    if (error != nullptr) {
      *error = "sweep spec must be a JSON object";
    }
    return false;
  }
  for (const auto& [key, value] : root.members) {
    if (key == "base") {
      if (value.kind != JsonValue::Kind::kObject) {
        if (error != nullptr) {
          *error = "\"base\" must be an object of config fields";
        }
        return false;
      }
      for (const auto& [field, field_value] : value.members) {
        std::string encoded;
        if (!field_value.AsString(&encoded)) {
          if (error != nullptr) {
            *error = "base field '" + field + "' must be a scalar";
          }
          return false;
        }
        if (!ApplyConfigField(&spec->base, field, encoded, error)) {
          return false;
        }
      }
    } else if (key == "axes") {
      if (value.kind != JsonValue::Kind::kArray) {
        if (error != nullptr) {
          *error = "\"axes\" must be an array";
        }
        return false;
      }
      spec->axes.clear();
      for (const JsonValue& axis_json : value.items) {
        if (axis_json.kind != JsonValue::Kind::kObject) {
          if (error != nullptr) {
            *error = "each axis must be an object with \"field\" and \"values\"";
          }
          return false;
        }
        SweepAxis axis;
        const JsonValue* field = axis_json.Find("field");
        if (field == nullptr || field->kind != JsonValue::Kind::kString) {
          if (error != nullptr) {
            *error = "axis needs a string \"field\" member";
          }
          return false;
        }
        axis.field = field->scalar;
        if (axis.field != "overrides" && !IsKnownField(axis.field)) {
          return UnknownFieldError(axis.field, error);
        }
        const JsonValue* values = axis_json.Find("values");
        if (values == nullptr || values->kind != JsonValue::Kind::kArray ||
            values->items.empty()) {
          if (error != nullptr) {
            *error = "axis '" + axis.field + "' needs a non-empty \"values\" array";
          }
          return false;
        }
        for (const JsonValue& value_json : values->items) {
          AxisValue av;
          if (!AxisValueFromJson(value_json, &av, error)) {
            return false;
          }
          axis.values.push_back(std::move(av));
        }
        spec->axes.push_back(std::move(axis));
      }
    } else {
      if (error != nullptr) {
        *error = "unknown top-level key '" + key + "' (expected \"base\" / \"axes\")";
      }
      return false;
    }
  }
  return true;
}

bool ParseSweepAxes(const std::string& text, SweepSpec* spec, std::string* error) {
  size_t start = 0;
  while (start <= text.size()) {
    const size_t semi = text.find(';', start);
    const std::string part =
        text.substr(start, semi == std::string::npos ? std::string::npos : semi - start);
    start = semi == std::string::npos ? text.size() + 1 : semi + 1;
    if (part.empty()) {
      continue;  // tolerate a trailing ';'
    }
    const size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) {
        *error = "sweep axis '" + part + "' is not of the form field=v1,v2,...";
      }
      return false;
    }
    SweepAxis axis;
    axis.field = part.substr(0, eq);
    if (axis.field != "overrides" && !IsKnownField(axis.field)) {
      return UnknownFieldError(axis.field, error);
    }
    size_t value_start = eq + 1;
    while (value_start <= part.size()) {
      const size_t comma = part.find(',', value_start);
      const std::string value = part.substr(
          value_start, comma == std::string::npos ? std::string::npos : comma - value_start);
      value_start = comma == std::string::npos ? part.size() + 1 : comma + 1;
      if (value.empty()) {
        if (error != nullptr) {
          *error = "sweep axis '" + axis.field + "' has an empty value";
        }
        return false;
      }
      axis.values.emplace_back(value);
    }
    if (axis.values.empty()) {
      if (error != nullptr) {
        *error = "sweep axis '" + axis.field + "' has no values";
      }
      return false;
    }
    spec->axes.push_back(std::move(axis));
  }
  return true;
}

bool LoadSweepSpecFile(const std::string& path, SweepSpec* spec, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open sweep spec '" + path + "'";
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!ParseSweepSpecJson(buffer.str(), spec, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

bool SaveSweepSpecFile(const std::string& path, const SweepSpec& spec, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot write sweep spec '" + path + "'";
    }
    return false;
  }
  out << SweepSpecToJson(spec);
  return static_cast<bool>(out);
}

}  // namespace lcmp
