// Declarative sweep specification over ExperimentConfig — the unified
// experiment API every figure binary and the CLI drive.
//
// A SweepSpec is a base config plus an ordered list of axes; each axis names
// a config field and the string-encoded values it takes. Expansion is the
// cartesian product in row-major order with the FIRST axis varying SLOWEST,
// so axes [load, policy] give load-major / policy-minor cell order.
//
// The same spec is constructible three ways with identical semantics:
//   * fluent C++ builder (the bench/ binaries):
//       SweepSpec(base).Loads({.3, .5}).Policies({kEcmp, kLcmp}).Seeds({1, 2})
//   * CLI flags (--sweep-axes "load=0.3,0.5;policy=ecmp,lcmp"), see flags.h
//   * a JSON file (--sweep-spec=...), round-trippable via SweepSpecToJson.
//
// Field values are strings everywhere (builder methods encode for you); the
// ApplyConfigField/GetConfigField registry below defines the field names and
// their encodings. The pseudo-field "overrides" takes a space-separated
// "field=value ..." list applied on top of base — that is how ablation
// variants (e.g. "lcmp.alpha=0 lcmp.beta=1") become one labeled axis value.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace lcmp {

// One value of a sweep axis with an optional display label (tables and run
// labels show Label(); the value string is what gets applied).
struct AxisValue {
  std::string value;
  std::string label;

  AxisValue() = default;
  AxisValue(std::string v) : value(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  AxisValue(std::string v, std::string l) : value(std::move(v)), label(std::move(l)) {}

  const std::string& Label() const { return label.empty() ? value : label; }
};

struct SweepAxis {
  std::string field;  // a registry field name, or "overrides"
  std::vector<AxisValue> values;
};

struct SweepSpec {
  ExperimentConfig base;
  std::vector<SweepAxis> axes;

  SweepSpec() = default;
  explicit SweepSpec(ExperimentConfig base_config) : base(std::move(base_config)) {}

  // Generic axes. Values use the registry's string encoding.
  SweepSpec& Axis(std::string field, std::vector<std::string> values);
  SweepSpec& AxisLabeled(std::string field, std::vector<AxisValue> values);

  // Typed conveniences for the common axes. Labels follow the display names
  // the legacy tables used (PolicyKindName etc.), so migrated benches print
  // the same row/column headers.
  SweepSpec& Policies(const std::vector<PolicyKind>& kinds);
  SweepSpec& Loads(const std::vector<double>& loads);
  SweepSpec& Seeds(const std::vector<uint64_t>& seeds);
  SweepSpec& Workloads(const std::vector<WorkloadKind>& kinds);
  // CC axis values are registry tokens ("dcqcn", "lcp", ...) or split
  // "inter/intra" specs ("lcp/dcqcn") — anything SegmentCcSpec::Parse takes.
  SweepSpec& Ccs(const std::vector<std::string>& tokens);
  // Ablation variants: one "overrides" axis; each value is a space-separated
  // "field=value ..." list (empty = baseline) with a mandatory label.
  SweepSpec& Variants(std::vector<AxisValue> variants);
};

// One expanded cell of the grid, ready to run.
struct SweepRun {
  size_t index = 0;            // position in expansion order
  ExperimentConfig config;
  std::string label;           // e.g. "load=0.3 policy=LCMP seed=2"
  // Per-axis (field, value label) in axis-declaration order; lets callers
  // group results by any axis without re-parsing the label.
  std::vector<std::pair<std::string, std::string>> cell;
};

// ---- Config field registry (string-encoded ExperimentConfig access) ----

// Every field name ApplyConfigField accepts (excluding the "overrides"
// pseudo-field), in registry order.
std::vector<std::string> KnownConfigFields();

// Sets one field from its string encoding. Unknown fields and malformed
// values fail with a diagnostic naming the field and the accepted form.
bool ApplyConfigField(ExperimentConfig* config, const std::string& field,
                      const std::string& value, std::string* error);

// Reads one field back as its string encoding (the exact string that
// ApplyConfigField would accept to reproduce it). False for unknown fields
// and for the write-only "overrides" pseudo-field.
bool GetConfigField(const ExperimentConfig& config, const std::string& field, std::string* out);

// ---- Expansion ----

// Expands the grid (validating every axis field and value, and every expanded
// run through ValidateExperimentConfig, up-front). A spec with no axes
// expands to one run of the base config.
bool ExpandSweep(const SweepSpec& spec, std::vector<SweepRun>* runs, std::string* error);

// ---- JSON spec (schema in examples/sweep_policy_load.json) ----
//
//   { "base": { "<field>": <string|number|bool>, ... },
//     "axes": [ { "field": "...",
//                 "values": [ "v", 0.3, {"label": "...", "value": "..."} ] } ] }

// Serializes spec to JSON. "base" carries exactly the fields whose encoding
// differs from a default-constructed ExperimentConfig, so parse(serialize(s))
// reproduces s for any spec built through the registry.
std::string SweepSpecToJson(const SweepSpec& spec);

// Parses a JSON spec into *spec (axes are replaced; "base" fields are applied
// on top of spec->base, so callers may pre-seed CLI overrides).
bool ParseSweepSpecJson(const std::string& text, SweepSpec* spec, std::string* error);

// File wrappers around the two above.
bool LoadSweepSpecFile(const std::string& path, SweepSpec* spec, std::string* error);
bool SaveSweepSpecFile(const std::string& path, const SweepSpec& spec, std::string* error);

// CLI axis syntax for --sweep-axes: semicolon-separated axes, each
// "field=v1,v2,..." — e.g. "load=0.3,0.5;policy=ecmp,lcmp;seed=1,2".
// Appends to spec->axes (axis order = declaration order, as everywhere).
// Values that need spaces or labels (the "overrides" pseudo-field) belong in
// a JSON spec instead.
bool ParseSweepAxes(const std::string& text, SweepSpec* spec, std::string* error);

}  // namespace lcmp
