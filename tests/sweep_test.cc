// Tests for the declarative sweep API: the config field registry, the
// fluent builder, grid expansion order/labels, the JSON spec round trip,
// the --sweep-axes CLI syntax, and the string->enum parse helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.h"

namespace lcmp {
namespace {

// ---- field registry ----

TEST(FieldRegistryTest, AppliesAndReadsBackEveryKindOfField) {
  ExperimentConfig c;
  std::string error;
  EXPECT_TRUE(ApplyConfigField(&c, "policy", "redte", &error)) << error;
  EXPECT_EQ(c.policy, PolicyKind::kRedte);
  EXPECT_TRUE(ApplyConfigField(&c, "topo", "bso13", &error)) << error;
  EXPECT_EQ(c.topo, TopologyKind::kBso13);
  EXPECT_TRUE(ApplyConfigField(&c, "load", "0.75", &error)) << error;
  EXPECT_DOUBLE_EQ(c.load, 0.75);
  EXPECT_TRUE(ApplyConfigField(&c, "flows", "250", &error)) << error;
  EXPECT_EQ(c.num_flows, 250);
  EXPECT_TRUE(ApplyConfigField(&c, "pfc", "true", &error)) << error;
  EXPECT_TRUE(c.pfc_enabled);
  EXPECT_TRUE(ApplyConfigField(&c, "horizon_ms", "500", &error)) << error;
  EXPECT_EQ(c.horizon, Milliseconds(500));
  EXPECT_TRUE(ApplyConfigField(&c, "lcmp.alpha", "7", &error)) << error;
  EXPECT_EQ(c.lcmp.alpha, 7);
  EXPECT_TRUE(ApplyConfigField(&c, "lcmp.flow_idle_timeout_us", "200", &error)) << error;
  EXPECT_EQ(c.lcmp.flow_idle_timeout, Microseconds(200));

  // GetConfigField returns the exact encoding ApplyConfigField accepts.
  for (const std::string& field :
       {std::string("policy"), std::string("topo"), std::string("load"),
        std::string("flows"), std::string("pfc"), std::string("horizon_ms"),
        std::string("lcmp.alpha"), std::string("lcmp.flow_idle_timeout_us")}) {
    std::string encoded;
    ASSERT_TRUE(GetConfigField(c, field, &encoded)) << field;
    ExperimentConfig copy;
    ASSERT_TRUE(ApplyConfigField(&copy, field, encoded, &error)) << field << ": " << error;
    std::string re_encoded;
    ASSERT_TRUE(GetConfigField(copy, field, &re_encoded));
    EXPECT_EQ(encoded, re_encoded) << field;
  }
}

TEST(FieldRegistryTest, RejectsUnknownFieldsWithKnownList) {
  ExperimentConfig c;
  std::string error;
  EXPECT_FALSE(ApplyConfigField(&c, "no_such_field", "1", &error));
  EXPECT_NE(error.find("unknown config field 'no_such_field'"), std::string::npos) << error;
  EXPECT_NE(error.find("load"), std::string::npos) << error;     // lists known fields
  EXPECT_NE(error.find("overrides"), std::string::npos) << error;
  std::string out;
  EXPECT_FALSE(GetConfigField(c, "no_such_field", &out));
}

TEST(FieldRegistryTest, RejectsMalformedValuesNamingTheField) {
  ExperimentConfig c;
  std::string error;
  EXPECT_FALSE(ApplyConfigField(&c, "flows", "many", &error));
  EXPECT_NE(error.find("field 'flows'"), std::string::npos) << error;
  EXPECT_FALSE(ApplyConfigField(&c, "load", "fast", &error));
  EXPECT_NE(error.find("field 'load'"), std::string::npos) << error;
  EXPECT_FALSE(ApplyConfigField(&c, "pfc", "maybe", &error));
  EXPECT_NE(error.find("true|false"), std::string::npos) << error;
  EXPECT_FALSE(ApplyConfigField(&c, "seed", "-1", &error));
  EXPECT_NE(error.find("unsigned"), std::string::npos) << error;
  EXPECT_FALSE(ApplyConfigField(&c, "policy", "best", &error));
  EXPECT_NE(error.find("ecmp"), std::string::npos) << error;  // lists accepted tokens
}

TEST(FieldRegistryTest, OverridesAppliesTokenList) {
  ExperimentConfig c;
  std::string error;
  ASSERT_TRUE(
      ApplyConfigField(&c, "overrides", "lcmp.alpha=0 lcmp.beta=3 policy=ecmp", &error))
      << error;
  EXPECT_EQ(c.lcmp.alpha, 0);
  EXPECT_EQ(c.lcmp.beta, 3);
  EXPECT_EQ(c.policy, PolicyKind::kEcmp);
  // Empty list is the baseline (no-op).
  ExperimentConfig untouched;
  EXPECT_TRUE(ApplyConfigField(&untouched, "overrides", "", &error));
  // Malformed and unknown tokens are rejected.
  EXPECT_FALSE(ApplyConfigField(&c, "overrides", "alpha", &error));
  EXPECT_NE(error.find("field=value"), std::string::npos) << error;
  EXPECT_FALSE(ApplyConfigField(&c, "overrides", "bogus=1", &error));
  EXPECT_NE(error.find("unknown config field"), std::string::npos) << error;
}

TEST(FieldRegistryTest, KnownConfigFieldsCoversBuilderAxes) {
  const std::vector<std::string> fields = KnownConfigFields();
  for (const char* expected : {"policy", "load", "seed", "workload", "cc", "topo"}) {
    EXPECT_NE(std::find(fields.begin(), fields.end(), expected), fields.end()) << expected;
  }
}

// ---- expansion ----

TEST(SweepExpandTest, FirstAxisVariesSlowest) {
  SweepSpec spec;
  spec.Loads({0.2, 0.4}).Policies({PolicyKind::kEcmp, PolicyKind::kLcmp});
  std::vector<SweepRun> runs;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, &runs, &error)) << error;
  ASSERT_EQ(runs.size(), 4u);
  // Load-major, policy-minor.
  EXPECT_DOUBLE_EQ(runs[0].config.load, 0.2);
  EXPECT_EQ(runs[0].config.policy, PolicyKind::kEcmp);
  EXPECT_DOUBLE_EQ(runs[1].config.load, 0.2);
  EXPECT_EQ(runs[1].config.policy, PolicyKind::kLcmp);
  EXPECT_DOUBLE_EQ(runs[2].config.load, 0.4);
  EXPECT_EQ(runs[2].config.policy, PolicyKind::kEcmp);
  EXPECT_DOUBLE_EQ(runs[3].config.load, 0.4);
  EXPECT_EQ(runs[3].config.policy, PolicyKind::kLcmp);
  EXPECT_EQ(runs[1].label, "load=0.2 policy=LCMP");
  ASSERT_EQ(runs[1].cell.size(), 2u);
  EXPECT_EQ(runs[1].cell[0], (std::pair<std::string, std::string>{"load", "0.2"}));
  EXPECT_EQ(runs[1].cell[1], (std::pair<std::string, std::string>{"policy", "LCMP"}));
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
  }
}

TEST(SweepExpandTest, NoAxesExpandsToOneBaseRun) {
  ExperimentConfig base;
  base.num_flows = 42;
  std::vector<SweepRun> runs;
  std::string error;
  ASSERT_TRUE(ExpandSweep(SweepSpec(base), &runs, &error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "base");
  EXPECT_EQ(runs[0].config.num_flows, 42);
  EXPECT_TRUE(runs[0].cell.empty());
}

TEST(SweepExpandTest, VariantsKeepLabelsAndBaseline) {
  ExperimentConfig base;
  base.policy = PolicyKind::kLcmp;
  SweepSpec spec(base);
  spec.Variants({{"lcmp.alpha=0", "rm-alpha"}, {"", "full"}});
  std::vector<SweepRun> runs;
  std::string error;
  ASSERT_TRUE(ExpandSweep(spec, &runs, &error)) << error;
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].label, "rm-alpha");
  EXPECT_EQ(runs[0].config.lcmp.alpha, 0);
  EXPECT_EQ(runs[1].label, "full");
  EXPECT_EQ(runs[1].config.lcmp.alpha, base.lcmp.alpha);
}

TEST(SweepExpandTest, RejectsBadAxes) {
  std::vector<SweepRun> runs;
  std::string error;

  SweepSpec unknown;
  unknown.Axis("velocity", {"1"});
  EXPECT_FALSE(ExpandSweep(unknown, &runs, &error));
  EXPECT_NE(error.find("unknown config field 'velocity'"), std::string::npos) << error;

  SweepSpec bad_value;
  bad_value.Axis("policy", {"ecmp", "bogus"});
  EXPECT_FALSE(ExpandSweep(bad_value, &runs, &error));
  EXPECT_NE(error.find("axis 'policy'"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  SweepSpec empty_axis;
  empty_axis.Axis("load", {});
  EXPECT_FALSE(ExpandSweep(empty_axis, &runs, &error));
  EXPECT_NE(error.find("no values"), std::string::npos) << error;
}

TEST(SweepExpandTest, RejectsGridsOverTheCap) {
  SweepSpec spec;
  std::vector<std::string> seeds;
  for (int i = 0; i < 101; ++i) {
    seeds.push_back(std::to_string(i));
  }
  spec.Axis("seed", seeds);
  spec.Axis("flows", seeds);
  spec.Axis("hosts_per_dc", seeds);  // 101^3 > 1e6
  std::vector<SweepRun> runs;
  std::string error;
  EXPECT_FALSE(ExpandSweep(spec, &runs, &error));
  EXPECT_NE(error.find("1e6"), std::string::npos) << error;
}

// ---- JSON spec ----

TEST(SweepJsonTest, RoundTripsBaseAxesAndLabels) {
  ExperimentConfig base;
  base.topo = TopologyKind::kBso13;
  base.num_flows = 77;
  base.load = 0.55;
  SweepSpec spec(base);
  spec.Policies({PolicyKind::kEcmp, PolicyKind::kLcmp})
      .Seeds({1, 2})
      .Variants({{"lcmp.alpha=0", "rm-alpha"}, {"", "full"}});

  const std::string text = SweepSpecToJson(spec);
  SweepSpec parsed;
  std::string error;
  ASSERT_TRUE(ParseSweepSpecJson(text, &parsed, &error)) << error << "\n" << text;

  std::string encoded;
  ASSERT_TRUE(GetConfigField(parsed.base, "topo", &encoded));
  EXPECT_EQ(encoded, "bso13");
  EXPECT_EQ(parsed.base.num_flows, 77);
  EXPECT_DOUBLE_EQ(parsed.base.load, 0.55);

  std::vector<SweepRun> original_runs;
  std::vector<SweepRun> parsed_runs;
  ASSERT_TRUE(ExpandSweep(spec, &original_runs, &error)) << error;
  ASSERT_TRUE(ExpandSweep(parsed, &parsed_runs, &error)) << error;
  ASSERT_EQ(original_runs.size(), parsed_runs.size());
  for (size_t i = 0; i < original_runs.size(); ++i) {
    EXPECT_EQ(original_runs[i].label, parsed_runs[i].label) << i;
    EXPECT_EQ(original_runs[i].config.policy, parsed_runs[i].config.policy) << i;
    EXPECT_EQ(original_runs[i].config.seed, parsed_runs[i].config.seed) << i;
    EXPECT_EQ(original_runs[i].config.lcmp.alpha, parsed_runs[i].config.lcmp.alpha) << i;
  }
}

TEST(SweepJsonTest, AcceptsBareNumbersAndObjectsAsAxisValues) {
  const std::string text = R"({
    "base": {"flows": 30},
    "axes": [
      {"field": "load", "values": [0.3, 0.5]},
      {"field": "policy", "values": [{"label": "LCMP", "value": "lcmp"}]}
    ]
  })";
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpecJson(text, &spec, &error)) << error;
  EXPECT_EQ(spec.base.num_flows, 30);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].values[1].value, "0.5");
  EXPECT_EQ(spec.axes[1].values[0].Label(), "LCMP");
}

TEST(SweepJsonTest, RejectsUnknownKeysAndFields) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepSpecJson(R"({"bases": {}})", &spec, &error));
  EXPECT_NE(error.find("unknown top-level key"), std::string::npos) << error;
  EXPECT_FALSE(ParseSweepSpecJson(R"({"base": {"velocity": "1"}})", &spec, &error));
  EXPECT_NE(error.find("unknown config field"), std::string::npos) << error;
  EXPECT_FALSE(
      ParseSweepSpecJson(R"({"axes": [{"field": "velocity", "values": ["1"]}]})", &spec, &error));
  EXPECT_NE(error.find("unknown config field"), std::string::npos) << error;
  EXPECT_FALSE(ParseSweepSpecJson("{", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SweepJsonTest, FileRoundTrip) {
  SweepSpec spec;
  spec.base.num_flows = 12;
  spec.Loads({0.3});
  const std::string path = ::testing::TempDir() + "/sweep_spec_roundtrip.json";
  std::string error;
  ASSERT_TRUE(SaveSweepSpecFile(path, spec, &error)) << error;
  SweepSpec loaded;
  ASSERT_TRUE(LoadSweepSpecFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.base.num_flows, 12);
  ASSERT_EQ(loaded.axes.size(), 1u);
  EXPECT_EQ(loaded.axes[0].field, "load");
  EXPECT_FALSE(LoadSweepSpecFile(path + ".missing", &loaded, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  std::remove(path.c_str());
}

// ---- CLI axis syntax ----

TEST(SweepAxesTest, ParsesSemicolonSeparatedAxes) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepAxes("load=0.3,0.5;policy=ecmp,lcmp;seed=1,2;", &spec, &error)) << error;
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].field, "load");
  ASSERT_EQ(spec.axes[0].values.size(), 2u);
  EXPECT_EQ(spec.axes[0].values[1].value, "0.5");
  EXPECT_EQ(spec.axes[1].field, "policy");
  EXPECT_EQ(spec.axes[2].field, "seed");
}

TEST(SweepAxesTest, RejectsMalformedInput) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepAxes("load", &spec, &error));
  EXPECT_NE(error.find("field=v1,v2"), std::string::npos) << error;
  EXPECT_FALSE(ParseSweepAxes("velocity=1", &spec, &error));
  EXPECT_NE(error.find("unknown config field"), std::string::npos) << error;
  EXPECT_FALSE(ParseSweepAxes("load=0.3,,0.5", &spec, &error));
  EXPECT_NE(error.find("empty value"), std::string::npos) << error;
}

// ---- string -> enum parse helpers ----

TEST(ParseKindTest, AcceptsEveryTokenAndListsThemOnFailure) {
  std::string error;
  PolicyKind policy;
  for (const PolicyKind kind : {PolicyKind::kEcmp, PolicyKind::kWcmp, PolicyKind::kUcmp,
                                PolicyKind::kRedte, PolicyKind::kLcmp}) {
    ASSERT_TRUE(ParsePolicyKind(PolicyKindToken(kind), &policy, &error)) << error;
    EXPECT_EQ(policy, kind);
  }
  policy = PolicyKind::kLcmp;
  EXPECT_FALSE(ParsePolicyKind("ECMP", &policy, &error));  // tokens are lower-case
  EXPECT_EQ(policy, PolicyKind::kLcmp);                    // target untouched on failure
  EXPECT_NE(error.find("ecmp"), std::string::npos) << error;
  EXPECT_NE(error.find("lcmp"), std::string::npos) << error;

  TopologyKind topo;
  ASSERT_TRUE(ParseTopologyKind("testbed8-sym", &topo, &error)) << error;
  EXPECT_EQ(topo, TopologyKind::kTestbed8Sym);
  PairingKind pairing;
  ASSERT_TRUE(ParsePairingKind("endpoints-oneway", &pairing, &error)) << error;
  EXPECT_EQ(pairing, PairingKind::kEndpointOneWay);
  WorkloadKind workload;
  ASSERT_TRUE(ParseWorkloadKind("fbhdp", &workload, &error)) << error;
  EXPECT_EQ(workload, WorkloadKind::kFbHdp);
  SegmentCcSpec cc;
  ASSERT_TRUE(SegmentCcSpec::Parse("timely", &cc, &error)) << error;
  EXPECT_EQ(cc.inter, "timely");
  EXPECT_EQ(cc.intra, "timely");
  EXPECT_TRUE(cc.uniform());
  ASSERT_TRUE(SegmentCcSpec::Parse("lcp/dcqcn", &cc, &error)) << error;
  EXPECT_EQ(cc.inter, "lcp");
  EXPECT_EQ(cc.intra, "dcqcn");
  EXPECT_FALSE(cc.uniform());
  EXPECT_EQ(cc.Token(), "lcp/dcqcn");
  EXPECT_FALSE(SegmentCcSpec::Parse("cubic", &cc, &error));
  EXPECT_NE(error.find("dcqcn"), std::string::npos) << error;
}

TEST(ConfigFieldTest, SegmentCcFieldsApplyAndEcho) {
  ExperimentConfig config;
  std::string error;
  ASSERT_TRUE(ApplyConfigField(&config, "cc", "lcp/dcqcn", &error)) << error;
  EXPECT_EQ(config.cc.inter, "lcp");
  EXPECT_EQ(config.cc.intra, "dcqcn");
  std::string echoed;
  ASSERT_TRUE(GetConfigField(config, "cc", &echoed));
  EXPECT_EQ(echoed, "lcp/dcqcn");
  // Per-segment selectors are write-only: they apply but never echo (the
  // composite "cc" field already carries the state).
  ASSERT_TRUE(ApplyConfigField(&config, "cc.intra", "timely", &error)) << error;
  EXPECT_EQ(config.cc.intra, "timely");
  EXPECT_FALSE(GetConfigField(config, "cc.intra", &echoed));
  // Per-segment tuning fields round-trip through the registry.
  ASSERT_TRUE(ApplyConfigField(&config, "cc.inter.lcp.gain", "0.5", &error)) << error;
  EXPECT_DOUBLE_EQ(config.cc_inter.lcp.gain, 0.5);
  ASSERT_TRUE(GetConfigField(config, "cc.inter.lcp.gain", &echoed));
  EXPECT_EQ(echoed, "0.5");
}

}  // namespace
}  // namespace lcmp
