// Tests for the CLI flag parser and the CSV exporters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/csv_writer.h"
#include "harness/experiment.h"
#include "harness/flags.h"

namespace lcmp {
namespace {

FlagSet MakeFlags() {
  FlagSet f;
  f.Define("load", "0.3", "load")
      .Define("flows", "500", "count")
      .Define("policy", "lcmp", "policy")
      .Define("monitor", "false", "monitor");
  return f;
}

TEST(FlagsTest, DefaultsApply) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, argv));
  EXPECT_DOUBLE_EQ(f.GetDouble("load"), 0.3);
  EXPECT_EQ(f.GetInt("flows"), 500);
  EXPECT_EQ(f.GetString("policy"), "lcmp");
  EXPECT_FALSE(f.GetBool("monitor"));
}

TEST(FlagsTest, EqualsSyntax) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog", "--load=0.8", "--flows=42", "--policy=ecmp"};
  ASSERT_TRUE(f.Parse(4, argv));
  EXPECT_DOUBLE_EQ(f.GetDouble("load"), 0.8);
  EXPECT_EQ(f.GetInt("flows"), 42);
  EXPECT_EQ(f.GetString("policy"), "ecmp");
}

TEST(FlagsTest, SpaceSyntax) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog", "--flows", "7", "--policy", "ucmp"};
  ASSERT_TRUE(f.Parse(5, argv));
  EXPECT_EQ(f.GetInt("flows"), 7);
  EXPECT_EQ(f.GetString("policy"), "ucmp");
}

TEST(FlagsTest, BareBoolean) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog", "--monitor"};
  ASSERT_TRUE(f.Parse(2, argv));
  EXPECT_TRUE(f.GetBool("monitor"));
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(f.Parse(2, argv));
  EXPECT_NE(f.error().find("unknown flag"), std::string::npos);
}

TEST(FlagsTest, PositionalRejected) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(f.Parse(2, argv));
}

TEST(FlagsTest, HelpRequested) {
  FlagSet f = MakeFlags();
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(f.Parse(2, argv));
  EXPECT_TRUE(f.help_requested());
  EXPECT_NE(f.Usage("prog").find("--load"), std::string::npos);
}

TEST(SweepObsValidationTest, NoSweepOrNoMetricsAlwaysOk) {
  SweepOptions sweep;  // inactive
  ObsOptions obs;
  obs.metrics_out = "metrics.json";
  std::string error;
  EXPECT_TRUE(ValidateSweepObsOptions(sweep, obs, &error));
  sweep.axes = "lcmp.alpha=1,3";
  obs.metrics_out.clear();
  EXPECT_TRUE(ValidateSweepObsOptions(sweep, obs, &error));
}

TEST(SweepObsValidationTest, ParallelSweepWithMetricsRejected) {
  // Regression: the metrics registry is process-global, so a --jobs>1 sweep
  // with --metrics-out used to silently interleave every worker's counters
  // into one meaningless snapshot. The combination must fail fast.
  SweepOptions sweep;
  sweep.axes = "lcmp.alpha=1,3";
  sweep.jobs = 4;
  ObsOptions obs;
  obs.metrics_out = "metrics.json";
  std::string error;
  EXPECT_FALSE(ValidateSweepObsOptions(sweep, obs, &error));
  EXPECT_NE(error.find("--jobs=1"), std::string::npos);
}

TEST(SweepObsValidationTest, DefaultJobsCountsAsParallel) {
  // jobs == 0 resolves to hardware concurrency, so it is parallel too.
  SweepOptions sweep;
  sweep.spec_file = "spec.json";
  sweep.jobs = 0;
  ObsOptions obs;
  obs.metrics_out = "metrics.csv";
  EXPECT_FALSE(ValidateSweepObsOptions(sweep, obs, nullptr));
}

TEST(SweepObsValidationTest, SequentialSweepWithMetricsAllowed) {
  // --jobs=1 is the documented escape hatch: the dump is a well-defined
  // sequential aggregate across all runs.
  SweepOptions sweep;
  sweep.axes = "lcmp.alpha=1,3";
  sweep.jobs = 1;
  ObsOptions obs;
  obs.metrics_out = "metrics.json";
  std::string error;
  EXPECT_TRUE(ValidateSweepObsOptions(sweep, obs, &error));
  EXPECT_TRUE(error.empty());
}

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ExperimentConfig c;
    c.num_flows = 40;
    c.hosts_per_dc = 2;
    c.policy = PolicyKind::kLcmp;
    c.seed = 6;
    result_ = RunExperiment(c);
  }
  static int CountLines(const std::string& path) {
    std::ifstream in(path);
    int lines = 0;
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
    }
    return lines;
  }
  ExperimentResult result_;
};

TEST_F(CsvTest, FlowSamplesRoundTrip) {
  const std::string path = ::testing::TempDir() + "/flows.csv";
  ASSERT_TRUE(WriteFlowSamplesCsv(path, result_));
  EXPECT_EQ(CountLines(path), 1 + static_cast<int>(result_.samples.size()));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "flow_bytes,fct_ns,ideal_fct_ns,slowdown,src_dc,dst_dc");
  // First data row parses back to the first sample.
  std::string row;
  std::getline(in, row);
  std::stringstream ss(row);
  std::string cell;
  std::getline(ss, cell, ',');
  EXPECT_EQ(std::stoull(cell), result_.samples[0].bytes);
}

TEST_F(CsvTest, LinkUtilizationRows) {
  const std::string path = ::testing::TempDir() + "/links.csv";
  ASSERT_TRUE(WriteLinkUtilizationCsv(path, result_));
  EXPECT_EQ(CountLines(path), 1 + static_cast<int>(result_.link_utils.size()));
}

TEST_F(CsvTest, BucketRows) {
  const std::string path = ::testing::TempDir() + "/buckets.csv";
  ASSERT_TRUE(WriteBucketsCsv(path, result_));
  EXPECT_EQ(CountLines(path), 1 + static_cast<int>(result_.buckets.size()));
}

TEST_F(CsvTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteFlowSamplesCsv("/nonexistent-dir/x.csv", result_));
}

}  // namespace
}  // namespace lcmp
