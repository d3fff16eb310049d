// Campaign survival-layer tests: verdict partitioning, per-fault
// budgets, and JSONL checkpoint/resume (an interrupted campaign resumed
// from its checkpoint must reproduce the uninterrupted report exactly).
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/jsonl.hpp"

namespace lsl::dft {
namespace {

class CampaignFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { golden_ = new cells::LinkFrontend(); }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }

  /// Small universe (TX drivers + FFE caps), DC stage only: seconds, not
  /// minutes, and detection behavior on it is deterministic.
  static CampaignOptions small_opts() {
    CampaignOptions opts;
    opts.prefixes = {"tx."};
    opts.with_bist = false;
    opts.with_scan_toggle = false;
    opts.max_faults = 8;
    return opts;
  }

  static void expect_same_report(const CampaignReport& a, const CampaignReport& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      const FaultOutcome& x = a.outcomes[i];
      const FaultOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.fault.device, y.fault.device);
      EXPECT_EQ(x.fault.cls, y.fault.cls);
      EXPECT_EQ(x.dc, y.dc) << x.fault.describe();
      EXPECT_EQ(x.scan, y.scan) << x.fault.describe();
      EXPECT_EQ(x.bist, y.bist) << x.fault.describe();
      EXPECT_EQ(x.anomalous, y.anomalous) << x.fault.describe();
      EXPECT_EQ(x.verdict, y.verdict) << x.fault.describe();
    }
    EXPECT_EQ(a.anomalous, b.anomalous);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.total.cum_all.detected, b.total.cum_all.detected);
    EXPECT_EQ(a.total.cum_all.total, b.total.cum_all.total);
    EXPECT_EQ(a.total.cum_dc.detected, b.total.cum_dc.detected);
    EXPECT_EQ(a.total.quarantined, b.total.quarantined);
    EXPECT_EQ(a.per_class.size(), b.per_class.size());
  }

  static cells::LinkFrontend* golden_;
};

cells::LinkFrontend* CampaignFixture::golden_ = nullptr;

TEST_F(CampaignFixture, PartitionsEveryFaultIntoExactlyOneVerdict) {
  const CampaignReport report = run_campaign(*golden_, small_opts());
  ASSERT_EQ(report.outcomes.size(), 8u);
  EXPECT_TRUE(report.complete);
  std::size_t detected = 0;
  std::size_t undetected = 0;
  std::size_t quarantined = 0;
  for (const auto& o : report.outcomes) {
    switch (o.verdict) {
      case FaultVerdict::kDetected:
        ++detected;
        EXPECT_TRUE(o.detected_any());
        break;
      case FaultVerdict::kUndetected: ++undetected; break;
      case FaultVerdict::kQuarantined: ++quarantined; break;
    }
  }
  EXPECT_EQ(detected + undetected + quarantined, report.outcomes.size());
  EXPECT_EQ(report.quarantined, quarantined);
  // Quarantined faults are outside the coverage denominator.
  EXPECT_EQ(report.total.cum_all.total, detected + undetected);
  EXPECT_EQ(report.total.cum_all.detected, detected);
  EXPECT_EQ(report.undetected().size(), undetected);
  EXPECT_EQ(report.quarantined_faults().size(), quarantined);
}

TEST_F(CampaignFixture, BlownWallClockBudgetQuarantinesEverything) {
  CampaignOptions opts = small_opts();
  opts.max_faults = 4;
  opts.budget.per_fault_sec = 1e-9;  // expires before the first stage
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.budget_blown) << o.fault.describe();
    EXPECT_EQ(o.verdict, FaultVerdict::kQuarantined) << o.fault.describe();
  }
  EXPECT_EQ(report.quarantined, 4u);
  EXPECT_EQ(report.total.cum_all.total, 0u);  // nothing left to cover
}

TEST_F(CampaignFixture, IterationBudgetSkipsLaterStages) {
  CampaignOptions opts = small_opts();
  opts.max_faults = 4;
  opts.budget.max_newton_per_fault = 1;  // always blown after the DC stage
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.budget_blown) << o.fault.describe();
    EXPECT_FALSE(o.scan) << o.fault.describe();  // stage skipped
    // A genuine DC detection survives the blown budget; anything else
    // quarantines rather than claiming "undetected".
    EXPECT_EQ(o.verdict, o.dc ? FaultVerdict::kDetected : FaultVerdict::kQuarantined)
        << o.fault.describe();
  }
}

TEST_F(CampaignFixture, AbortCheckStopsEarlyAndMarksIncomplete) {
  CampaignOptions opts = small_opts();
  int calls = 0;
  opts.abort_check = [&calls]() { return ++calls > 3; };
  const CampaignReport report = run_campaign(*golden_, opts);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.outcomes.size(), 3u);
}

TEST_F(CampaignFixture, SingleThreadProgressIsInOrderAndPrecedesEachFault) {
  // At one thread `progress` is a monotone fault clock: indices 0..n-1
  // in order, each reported before that fault runs. The checkpoint file
  // shows what has run: at progress(i) it holds exactly faults 0..i-1.
  const std::string path = testing::TempDir() + "campaign_progress_order.jsonl";
  std::remove(path.c_str());
  CampaignOptions opts = small_opts();
  opts.num_threads = 1;
  opts.checkpoint_path = path;
  std::vector<std::size_t> seen;
  std::vector<std::size_t> lines_at_call;
  opts.progress = [&](std::size_t i, std::size_t) {
    seen.push_back(i);
    lines_at_call.push_back(util::read_lines(path).size());
  };
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(seen.size(), report.outcomes.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i);
    EXPECT_EQ(lines_at_call[i], i) << "progress(" << i << ") came after its fault ran";
  }
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, ResumeFromCheckpointMatchesUninterruptedRun) {
  const std::string path = testing::TempDir() + "campaign_resume.jsonl";
  std::remove(path.c_str());

  const CampaignReport full = run_campaign(*golden_, small_opts());
  ASSERT_TRUE(full.complete);

  // Interrupted run: checkpoint on, killed after 3 faults.
  CampaignOptions interrupted = small_opts();
  interrupted.checkpoint_path = path;
  int calls = 0;
  interrupted.abort_check = [&calls]() { return ++calls > 3; };
  const CampaignReport partial = run_campaign(*golden_, interrupted);
  ASSERT_FALSE(partial.complete);
  ASSERT_EQ(partial.outcomes.size(), 3u);
  ASSERT_EQ(util::read_lines(path).size(), 3u);

  // Simulate a kill mid-write: a torn (truncated) trailing line must be
  // skipped on resume, not crash it.
  ASSERT_TRUE(util::append_line(path, "{\"index\": 3, \"device\": \"tx"));

  CampaignOptions resumed_opts = small_opts();
  resumed_opts.checkpoint_path = path;
  resumed_opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, resumed_opts);
  EXPECT_TRUE(resumed.complete);
  expect_same_report(full, resumed);

  // The checkpoint now covers the whole universe: resuming again runs
  // zero new faults and still reproduces the same report.
  const CampaignReport replayed = run_campaign(*golden_, resumed_opts);
  expect_same_report(full, replayed);
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, CheckpointLinesRoundTripThroughJson) {
  const std::string path = testing::TempDir() + "campaign_roundtrip.jsonl";
  std::remove(path.c_str());
  CampaignOptions opts = small_opts();
  opts.max_faults = 2;
  opts.checkpoint_path = path;
  const CampaignReport report = run_campaign(*golden_, opts);
  const auto lines = util::read_lines(path);
  ASSERT_EQ(lines.size(), report.outcomes.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    util::JsonObject j;
    ASSERT_TRUE(util::JsonObject::parse(lines[i], j)) << lines[i];
    std::string device;
    std::string verdict;
    ASSERT_TRUE(j.get_string("device", device));
    ASSERT_TRUE(j.get_string("verdict", verdict));
    EXPECT_EQ(device, report.outcomes[i].fault.device);
    EXPECT_EQ(verdict, fault_verdict_name(report.outcomes[i].verdict));
  }
  std::remove(path.c_str());
}

TEST(CampaignVerdict, NamesRoundTrip) {
  for (const FaultVerdict v :
       {FaultVerdict::kDetected, FaultVerdict::kUndetected, FaultVerdict::kQuarantined}) {
    FaultVerdict back = FaultVerdict::kDetected;
    ASSERT_TRUE(fault_verdict_from_name(fault_verdict_name(v), back));
    EXPECT_EQ(back, v);
  }
  FaultVerdict ignored = FaultVerdict::kDetected;
  EXPECT_FALSE(fault_verdict_from_name("maybe", ignored));
}

}  // namespace
}  // namespace lsl::dft
