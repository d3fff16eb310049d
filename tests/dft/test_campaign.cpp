// Campaign survival-layer tests: verdict partitioning, the per-fault
// Newton budget, the progress clock, the canonical JSON line and
// report projections.
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "util/metrics.hpp"

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
      EXPECT_EQ(x.record, y.record) << x.fault.describe();
      EXPECT_EQ(x.stages_run, y.stages_run) << x.fault.describe();
      EXPECT_EQ(x.verdict, y.verdict) << x.fault.describe();
      EXPECT_EQ(x.observed, y.observed) << x.fault.describe();
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

/// Two leak variants whose scan stages both detect, at different
/// sub-stages: A at the toggle test; B at the CP scan, after which a
/// static-scan solve fails.
VariantRecords scan_detected_by_both_variants() {
  constexpr unsigned kRan =
      sub_bit(kSubDc) | sub_bit(kSubCpScan) | sub_bit(kSubScanStatic) | sub_bit(kSubToggle);
  VariantRecords v;
  v.add({kRan, sub_bit(kSubToggle), 0});
  v.add({kRan, sub_bit(kSubCpScan), sub_bit(kSubScanStatic)});
  return v;
}

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
        EXPECT_TRUE(dft::detected(o.record));
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

TEST_F(CampaignFixture, IterationBudgetSkipsLaterStages) {
  CampaignOptions opts = small_opts();
  opts.max_faults = 4;
  opts.max_newton_per_fault = 1;  // always blown after the DC stage
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.budget_blown) << o.fault.describe();
    EXPECT_EQ(stage_result(o.record, kStageScan), StageResult::kNotRun) << o.fault.describe();
    // A genuine DC detection survives the blown budget; anything else
    // quarantines rather than claiming "undetected".
    EXPECT_EQ(o.verdict, stage_result(o.record, kStageDc) == StageResult::kDetected
                             ? FaultVerdict::kDetected
                             : FaultVerdict::kQuarantined)
        << o.fault.describe();
  }
}

TEST_F(CampaignFixture, ScanDetectionStopsBeforeBist) {
  // The stages run DC -> scan -> BIST and the first detection ends the
  // run: with BIST enabled, a fault that DC misses and scan detects has
  // run exactly DC and scan; one that both miss has run all three. DC
  // detects none of the pull-down's faults.
  CampaignOptions opts;
  opts.prefixes = {"cp.m_pulln"};
  opts.with_scan_toggle = false;
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  std::size_t scan_detections = 0;
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(stage_result(o.record, kStageDc), StageResult::kPassed) << o.fault.describe();
    if (stage_result(o.record, kStageScan) == StageResult::kDetected) {
      ++scan_detections;
      EXPECT_EQ(o.stages_run, kStageBitDc | kStageBitScan) << o.fault.describe();
      EXPECT_EQ(stage_result(o.record, kStageBist), StageResult::kNotRun) << o.fault.describe();
    } else {
      EXPECT_EQ(o.stages_run, kStageBitDc | kStageBitScan | kStageBitBist) << o.fault.describe();
    }
  }
  EXPECT_GT(scan_detections, 0u);
}

TEST_F(CampaignFixture, StageSecondsCountEveryStageRunWithinTheCampaignWallTime) {
  // One campaign.stage_seconds.<stage> sample per stage a leak variant
  // ran (a run stage records at least one of its sub-stages), and the
  // stages' time lies inside the campaign's.
  CampaignOptions opts;
  opts.prefixes = {"cp.m_pulln"};
  opts.with_scan_toggle = false;
  opts.collapse_faults = false;  // every outcome is simulated
  auto& m = util::metrics();
  const std::array<const util::MetricHistogram*, kStageCount> hist = {
      &m.histogram("campaign.stage_seconds.dc"), &m.histogram("campaign.stage_seconds.scan"),
      &m.histogram("campaign.stage_seconds.bist")};
  std::array<util::MetricHistogram::Snapshot, kStageCount> before;
  for (unsigned s = 0; s < kStageCount; ++s) before[s] = hist[s]->snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  const CampaignReport report = run_campaign(*golden_, opts);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(report.complete);

  std::array<std::uint64_t, kStageCount> ran{};
  for (const FaultOutcome& o : report.outcomes) {
    for (const SubStageRecord& r : o.record) {
      for (unsigned s = 0; s < kStageCount; ++s) {
        unsigned stage_bits = 0;
        for (const SubStage sub : kStageRunOrder[s]) stage_bits |= sub_bit(sub);
        ran[s] += (r.run & stage_bits) != 0 ? 1 : 0;
      }
    }
  }
  double seconds = 0.0;
  for (unsigned s = 0; s < kStageCount; ++s) {
    const auto after = hist[s]->snapshot();
    EXPECT_EQ(after.count - before[s].count, ran[s]) << "stage " << s;
    seconds += after.sum - before[s].sum;
  }
  EXPECT_GT(ran[kStageBist], 0u);
  EXPECT_GT(seconds, 0.0);
  EXPECT_LE(seconds, wall);
}

TEST_F(CampaignFixture, SingleThreadProgressIsInOrderAndPrecedesEachFault) {
  // At one thread `progress` is a monotone fault clock: indices 0..n-1
  // in order, each reported before that fault runs. The campaign.faults
  // counter shows what has run: at progress(i) it has grown by exactly i.
  CampaignOptions opts = small_opts();
  opts.num_threads = 1;
  opts.collapse_faults = false;  // every fault is simulated and counted
  const util::Counter& faults = util::metrics().counter("campaign.faults");
  const std::int64_t before = faults.value();
  std::vector<std::size_t> seen;
  std::vector<std::int64_t> ran_at_call;
  opts.progress = [&](std::size_t i, std::size_t) {
    seen.push_back(i);
    ran_at_call.push_back(faults.value() - before);
  };
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_EQ(seen.size(), report.outcomes.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i);
    EXPECT_EQ(ran_at_call[i], static_cast<std::int64_t>(i))
        << "progress(" << i << ") came after its fault ran";
  }
  EXPECT_EQ(faults.value() - before, static_cast<std::int64_t>(report.outcomes.size()));
}

TEST_F(CampaignFixture, CanonicalLineHoldsOnlyTheRecord) {
  CampaignOptions opts = small_opts();
  opts.max_faults = 2;
  opts.adaptive_stage_order = false;  // every sub-stage runs and records
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_EQ(report.outcomes.size(), 2u);
  const unsigned ran = sub_bit(kSubDc) | sub_bit(kSubCpScan) | sub_bit(kSubScanStatic);
  for (const FaultOutcome& o : report.outcomes) {
    ASSERT_EQ(o.record.count, 1u);
    EXPECT_EQ(o.record.slot[0].run, ran);
    EXPECT_EQ(o.observed.size(), 50u);
    const std::string line = outcome_canonical_json(o);
    const auto has = [&](const std::string& field) {
      return line.find(field) != std::string::npos;
    };
    EXPECT_TRUE(has("\"device\":\"" + o.fault.device + "\"")) << line;
    EXPECT_TRUE(has("\"verdict\":\"" + fault_verdict_name(o.verdict) + "\"")) << line;
    EXPECT_TRUE(has("\"substages_run\":" + std::to_string(ran) + ",")) << line;
    EXPECT_TRUE(has("\"substages_detected\":" + std::to_string(o.record.slot[0].detected) + ","))
        << line;
    EXPECT_TRUE(has("\"substages_failed\":" + std::to_string(o.record.slot[0].failed) + ","))
        << line;
    EXPECT_TRUE(has("\"observed\":\"" + o.observed + "\"")) << line;
    // The line holds the record only: no stage bits, no second variant.
    for (const char* derived :
         {"dc", "scan", "bist", "anomalous", "stages_run", "substages_run_b"}) {
      EXPECT_FALSE(has("\"" + std::string(derived) + "\":")) << derived << " in " << line;
    }
  }
}

TEST_F(CampaignFixture, PessimisticLinesCarryASecondVariantExactlyForGateOpens) {
  CampaignOptions opts = small_opts();
  opts.max_faults = 4;
  opts.pessimistic_gate_opens = true;
  const CampaignReport report = run_campaign(*golden_, opts);
  std::size_t gate_opens = 0;
  for (const FaultOutcome& o : report.outcomes) {
    const bool gate_open = o.fault.needs_leak_variants();
    gate_opens += gate_open;
    EXPECT_EQ(o.record.count, gate_open ? 2u : 1u) << o.fault.describe();
    const std::string line = outcome_canonical_json(o);
    EXPECT_EQ(line.find("\"substages_run_b\":") != std::string::npos, gate_open) << line;
  }
  ASSERT_GT(gate_opens, 0u) << "no gate open in the universe";
}

TEST_F(CampaignFixture, ProjectionKeepsATwoVariantStageDetection) {
  // Fails on an AND of the two variants' sub-stage masks: that reads
  // "scan did not detect, a solve failed" and quarantines the fault.
  CampaignReport r;
  FaultOutcome o;
  o.fault = {"tx.p.m_drvn", fault::FaultClass::kGateOpen};
  o.record = scan_detected_by_both_variants();
  o.stages_run = kStageBitDc | kStageBitScan;
  o.verdict = FaultVerdict::kDetected;
  r.outcomes.push_back(o);
  const CampaignReport p = project_report(r, kAllSubStages);
  ASSERT_EQ(p.outcomes.size(), 1u);
  const FaultOutcome& got = p.outcomes[0];
  EXPECT_EQ(got.record, o.record);
  EXPECT_EQ(stage_result(got.record, kStageDc), StageResult::kPassed);
  EXPECT_EQ(stage_result(got.record, kStageScan), StageResult::kDetected);
  EXPECT_EQ(stage_result(got.record, kStageBist), StageResult::kNotRun);
  EXPECT_EQ(got.stages_run, o.stages_run);
  EXPECT_EQ(got.verdict, FaultVerdict::kDetected);
  EXPECT_EQ(p.quarantined, 0u);
  EXPECT_EQ(p.anomalous, 1u);
  EXPECT_EQ(p.total.cum_dc.detected, 0u);
  EXPECT_EQ(p.total.cum_scan.detected, 1u);
  EXPECT_EQ(p.total.cum_all.detected, 1u);
  EXPECT_EQ(p.total.cum_all.total, 1u);
}

TEST_F(CampaignFixture, ProjectionOntoEverySubStageIsTheIdentity) {
  for (const bool pessimistic : {false, true}) {
    CampaignOptions opts;
    opts.num_threads = 4;
    opts.pessimistic_gate_opens = pessimistic;
    const CampaignReport r = run_campaign(*golden_, opts);
    ASSERT_TRUE(r.complete);
    const CampaignReport p = project_report(r, kAllSubStages);
    expect_same_report(r, p);
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      EXPECT_EQ(p.outcomes[i].status, r.outcomes[i].status) << r.outcomes[i].fault.describe();
    }
    EXPECT_EQ(p.total.cum_scan.detected, r.total.cum_scan.detected);
    EXPECT_EQ(report_canonical_jsonl(p), report_canonical_jsonl(r)) << "pessimistic " << pessimistic;
  }
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
