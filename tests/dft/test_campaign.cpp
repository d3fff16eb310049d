// Campaign survival-layer tests: verdict partitioning, per-fault
// budgets, and JSONL checkpoint/resume (an interrupted campaign resumed
// from its checkpoint must reproduce the uninterrupted report exactly).
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "dft/dictionary.hpp"
#include "util/jsonl.hpp"
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

/// A checkpoint's outcome lines: every line after its fingerprint
/// header, which must come first.
std::vector<std::string> outcome_lines(const std::string& path) {
  std::vector<std::string> lines = util::read_lines(path);
  if (lines.empty()) return lines;
  util::JsonObject header;
  EXPECT_TRUE(util::JsonObject::parse(lines.front(), header) &&
              header.has("checkpoint_fingerprint"))
      << "no fingerprint header in " << path << ": " << lines.front();
  lines.erase(lines.begin());
  return lines;
}

/// Faults a report simulated rather than loaded from its checkpoint.
std::size_t fresh_faults(const CampaignReport& r) {
  std::size_t fresh = 0;
  for (const std::size_t n : r.exec.per_worker_faults) fresh += n;
  return fresh;
}

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
  // shows what has run: at progress(i) it holds exactly faults 0..i-1
  // after its header.
  const std::string path = testing::TempDir() + "campaign_progress_order.jsonl";
  std::remove(path.c_str());
  CampaignOptions opts = small_opts();
  opts.num_threads = 1;
  opts.checkpoint_path = path;
  std::vector<std::size_t> seen;
  std::vector<std::size_t> lines_at_call;
  opts.progress = [&](std::size_t i, std::size_t) {
    seen.push_back(i);
    lines_at_call.push_back(outcome_lines(path).size());
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
  ASSERT_EQ(outcome_lines(path).size(), 3u);

  // Simulate a kill mid-write: a torn (truncated) trailing line must be
  // skipped on resume, not crash it.
  ASSERT_TRUE(util::append_line(path, "{\"index\": 3, \"device\": \"tx"));

  CampaignOptions resumed_opts = small_opts();
  resumed_opts.checkpoint_path = path;
  resumed_opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, resumed_opts);
  EXPECT_TRUE(resumed.complete);
  expect_same_report(full, resumed);
  // ... and projects the same fault dictionary.
  const FaultDictionary want = project_dictionary(full);
  const FaultDictionary got = project_dictionary(resumed);
  EXPECT_EQ(got.golden_signature(), want.golden_signature());
  ASSERT_EQ(got.entries().size(), want.entries().size());
  for (std::size_t i = 0; i < want.entries().size(); ++i) {
    EXPECT_EQ(got.entries()[i].signature, want.entries()[i].signature)
        << want.entries()[i].fault.describe();
  }

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
  opts.adaptive_stage_order = false;  // every sub-stage runs and records
  opts.checkpoint_path = path;
  const CampaignReport report = run_campaign(*golden_, opts);
  const auto lines = outcome_lines(path);
  ASSERT_EQ(lines.size(), report.outcomes.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const FaultOutcome& o = report.outcomes[i];
    ASSERT_EQ(o.record.count, 1u);
    util::JsonObject j;
    ASSERT_TRUE(util::JsonObject::parse(lines[i], j)) << lines[i];
    std::string device;
    std::string verdict;
    std::string observed;
    std::size_t run = 0;
    std::size_t detected = 0;
    std::size_t failed = 0;
    ASSERT_TRUE(j.get_string("device", device));
    ASSERT_TRUE(j.get_string("verdict", verdict));
    ASSERT_TRUE(j.get_uint("substages_run", run));
    ASSERT_TRUE(j.get_uint("substages_detected", detected));
    ASSERT_TRUE(j.get_uint("substages_failed", failed));
    ASSERT_TRUE(j.get_string("observed", observed));
    EXPECT_EQ(device, o.fault.device);
    EXPECT_EQ(verdict, fault_verdict_name(o.verdict));
    EXPECT_EQ(run, o.record.slot[0].run);
    EXPECT_EQ(run, sub_bit(kSubDc) | sub_bit(kSubCpScan) | sub_bit(kSubScanStatic));
    EXPECT_EQ(detected, o.record.slot[0].detected);
    EXPECT_EQ(failed, o.record.slot[0].failed);
    EXPECT_EQ(observed, o.observed);
    EXPECT_EQ(observed.size(), 50u);
    // The line holds the record only: no stage bits, no second variant.
    for (const char* derived : {"dc", "scan", "bist", "anomalous", "stages_run", "substages_run_b"}) {
      EXPECT_FALSE(j.has(derived)) << derived << " in " << lines[i];
    }
  }

  // Resuming from these lines reproduces the outcomes exactly, without
  // simulating anything.
  CampaignOptions resumed_opts = opts;
  resumed_opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, resumed_opts);
  expect_same_report(report, resumed);
  EXPECT_EQ(report_canonical_jsonl(resumed), report_canonical_jsonl(report));
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, HeaderlessCheckpointRerunsEveryFault) {
  // Lines without the fingerprint header cannot say which options,
  // netlist or tolerance produced them: a resume re-runs every fault
  // and starts the file over with its own header.
  const std::string path = testing::TempDir() + "campaign_headerless.jsonl";
  CampaignOptions opts = small_opts();
  opts.max_faults = 3;
  opts.checkpoint_path = path;  // a run that does not resume starts the file over
  const CampaignReport report = run_campaign(*golden_, opts);
  const std::vector<std::string> lines = outcome_lines(path);
  ASSERT_EQ(lines.size(), report.outcomes.size());
  std::remove(path.c_str());
  for (const std::string& line : lines) ASSERT_TRUE(util::append_line(path, line));

  opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, opts);
  EXPECT_EQ(fresh_faults(resumed), resumed.outcomes.size());
  expect_same_report(report, resumed);
  EXPECT_EQ(outcome_lines(path).size(), report.outcomes.size());
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, PessimisticCheckpointLinesReloadBothVariants) {
  const std::string path = testing::TempDir() + "campaign_pessimistic.jsonl";
  std::remove(path.c_str());
  CampaignOptions opts = small_opts();
  opts.max_faults = 4;
  opts.pessimistic_gate_opens = true;
  opts.checkpoint_path = path;
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  std::size_t two_variant_lines = 0;
  for (const auto& l : util::read_lines(path)) {
    util::JsonObject j;
    ASSERT_TRUE(util::JsonObject::parse(l, j)) << l;
    two_variant_lines += j.has("substages_run_b");
  }
  std::size_t gate_opens = 0;
  for (const FaultOutcome& o : report.outcomes) {
    const bool gate_open = o.fault.needs_leak_variants();
    gate_opens += gate_open;
    EXPECT_EQ(o.record.count, gate_open ? 2u : 1u) << o.fault.describe();
  }
  ASSERT_GT(gate_opens, 0u) << "no gate open in the universe";
  EXPECT_EQ(two_variant_lines, gate_opens);

  CampaignOptions resumed_opts = opts;
  resumed_opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, resumed_opts);
  EXPECT_EQ(fresh_faults(resumed), 0u);
  expect_same_report(report, resumed);
  EXPECT_EQ(report_canonical_jsonl(resumed), report_canonical_jsonl(report));
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, ResumeUnderOtherOptionsRerunsEveryFault) {
  // A bulk-leak run resumed from a pessimistic run's checkpoint. The
  // lines agree with the fault universe, but their two-variant records
  // answer another question: the fingerprint header tells them apart,
  // so every fault re-runs and the report equals a fresh bulk-leak run.
  // The checkpoint then starts with the bulk-leak header, and resuming
  // again loads every line.
  const std::string path = testing::TempDir() + "campaign_fingerprint.jsonl";
  std::remove(path.c_str());
  CampaignOptions pessimistic = small_opts();
  pessimistic.max_faults = 4;
  pessimistic.pessimistic_gate_opens = true;
  pessimistic.num_threads = 4;
  pessimistic.checkpoint_path = path;
  const CampaignReport first = run_campaign(*golden_, pessimistic);
  ASSERT_TRUE(first.complete);
  std::size_t two_variant = 0;
  for (const FaultOutcome& o : first.outcomes) two_variant += o.record.count == 2;
  ASSERT_GT(two_variant, 0u) << "no gate open in the universe";

  CampaignOptions bulk = pessimistic;
  bulk.pessimistic_gate_opens = false;
  CampaignOptions resumed_opts = bulk;
  resumed_opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, resumed_opts);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(fresh_faults(resumed), resumed.outcomes.size());
  for (const FaultOutcome& o : resumed.outcomes) {
    EXPECT_EQ(o.record.count, 1u) << o.fault.describe();
  }
  bulk.checkpoint_path.clear();
  const CampaignReport fresh = run_campaign(*golden_, bulk);
  expect_same_report(fresh, resumed);

  const CampaignReport again = run_campaign(*golden_, resumed_opts);
  EXPECT_EQ(fresh_faults(again), 0u);
  expect_same_report(fresh, again);
  EXPECT_EQ(outcome_lines(path).size(), fresh.outcomes.size());
  std::remove(path.c_str());
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
