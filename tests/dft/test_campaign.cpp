// Campaign survival-layer tests: verdict partitioning, per-fault
// budgets, and JSONL checkpoint/resume (an interrupted campaign resumed
// from its checkpoint must reproduce the uninterrupted report exactly).
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dft/dictionary.hpp"
#include "spice/solve_status.hpp"
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

/// A checkpoint line in an older format: the outcome's stage bits
/// (`dc`/`scan`/`bist`/`anomalous`/`stages_run`) and, `with_record`,
/// its one record's masks and `observed` beside them. The stage bits
/// come from `bits` when given (a two-variant outcome whose record was
/// merged), else from the outcome's record.
std::string older_line(const FaultOutcome& o, bool with_record,
                       const VariantRecords* bits = nullptr) {
  const VariantRecords& from = bits != nullptr ? *bits : o.record;
  const auto hit = [&](Stage s) { return stage_result(from, s) == StageResult::kDetected; };
  util::JsonObject j;
  j.set("index", o.index);
  j.set("device", o.fault.device);
  j.set("class", fault::fault_class_name(o.fault.cls));
  j.set("verdict", fault_verdict_name(o.verdict));
  j.set("status", spice::to_string(o.status));
  j.set("dc", hit(kStageDc));
  j.set("scan", hit(kStageScan));
  j.set("bist", hit(kStageBist));
  j.set("anomalous", anomalous(from));
  j.set("budget_blown", o.budget_blown);
  j.set("elapsed_sec", 0.0);
  j.set("newton_iterations", static_cast<std::int64_t>(o.newton_iterations));
  unsigned stages_run = 0;
  for (const Stage s : {kStageDc, kStageScan, kStageBist}) {
    if (stage_result(from, s) != StageResult::kNotRun) stages_run |= 1u << s;
  }
  j.set("stages_run", static_cast<std::size_t>(stages_run));
  if (with_record) {
    j.set("substages_run", static_cast<std::size_t>(o.record.slot[0].run));
    j.set("substages_detected", static_cast<std::size_t>(o.record.slot[0].detected));
    j.set("substages_failed", static_cast<std::size_t>(o.record.slot[0].failed));
    j.set("observed", o.observed);
  }
  return j.str();
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
  const auto lines = util::read_lines(path);
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

  // Lines in both older formats still load without a re-run, with the
  // same verdicts and stage results: stage bits and no record, and
  // stage bits beside the record (exact for one variant).
  for (const bool with_record : {false, true}) {
    std::remove(path.c_str());
    for (const FaultOutcome& o : report.outcomes) {
      ASSERT_TRUE(util::append_line(path, older_line(o, with_record)));
    }
    const CampaignReport legacy = run_campaign(*golden_, resumed_opts);
    ASSERT_EQ(legacy.outcomes.size(), report.outcomes.size());
    EXPECT_EQ(fresh_faults(legacy), 0u) << "older checkpoint lines were re-run instead of loaded";
    for (std::size_t i = 0; i < legacy.outcomes.size(); ++i) {
      const FaultOutcome& got = legacy.outcomes[i];
      const FaultOutcome& want = report.outcomes[i];
      EXPECT_EQ(got.verdict, want.verdict);
      EXPECT_EQ(got.stages_run, want.stages_run);
      for (const Stage stage : {kStageDc, kStageScan, kStageBist}) {
        EXPECT_EQ(stage_result(got.record, stage), stage_result(want.record, stage));
      }
      EXPECT_EQ(anomalous(got.record), anomalous(want.record));
      if (with_record) {
        EXPECT_EQ(got.record, want.record);
        EXPECT_EQ(got.observed, want.observed);
      } else {
        EXPECT_TRUE(got.observed.empty());
      }
    }
    EXPECT_EQ(legacy.total.cum_scan.detected, report.total.cum_scan.detected);
  }

  // A two-variant line of the stage-bits-beside-the-record format holds
  // masks merged across the variants (run and failed ORed, detected
  // ANDed), which can disagree with its stage bits: the two-variant
  // record of the regression below merges into "nothing detected, a
  // failed solve". The loader keeps the stage bits.
  const VariantRecords two = scan_detected_by_both_variants();
  FaultOutcome merged = report.outcomes[0];
  merged.record = {};
  merged.record.add({two.slot[0].run | two.slot[1].run, two.slot[0].detected & two.slot[1].detected,
                     two.slot[0].failed | two.slot[1].failed});
  merged.observed = "a|b";
  std::remove(path.c_str());
  ASSERT_TRUE(util::append_line(path, older_line(merged, true, &two)));
  CampaignOptions one = resumed_opts;
  one.max_faults = 1;
  const CampaignReport loaded = run_campaign(*golden_, one);
  ASSERT_EQ(loaded.outcomes.size(), 1u);
  EXPECT_EQ(fresh_faults(loaded), 0u);
  EXPECT_EQ(stage_result(loaded.outcomes[0].record, kStageDc), StageResult::kPassed);
  EXPECT_EQ(stage_result(loaded.outcomes[0].record, kStageScan), StageResult::kDetected);
  EXPECT_EQ(stage_result(loaded.outcomes[0].record, kStageBist), StageResult::kNotRun);
  EXPECT_TRUE(anomalous(loaded.outcomes[0].record));
  EXPECT_EQ(loaded.outcomes[0].verdict, FaultVerdict::kDetected);
  EXPECT_EQ(loaded.total.cum_scan.detected, 1u);
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
