// Differential tests for the incremental campaign engine: golden
// warm-starts, structural fault collapsing and adaptive stage ordering
// are pure accelerations — the verdict
// partition (detected / undetected / quarantined) and the per-class
// cumulative Table-I coverage must be identical with every mechanism
// on, off, or alone, and at any thread count.
//
// Per-stage attribution is the one thing short-circuiting is allowed to
// change (a skipped stage reports no detection of its own), so these
// tests compare partitions and cumulative coverage across configs, and
// demand full byte-identity (canonical JSONL) only within one config.
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/metrics.hpp"

namespace lsl::dft {
namespace {

class CampaignIncrementalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new cells::LinkFrontend();
    baseline_ = new CampaignReport(run_campaign(*golden_, all_off(1)));
  }
  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
    delete golden_;
    golden_ = nullptr;
  }

  /// Small DC+scan universe (TX drivers + FFE caps): deterministic and
  /// fast, while still exercising seeds, collapsing, and stage ordering.
  static CampaignOptions base_opts(std::size_t threads) {
    CampaignOptions opts;
    opts.prefixes = {"tx."};
    opts.with_bist = false;
    opts.with_scan_toggle = false;
    opts.max_faults = 10;
    opts.num_threads = threads;
    return opts;
  }

  static CampaignOptions all_off(std::size_t threads) {
    CampaignOptions opts = base_opts(threads);
    opts.reuse_golden = false;
    opts.collapse_faults = false;
    opts.adaptive_stage_order = false;
    return opts;
  }

  /// The cross-config contract: identical verdict partition and
  /// identical cumulative (Table-I) coverage, overall and per class.
  static void expect_same_partition(const CampaignReport& a, const CampaignReport& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      const FaultOutcome& x = a.outcomes[i];
      const FaultOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.fault.device, y.fault.device);
      EXPECT_EQ(x.verdict, y.verdict) << x.fault.describe();
    }
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.total.cum_dc.detected, b.total.cum_dc.detected);
    EXPECT_EQ(a.total.cum_scan.detected, b.total.cum_scan.detected);
    EXPECT_EQ(a.total.cum_all.detected, b.total.cum_all.detected);
    EXPECT_EQ(a.total.cum_all.total, b.total.cum_all.total);
    ASSERT_EQ(a.per_class.size(), b.per_class.size());
    for (const auto& [cls, sa] : a.per_class) {
      const auto it = b.per_class.find(cls);
      ASSERT_NE(it, b.per_class.end()) << fault::fault_class_name(cls);
      EXPECT_EQ(sa.cum_dc.detected, it->second.cum_dc.detected)
          << fault::fault_class_name(cls);
      EXPECT_EQ(sa.cum_scan.detected, it->second.cum_scan.detected)
          << fault::fault_class_name(cls);
      EXPECT_EQ(sa.cum_all.detected, it->second.cum_all.detected)
          << fault::fault_class_name(cls);
      EXPECT_EQ(sa.cum_all.total, it->second.cum_all.total)
          << fault::fault_class_name(cls);
      EXPECT_EQ(sa.quarantined, it->second.quarantined) << fault::fault_class_name(cls);
    }
  }

  static cells::LinkFrontend* golden_;
  static CampaignReport* baseline_;  // every mechanism off, serial
};

cells::LinkFrontend* CampaignIncrementalFixture::golden_ = nullptr;
CampaignReport* CampaignIncrementalFixture::baseline_ = nullptr;

TEST_F(CampaignIncrementalFixture, DefaultsPreservePartitionAcrossThreadCounts) {
  std::string canonical_serial;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const CampaignReport incremental = run_campaign(*golden_, base_opts(threads));
    ASSERT_TRUE(incremental.complete);
    expect_same_partition(*baseline_, incremental);
    // Within the defaults-on config the full canonical serialization —
    // per-stage bits, stages_run, collapsed_into included — must be
    // byte-identical at every thread count.
    const std::string canon = report_canonical_jsonl(incremental);
    if (threads == 1) {
      canonical_serial = canon;
    } else {
      EXPECT_EQ(canon, canonical_serial) << "thread count " << threads;
    }
  }
}

/// Where sub-stage `s` starts in one variant's `observed` with every
/// sub-stage enabled.
std::size_t mark_offset(SubStage s) {
  std::size_t offset = 0;
  for (unsigned t = 0; t < s; ++t) offset += kSubStageMarkWidth[t];
  return offset;
}

TEST_F(CampaignIncrementalFixture, CaptureLevelStopsPreserveVerdictsAndStageResults) {
  // The charge-pump block with every stage, where the charge-pump scan
  // and the BIST readout stop at the capture that decides: each fault's
  // verdict, and each stage result the default run reaches, equal the
  // full evaluation's, at 1 and 4 threads.
  CampaignOptions opts;
  opts.prefixes = {"cp."};
  opts.max_faults = 60;
  CampaignOptions full_opts = opts;
  full_opts.adaptive_stage_order = false;
  full_opts.num_threads = 1;
  const CampaignReport full = run_campaign(*golden_, full_opts);
  const std::size_t cp = mark_offset(kSubCpScan);
  const std::size_t cp_width = kSubStageMarkWidth[kSubCpScan];
  const std::size_t readout = mark_offset(kSubCpBistRead);
  const std::string golden_cp = full.golden_observed.substr(cp, cp_width);
  for (const std::size_t threads : {1u, 4u}) {
    opts.num_threads = threads;
    const CampaignReport report = run_campaign(*golden_, opts);
    expect_same_partition(full, report);
    std::size_t cp_stops = 0;
    std::size_t readout_skips = 0;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const FaultOutcome& x = full.outcomes[i];
      const FaultOutcome& y = report.outcomes[i];
      for (const Stage s : {kStageDc, kStageScan, kStageBist}) {
        if (stage_result(y.record, s) == StageResult::kNotRun) continue;
        EXPECT_EQ(stage_result(y.record, s), stage_result(x.record, s)) << y.fault.describe();
      }
      // Every variant's marks keep the full layout.
      ASSERT_EQ(y.observed.size(), x.observed.size()) << y.observed;
      const SubStageRecord& r = y.record.slot[0];
      const std::string cp_marks = y.observed.substr(cp, cp_width);
      const std::size_t stop = cp_marks.find('-');
      if ((r.run & sub_bit(kSubCpScan)) != 0 && stop != std::string::npos) {
        // Stopped after the first conflicting combo: its marks are the
        // full run's up to there.
        ++cp_stops;
        EXPECT_NE(r.detected & sub_bit(kSubCpScan), 0u) << y.observed;
        EXPECT_EQ(cp_marks.substr(0, stop), x.observed.substr(cp, stop)) << y.observed;
        EXPECT_EQ(cp_marks.find_first_not_of('-', stop), std::string::npos) << y.observed;
        ASSERT_GE(stop, 2u) << y.observed;
        const std::string last = cp_marks.substr(stop - 2, 2);
        EXPECT_TRUE(marks_conflict(last[0], golden_cp[stop - 2]) ||
                    marks_conflict(last[1], golden_cp[stop - 1]))
            << y.observed;
      }
      if ((r.run & sub_bit(kSubBistVerdict)) != 0 && (r.run & sub_bit(kSubCpBistRead)) == 0) {
        ++readout_skips;
        EXPECT_NE(r.detected & sub_bit(kSubBistVerdict), 0u) << y.observed;
        EXPECT_EQ(y.observed.substr(readout, kSubStageMarkWidth[kSubCpBistRead]), "------");
      }
    }
    EXPECT_GT(cp_stops, 0u) << "threads " << threads;
    EXPECT_GT(readout_skips, 0u) << "threads " << threads;
  }
}

TEST_F(CampaignIncrementalFixture, EachMechanismAlonePreservesPartition) {
  for (int mech = 0; mech < 3; ++mech) {
    CampaignOptions opts = all_off(1);
    switch (mech) {
      case 0: opts.reuse_golden = true; break;
      case 1: opts.collapse_faults = true; break;
      case 2: opts.adaptive_stage_order = true; break;
    }
    const CampaignReport report = run_campaign(*golden_, opts);
    ASSERT_TRUE(report.complete) << "mechanism " << mech;
    expect_same_partition(*baseline_, report);
  }
}

TEST_F(CampaignIncrementalFixture, GoldenWarmStartsActuallyFire) {
  auto& m = util::metrics();
  const auto hits_before = m.counter("campaign.warm_start.hits").value();
  CampaignOptions opts = all_off(1);
  opts.reuse_golden = true;
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  EXPECT_GT(m.counter("campaign.warm_start.hits").value(), hits_before)
      << "reuse_golden produced no warm-start hits";
}

TEST_F(CampaignIncrementalFixture, FoldedOutcomesMirrorTheirRepresentative) {
  CampaignOptions opts = all_off(1);
  opts.collapse_faults = true;
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  for (const FaultOutcome& o : report.outcomes) {
    if (!o.collapsed_into.has_value()) continue;
    const std::size_t rep = *o.collapsed_into;
    ASSERT_LT(rep, report.outcomes.size());
    const FaultOutcome& r = report.outcomes[rep];
    EXPECT_FALSE(r.collapsed_into.has_value()) << "representative is itself folded";
    EXPECT_EQ(o.record, r.record);
    EXPECT_EQ(o.verdict, r.verdict);
    EXPECT_EQ(o.newton_iterations, r.newton_iterations);
  }
}

TEST_F(CampaignIncrementalFixture, GoldenPredictorMovesOnlyNewtonCounts) {
  // A universe whose full evaluation runs the toggle: the termination
  // transmission gates (toggle-only detections among them) and a pump
  // pull-down. With reuse_golden the chained DC solves and the toggle's
  // time steps start from the golden's change; off, every solve starts
  // as before. Only the Newton counts may differ, and the thread count
  // changes nothing.
  CampaignOptions opts;
  opts.prefixes = {"term.termp.m_tg", "cp.m_pulln"};
  opts.with_bist = false;
  opts.adaptive_stage_order = false;
  opts.num_threads = 1;
  auto& m = util::metrics();
  const util::Counter& predicted = m.counter("solver.transient.golden_predicted_steps");
  const util::Counter& chained = m.counter("campaign.warm_start.chained.hits");
  const std::int64_t predicted0 = predicted.value();
  const std::int64_t chained0 = chained.value();
  const CampaignReport on = run_campaign(*golden_, opts);
  EXPECT_GT(predicted.value(), predicted0) << "no toggle step followed the golden trajectory";
  EXPECT_GT(chained.value(), chained0) << "no chained DC warm start converged";
  opts.num_threads = 4;
  const CampaignReport on_parallel = run_campaign(*golden_, opts);
  opts.num_threads = 1;
  opts.reuse_golden = false;
  const CampaignReport off = run_campaign(*golden_, opts);
  ASSERT_TRUE(on.complete && on_parallel.complete && off.complete);
  EXPECT_EQ(report_canonical_jsonl(on), report_canonical_jsonl(on_parallel));

  std::size_t toggled = 0;
  for (const FaultOutcome& o : on.outcomes) {
    toggled += (o.record.slot[0].run & sub_bit(kSubToggle)) != 0;
  }
  EXPECT_EQ(toggled, on.outcomes.size());
  EXPECT_LT(on.exec.newton_iterations, off.exec.newton_iterations);
  const auto without_newton = [](CampaignReport r) {
    for (FaultOutcome& o : r.outcomes) o.newton_iterations = 0;
    return report_canonical_jsonl(r);
  };
  EXPECT_EQ(without_newton(on), without_newton(off));
}

TEST_F(CampaignIncrementalFixture, ExecNewtonCountsOnlySimulatedFaults) {
  // A folded member copies its representative's outcome, Newton count
  // included, but runs nothing: the campaign's total is the
  // campaign.newton_per_fault histogram's, which only simulations feed.
  CampaignOptions opts = base_opts(2);
  opts.max_faults = 0;
  const util::MetricHistogram& per_fault = util::metrics().histogram("campaign.newton_per_fault");
  const double sum0 = per_fault.snapshot().sum;
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  long folded = 0;
  long outcome_sum = 0;
  for (const FaultOutcome& o : report.outcomes) {
    outcome_sum += o.newton_iterations;
    if (o.collapsed_into.has_value()) folded += o.newton_iterations;
  }
  EXPECT_GT(folded, 0) << "the universe folds no fault";
  EXPECT_EQ(report.exec.newton_iterations, static_cast<long>(per_fault.snapshot().sum - sum0));
  EXPECT_EQ(report.exec.newton_iterations, outcome_sum - folded);
}

TEST_F(CampaignIncrementalFixture, StagesRunRecordsWhatActuallyExecuted) {
  // Every TX fault is DC-detected and no pull-down fault is.
  CampaignOptions opts = base_opts(1);
  opts.prefixes = {"tx.", "cp.m_pulln"};
  opts.max_faults = 0;
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  std::size_t dc_detections = 0;
  for (const FaultOutcome& o : report.outcomes) {
    // The stages run DC -> scan (BIST is disabled in this universe), and
    // a DC detection skips scan. The sub-stage record agrees: 20 DC
    // marks, 10 CP-scan and 20 static-scan marks, '-' where skipped.
    ASSERT_EQ(o.observed.size(), 50u) << o.fault.describe();
    if (stage_result(o.record, kStageDc) == StageResult::kDetected) {
      ++dc_detections;
      EXPECT_EQ(o.stages_run, kStageBitDc) << o.fault.describe();
      EXPECT_EQ(stage_result(o.record, kStageScan), StageResult::kNotRun) << o.fault.describe();
      EXPECT_EQ(o.record.slot[0].run, sub_bit(kSubDc)) << o.fault.describe();
      EXPECT_EQ(o.observed.substr(20), std::string(30, '-')) << o.observed;
    } else {
      EXPECT_EQ(o.stages_run, kStageBitDc | kStageBitScan) << o.fault.describe();
      EXPECT_EQ(o.record.slot[0].run & sub_bit(kSubCpScan), sub_bit(kSubCpScan)) << o.observed;
      if (stage_result(o.record, kStageScan) != StageResult::kDetected) {
        EXPECT_EQ(o.observed.find('-'), std::string::npos) << o.observed;
      }
    }
  }
  // Both branches are exercised.
  EXPECT_GT(dc_detections, 0u);
  EXPECT_LT(dc_detections, report.outcomes.size());
}

TEST_F(CampaignIncrementalFixture, PessimisticScheduleKeepsTheFullEvaluationFigures) {
  // Gate opens that only the toggle or the BIST detect (termination
  // tgates, pump switches) and one whose cold DC solve fails (cp.m_bpd).
  // The adaptive pessimistic schedule runs the opposite leak only on a
  // stage the bulk leak detected and ends a fault at the first stage both
  // detect; its verdicts and cumulative coverage are the full
  // evaluation's, its bulk-leak projection's are the bulk-leak run's, and
  // its canonical JSONL is the same at 1 and 4 threads.
  for (const bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "cold" : "warm");
    CampaignOptions bulk;
    bulk.prefixes = {"cp.m_bpd", "cp.m_swdnb", "term.termp.m_tg"};
    bulk.reuse_golden = !cold;
    CampaignOptions opts = bulk;
    opts.pessimistic_gate_opens = true;
    CampaignOptions full = opts;
    full.adaptive_stage_order = false;
    const CampaignReport adaptive = run_campaign(*golden_, opts);
    const CampaignReport evaluated = run_campaign(*golden_, full);
    ASSERT_TRUE(adaptive.complete && evaluated.complete);
    expect_same_partition(evaluated, adaptive);
    expect_same_partition(run_campaign(*golden_, bulk),
                          project_report(adaptive, kAllSubStages, GateOpenConvention::kBulkLeak));
    opts.num_threads = 4;
    EXPECT_EQ(report_canonical_jsonl(run_campaign(*golden_, opts)),
              report_canonical_jsonl(adaptive));

    std::size_t gate_opens = 0;
    std::size_t opposite_skipped = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < adaptive.outcomes.size(); ++i) {
      const FaultOutcome& a = adaptive.outcomes[i];
      failed += anomalous(evaluated.outcomes[i].record);
      if (a.record.count != 2) continue;
      ++gate_opens;
      const unsigned ran = a.record.slot[1].run;
      opposite_skipped += ran != evaluated.outcomes[i].record.slot[1].run;
      // Every stage the opposite leak ran, the bulk leak ran and detected.
      for (const Stage s : {kStageDc, kStageScan, kStageBist}) {
        unsigned bits = 0;
        for (const SubStage sub : kStageRunOrder[s]) bits |= sub_bit(sub);
        if ((ran & bits) == 0) continue;
        const SubStageRecord& r = a.record.slot[0];
        EXPECT_TRUE(stage_detects(r.detected, r.failed, kStageRunOrder[s]))
            << a.fault.describe() << " stage " << s;
      }
    }
    EXPECT_GT(gate_opens, 0u);
    EXPECT_GT(opposite_skipped, 0u) << "the schedule skipped no stage of an opposite leak";
    if (cold) {
      EXPECT_GT(failed, 0u) << "no failed solve in the cold universe";
    }
  }
}

TEST_F(CampaignIncrementalFixture, AblationProjectionsEqualRealCampaigns) {
  // Toggle-only detections (termination tgate opens), BIST-only ones
  // (charge-pump bias and switch devices), and cold starts, under which
  // the cp.m_bpd gate open fails its DC solve; in both gate-open
  // conventions (the pessimistic one simulates two variants per gate open).
  for (const bool pessimistic : {false, true}) {
    SCOPED_TRACE(pessimistic ? "pessimistic" : "bulk-leak");
    CampaignOptions opts;
    opts.prefixes = {"cp.m_bpd", "cp.m_swdnb", "term.termp.m_tg"};
    opts.num_threads = 4;
    opts.reuse_golden = false;
    opts.pessimistic_gate_opens = pessimistic;
    CampaignOptions full = opts;
    full.adaptive_stage_order = false;
    const CampaignReport r = run_campaign(*golden_, full);
    ASSERT_TRUE(r.complete);
    std::size_t failed = 0;
    for (const FaultOutcome& o : r.outcomes) failed += anomalous(o.record);
    EXPECT_GT(failed, 0u) << "no failed solve to project";

    CampaignOptions no_toggle = opts;
    no_toggle.with_scan_toggle = false;
    const CampaignReport toggle_dropped =
        project_report(r, kAllSubStages & ~sub_bit(kSubToggle));
    expect_same_partition(run_campaign(*golden_, no_toggle), toggle_dropped);
    EXPECT_LT(toggle_dropped.total.cum_all.detected, r.total.cum_all.detected);

    CampaignOptions no_bist = opts;
    no_bist.with_bist = false;
    const CampaignReport bist_dropped = project_report(r, kAllSubStages & ~kBistSubStages);
    expect_same_partition(run_campaign(*golden_, no_bist), bist_dropped);
    EXPECT_LT(bist_dropped.total.cum_all.detected, r.total.cum_all.detected);

    // Keeping every sub-stage reproduces the run itself.
    const CampaignReport all = project_report(r, kAllSubStages);
    expect_same_partition(r, all);
    EXPECT_EQ(report_canonical_jsonl(all), report_canonical_jsonl(r));
  }
}

}  // namespace
}  // namespace lsl::dft
