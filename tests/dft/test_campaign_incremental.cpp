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
