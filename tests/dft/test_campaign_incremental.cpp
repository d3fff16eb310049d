// Differential tests for the incremental campaign engine: golden
// warm-starts, structural fault collapsing and adaptive stage ordering
// are pure accelerations — the verdict
// partition (detected / undetected / quarantined) and the per-class
// cumulative Table-I coverage must be identical with every mechanism
// on, off, or alone, at any thread count, and across checkpoint/resume.
//
// Per-stage attribution is the one thing short-circuiting is allowed to
// change (a skipped stage reports no detection of its own), so these
// tests compare partitions and cumulative coverage across configs, and
// demand full byte-identity (canonical JSONL) only within one config.
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dft/dictionary.hpp"
#include "util/jsonl.hpp"
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
    EXPECT_EQ(o.dc, r.dc);
    EXPECT_EQ(o.scan, r.scan);
    EXPECT_EQ(o.bist, r.bist);
    EXPECT_EQ(o.verdict, r.verdict);
    EXPECT_EQ(o.newton_iterations, r.newton_iterations);
  }
}

TEST_F(CampaignIncrementalFixture, CheckpointResumePreservesDefaultsRun) {
  const std::string path = testing::TempDir() + "campaign_incremental_resume.jsonl";
  std::remove(path.c_str());

  const CampaignReport full = run_campaign(*golden_, base_opts(1));
  ASSERT_TRUE(full.complete);

  CampaignOptions interrupted = base_opts(2);
  interrupted.checkpoint_path = path;
  int calls = 0;
  interrupted.abort_check = [&calls]() { return ++calls > 4; };
  const CampaignReport partial = run_campaign(*golden_, interrupted);
  ASSERT_FALSE(partial.complete);

  CampaignOptions resumed_opts = base_opts(4);
  resumed_opts.checkpoint_path = path;
  resumed_opts.resume = true;
  const CampaignReport resumed = run_campaign(*golden_, resumed_opts);
  ASSERT_TRUE(resumed.complete);
  expect_same_partition(*baseline_, resumed);
  EXPECT_EQ(report_canonical_jsonl(resumed), report_canonical_jsonl(full));
  std::remove(path.c_str());
}

TEST_F(CampaignIncrementalFixture, StagesRunRecordsWhatActuallyExecuted) {
  const CampaignReport report = run_campaign(*golden_, base_opts(1));
  ASSERT_TRUE(report.complete);
  for (const FaultOutcome& o : report.outcomes) {
    // The DC stage leads the canonical order under uniform priors, so it
    // always runs; BIST is disabled in this universe.
    EXPECT_TRUE(o.stages_run & kStageBitDc) << o.fault.describe();
    EXPECT_FALSE(o.stages_run & kStageBitBist) << o.fault.describe();
    // A stage that never ran cannot claim a detection.
    if (!(o.stages_run & kStageBitScan)) {
      EXPECT_FALSE(o.scan) << o.fault.describe();
    }
  }
}

TEST_F(CampaignIncrementalFixture, DictionaryPriorsKeepThePartitionInvariant) {
  // Non-uniform, dictionary-seeded priors may reorder stages per class;
  // the verdict partition and cum_all must still match (per-stage
  // cumulative columns are order-sensitive by design, so only the
  // order-free figures are compared here).
  DictionaryOptions dopts;
  dopts.prefixes = {"tx."};
  dopts.max_faults = 10;
  dopts.with_toggle = false;
  const FaultDictionary dict = build_dictionary(*golden_, dopts);
  CampaignOptions opts = base_opts(1);
  opts.priors = stage_priors_from_dictionary(dict);
  const CampaignReport report = run_campaign(*golden_, opts);
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(report.outcomes.size(), baseline_->outcomes.size());
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].verdict, baseline_->outcomes[i].verdict)
        << report.outcomes[i].fault.describe();
  }
  EXPECT_EQ(report.total.cum_all.detected, baseline_->total.cum_all.detected);
  EXPECT_EQ(report.total.cum_all.total, baseline_->total.cum_all.total);
}

TEST(StagePriorsFromDictionary, RatesAreLaplaceSmoothedAndBounded) {
  FaultDictionary dict;
  dict.set_golden_signature("00000000000000000000" + std::string(10, '0') +
                            std::string(10, '0'));
  // One fault that differs only in the DC region.
  DictionaryEntry e;
  e.fault = {"m1", fault::FaultClass::kDrainSourceShort};
  e.signature = dict.golden_signature();
  e.signature[3] = '1';
  dict.add(e);
  const StagePriors priors = stage_priors_from_dictionary(dict);
  const auto it = priors.rates.find(fault::FaultClass::kDrainSourceShort);
  ASSERT_NE(it, priors.rates.end());
  // (1 hit + 1) / (1 + 2) for DC; (0 + 1) / (1 + 2) elsewhere.
  EXPECT_DOUBLE_EQ(it->second.dc, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(it->second.scan, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(it->second.bist, 1.0 / 3.0);
  // Unseen classes keep the uninformative default.
  EXPECT_EQ(priors.rates.count(fault::FaultClass::kGateOpen), 0u);
}

}  // namespace
}  // namespace lsl::dft
