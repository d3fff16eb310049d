// Integration tests walking the paper's narrative end to end on small
// fault universes (the full campaign lives in the benches).
#include <gtest/gtest.h>

#include "core/testable_link.hpp"

namespace lsl::core {
namespace {

TEST(Integration, CoverageIsCumulativeAcrossStages) {
  TestableLink link;
  dft::CampaignOptions opts;
  opts.prefixes = {"tx.", "term.term"};  // drivers, caps, tgates
  const auto report = link.run_fault_campaign(opts);
  ASSERT_GT(report.total.cum_all.total, 20u);
  // Monotone progression, as in Section IV.
  EXPECT_LE(report.total.cum_dc.detected, report.total.cum_scan.detected);
  EXPECT_LE(report.total.cum_scan.detected, report.total.cum_all.detected);
  // This subset is the DC test's home turf: the three stages end high.
  EXPECT_GT(report.total.cum_all.percent(), 85.0);
}

TEST(Integration, EveryFfeCapShortCaughtByDc) {
  // The paper: "Any fault in the weak driver or the series capacitors
  // ... detected by the comparators."
  TestableLink link;
  dft::CampaignOptions opts;
  opts.prefixes = {"tx."};
  opts.with_bist = false;
  opts.with_scan_toggle = false;
  const auto report = link.run_fault_campaign(opts);
  const auto it = report.per_class.find(fault::FaultClass::kCapacitorShort);
  ASSERT_NE(it, report.per_class.end());
  EXPECT_DOUBLE_EQ(it->second.cum_dc.percent(), 100.0);
}

TEST(Integration, ScanBistSetsIntersectWithoutContainment) {
  // "The fault sets covered by the scan test and BIST are intersecting
  // but not subsets of each other" — visible even on the pump subset.
  TestableLink link;
  dft::CampaignOptions opts;
  opts.prefixes = {"cp.m_s"};  // sources, switches, steering, scan switches
  // This test measures what each stage *would* detect, so every stage
  // must actually run: disable the detection short-circuit (which only
  // preserves verdicts and cumulative coverage, not per-stage sets).
  opts.adaptive_stage_order = false;
  const auto report = link.run_fault_campaign(opts);
  std::size_t scan_only = 0;
  std::size_t bist_only = 0;
  std::size_t both = 0;
  for (const auto& o : report.outcomes) {
    const bool scan = dft::stage_result(o.record, dft::kStageScan) == dft::StageResult::kDetected;
    const bool bist = dft::stage_result(o.record, dft::kStageBist) == dft::StageResult::kDetected;
    if (scan && !bist) ++scan_only;
    if (bist && !scan) ++bist_only;
    if (scan && bist) ++both;
  }
  EXPECT_GT(scan_only, 0u);
  EXPECT_GT(bist_only, 0u);
  EXPECT_GT(both, 0u);
}

TEST(Integration, PessimisticGateOpensNeverExceedDefault) {
  TestableLink link;
  dft::CampaignOptions fast;
  fast.prefixes = {"cp.m_s"};
  fast.with_scan_toggle = false;
  dft::CampaignOptions pessimistic = fast;
  pessimistic.pessimistic_gate_opens = true;
  const auto a = link.run_fault_campaign(fast);
  const auto b = link.run_fault_campaign(pessimistic);
  const auto ga = a.per_class.at(fault::FaultClass::kGateOpen).cum_all;
  const auto gb = b.per_class.at(fault::FaultClass::kGateOpen).cum_all;
  EXPECT_LE(gb.detected, ga.detected);
}

TEST(Integration, SelfTestAgreesWithCampaignGolden) {
  // The golden machine must pass the exact procedures the campaign uses
  // as references — otherwise every fault would be "detected".
  TestableLink link;
  EXPECT_TRUE(link.self_test().all_pass());
  dft::CampaignOptions opts;
  opts.max_faults = 6;
  opts.with_scan_toggle = false;
  const auto report = link.run_fault_campaign(opts);
  // A tiny universe still produces coherent accounting.
  EXPECT_EQ(report.total.cum_all.total, 6u);
}

}  // namespace
}  // namespace lsl::core
