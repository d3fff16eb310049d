#include "dft/scan_test.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <variant>

#include "fault/structural.hpp"

namespace lsl::dft {
namespace {

class ScanTestFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new cells::LinkFrontend();
    ref_ = new ScanTestOutcome(
        run_scan_test(*golden_, {}, {}, nullptr, /*full_evaluation=*/true));
  }
  static void TearDownTestSuite() {
    delete golden_;
    delete ref_;
    golden_ = nullptr;
    ref_ = nullptr;
  }

  cells::LinkFrontend faulted(const fault::StructuralFault& f) {
    cells::LinkFrontend fe = *golden_;
    const auto vdd = *fe.netlist().find_node("vdd");
    EXPECT_TRUE(fault::inject(fe.netlist(), f, fault::OpenLeak::kToGround, vdd));
    return fe;
  }

  static cells::LinkFrontend* golden_;
  static ScanTestOutcome* ref_;
};

cells::LinkFrontend* ScanTestFixture::golden_ = nullptr;
ScanTestOutcome* ScanTestFixture::ref_ = nullptr;

/// The first charge-pump combo whose (hi, lo) marks conflict with the
/// golden's; the combo count when none does.
std::size_t first_conflicting_combo(const std::string& marks, const std::string& golden) {
  for (std::size_t i = 0; i < marks.size() && i < golden.size(); ++i) {
    if (marks_conflict(marks[i], golden[i])) return i / 2;
  }
  return kSubStageMarkWidth[kSubCpScan] / 2;
}

TEST_F(ScanTestFixture, CpScanStopsAtTheDecidingCombo) {
  // The weak UP switch open: the UP combo cannot drive Vc high.
  const auto fe = faulted({"cp.m_swup", fault::FaultClass::kDrainOpen});
  const ScanTestOutcome full = run_scan_test(fe, *ref_, {}, nullptr, /*full_evaluation=*/true);
  const std::string& all = full.marks[kSubCpScan];
  ASSERT_EQ(all.size(), kSubStageMarkWidth[kSubCpScan]);
  const std::size_t k = first_conflicting_combo(all, ref_->marks[kSubCpScan]);
  ASSERT_LT(2 * (k + 1), all.size()) << all;  // a later combo is left to skip

  const ScanTestOutcome out = run_scan_test(fe, *ref_);
  EXPECT_EQ(out.marks[kSubCpScan], all.substr(0, 2 * (k + 1)));
  EXPECT_EQ(out.sub.run, sub_bit(kSubCpScan));
  EXPECT_EQ(out.sub.detected, sub_bit(kSubCpScan));
  EXPECT_EQ(out.sub.failed, 0u);
  EXPECT_LT(out.iterations, full.iterations);
}

TEST_F(ScanTestFixture, CpScanSignatureAppliesEveryCombo) {
  // The public signature runs all five combos, past the deciding one.
  const auto fe = faulted({"cp.m_swup", fault::FaultClass::kDrainOpen});
  const CpScanSignature sig = cp_scan_signature(fe);
  ASSERT_TRUE(sig.valid);
  const ScanTestOutcome full = run_scan_test(fe, *ref_, {}, nullptr, /*full_evaluation=*/true);
  EXPECT_EQ(pair_marks(sig.window), full.marks[kSubCpScan]);
  EXPECT_EQ(pair_marks(cp_scan_signature(*golden_).window), ref_->marks[kSubCpScan]);
}

TEST_F(ScanTestFixture, FailedComboAfterAConflictStillDetects) {
  // The UP switch open conflicts at the UP combo; a non-finite width on
  // the strong UP switch fails a later combo's solve once that switch
  // conducts. The failed combo keeps the earlier marks and '!'-fills
  // the rest, so the conflict before it still detects.
  cells::LinkFrontend fe = faulted({"cp.m_swup", fault::FaultClass::kDrainOpen});
  const std::string finite =
      run_scan_test(fe, *ref_, {}, nullptr, /*full_evaluation=*/true).marks[kSubCpScan];
  auto& nl = fe.netlist();
  const auto upst = nl.find_device("cp.m_swupst");
  ASSERT_TRUE(upst.has_value());
  std::get<spice::Mosfet>(nl.device(*upst).impl).w = std::numeric_limits<double>::quiet_NaN();

  // Full evaluation runs past the conflict into the failed combo.
  const ScanTestOutcome out = run_scan_test(fe, *ref_, {}, nullptr, /*full_evaluation=*/true);
  const std::string& m = out.marks[kSubCpScan];
  const std::size_t failed_at = m.find('!');
  ASSERT_NE(failed_at, std::string::npos) << m;
  ASSERT_EQ(m.size(), kSubStageMarkWidth[kSubCpScan]) << m;
  EXPECT_EQ(failed_at % 2, 0u) << m;
  EXPECT_EQ(m.find_first_not_of('!', failed_at), std::string::npos) << m;
  EXPECT_EQ(m.substr(0, failed_at), finite.substr(0, failed_at));
  ASSERT_LT(2 * first_conflicting_combo(m, ref_->marks[kSubCpScan]), failed_at) << m;
  EXPECT_NE(out.sub.failed & sub_bit(kSubCpScan), 0u) << m;
  EXPECT_NE(out.sub.detected & sub_bit(kSubCpScan), 0u) << m;
  EXPECT_EQ(stage_result({&out.sub, 1}, kStageScan), StageResult::kDetected) << m;
}

TEST_F(ScanTestFixture, GoldenCpSignatureMatchesPaperSemantics) {
  ASSERT_EQ(ref_->sub.failed, 0u);
  // One (hi, lo) mark pair per combo: idle, UP, DN, UPst, DNst.
  const std::string& m = ref_->marks[kSubCpScan];
  ASSERT_EQ(m.size(), 10u);
  // UP drives Vc to VDD: the capture sees Vc above VH -> (hi, lo) = (1, 0).
  EXPECT_EQ(m.substr(2, 2), "10");
  // DN drives Vc to GND -> below VL -> (0, 1).
  EXPECT_EQ(m.substr(4, 2), "01");
}

TEST_F(ScanTestFixture, GoldenPassesItsOwnScanTest) {
  const ScanTestOutcome out = run_scan_test(*golden_, *ref_);
  EXPECT_FALSE(out.detected());
}

TEST_F(ScanTestFixture, PumpSwitchOpenDetectedByCpTest) {
  // The weak UP switch open: scan mode cannot drive Vc high any more.
  const auto out = run_scan_test(faulted({"cp.m_swup", fault::FaultClass::kDrainOpen}), *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(ScanTestFixture, PumpSourceDsShortMaskedInScanMode) {
  // The paper: using the current sources as switches during scan MASKS a
  // drain-source short in the source transistors (they are "always on"
  // in scan mode anyway) — that fault is BIST territory.
  const auto out =
      run_scan_test(faulted({"cp.m_srcp", fault::FaultClass::kDrainSourceShort}), *ref_);
  EXPECT_FALSE(out.detected());
}

TEST_F(ScanTestFixture, ScanInputSwitchFaultDetected) {
  // The tgate that parks the window-comparator input at vmid during scan:
  // a D-S short keeps it permanently connected, so the comparator input
  // no longer follows Vc during the capture phase.
  const auto out = run_scan_test(
      faulted({"cp.sw_md.m_tn", fault::FaultClass::kDrainSourceShort}), *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(ScanTestFixture, TgateDynamicMismatchCaughtByToggle) {
  // The DC-invisible tgate drain open: the toggling pattern at the scan
  // frequency exposes the asymmetric settling.
  const auto fe = faulted({"term.termp.m_tgn", fault::FaultClass::kDrainOpen});
  const auto out = run_scan_test(fe, *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(ScanTestFixture, ToggleSignatureTogglesInGoldenMachine) {
  // The toggle marks are the data_hi strobes, then the data_lo strobes.
  const std::string& m = ref_->marks[kSubToggle];
  ASSERT_EQ(m.find('!'), std::string::npos);
  ASSERT_GE(m.size(), 8u);
  // The line comparator decisions must alternate with the data.
  const std::size_t half = m.size() / 2;
  EXPECT_NE(m.substr(0, half).find('1'), std::string::npos);
  EXPECT_NE(m.substr(half).find('1'), std::string::npos);
}

}  // namespace
}  // namespace lsl::dft
