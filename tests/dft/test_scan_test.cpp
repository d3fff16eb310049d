#include "dft/scan_test.hpp"

#include <gtest/gtest.h>

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
