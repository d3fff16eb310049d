#include "dft/dc_test.hpp"

#include <gtest/gtest.h>

#include "fault/structural.hpp"

namespace lsl::dft {
namespace {

class DcTestFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The DC test runs with the coarse loop closed (mission-mode DC
    // operating point), as in the campaign.
    cells::LinkFrontendSpec spec;
    spec.close_coarse_loop = true;
    golden_ = new cells::LinkFrontend(spec);
    ref_ = new DcTestOutcome(run_dc_test(*golden_, {}, {}, nullptr, /*full_evaluation=*/true));
  }
  static void TearDownTestSuite() {
    delete golden_;
    delete ref_;
    golden_ = nullptr;
    ref_ = nullptr;
  }

  cells::LinkFrontend faulted(const fault::StructuralFault& f,
                              fault::OpenLeak leak = fault::OpenLeak::kToGround) {
    cells::LinkFrontend fe = *golden_;
    const auto vdd = *fe.netlist().find_node("vdd");
    EXPECT_TRUE(fault::inject(fe.netlist(), f, leak, vdd));
    return fe;
  }

  static cells::LinkFrontend* golden_;
  static DcTestOutcome* ref_;
};

cells::LinkFrontend* DcTestFixture::golden_ = nullptr;
DcTestOutcome* DcTestFixture::ref_ = nullptr;

TEST_F(DcTestFixture, ReferenceIsValidAndToggles) {
  using Obs = cells::LinkObservation;
  ASSERT_FALSE(ref_->anomalous());
  const std::string& m = ref_->marks[kSubDc];
  ASSERT_EQ(m.size(), 2 * Obs::kBitCount);
  // The data comparators must toggle between the two vectors — the basis
  // of the whole DC test.
  // Data = 1: P arm above the bias, N arm below; data = 0 mirrors.
  EXPECT_EQ(m[Obs::kPHi], '1');
  EXPECT_EQ(m[Obs::kPLo], '0');
  EXPECT_EQ(m[Obs::kNHi], '0');
  EXPECT_EQ(m[Obs::kNLo], '1');
  EXPECT_EQ(m[Obs::kBitCount + Obs::kPLo], '1');
  EXPECT_EQ(m[Obs::kBitCount + Obs::kNHi], '1');
}

TEST_F(DcTestFixture, GoldenPassesItsOwnTest) {
  const DcTestOutcome out = run_dc_test(*golden_, *ref_);
  EXPECT_FALSE(out.detected());
  EXPECT_FALSE(out.anomalous());
}

TEST_F(DcTestFixture, FfeCapShortDetected) {
  // The paper: "Any fault in the weak driver or the series capacitors
  // ... results in a mismatch ... detected by the comparators."
  const auto out = run_dc_test(faulted({"tx.p.c_main", fault::FaultClass::kCapacitorShort}),
                               *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(DcTestFixture, WeakDriverDsShortDetected) {
  const auto out = run_dc_test(
      faulted({"tx.n.m_drvp", fault::FaultClass::kDrainSourceShort}), *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(DcTestFixture, TerminationBiasFaultDetectedViaWindowComparator) {
  // Shorting the receiver bias divider shifts vmid_rx away from the
  // clock-recovery bias: the Fig-6 window comparator flags it.
  cells::LinkFrontend fe = *golden_;
  auto& nl = fe.netlist();
  const auto ri = nl.find_device("term.r_divt");
  ASSERT_TRUE(ri.has_value());
  std::get<spice::Resistor>(nl.device(*ri).impl).ohms = 1.0;  // collapsed divider
  const auto out = run_dc_test(fe, *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(DcTestFixture, TgateDrainOpenEscapesDc) {
  // The paper's canonical DC escape: a drain open in ONE device of the
  // transmission-gate termination leaves the DC solution intact (the
  // parallel device still conducts); only the dynamic test sees it.
  const auto out = run_dc_test(faulted({"term.termp.m_tgn", fault::FaultClass::kDrainOpen}),
                               *ref_);
  EXPECT_FALSE(out.detected());
}

TEST_F(DcTestFixture, PumpSwitchFaultInvisibleAtDcTest) {
  // With the pumps idle during the DC vectors, a weak-pump switch open
  // has nothing to disturb — it is scan/BIST territory.
  const auto out = run_dc_test(faulted({"cp.m_swup", fault::FaultClass::kDrainOpen}), *ref_);
  EXPECT_FALSE(out.detected());
}

}  // namespace
}  // namespace lsl::dft
