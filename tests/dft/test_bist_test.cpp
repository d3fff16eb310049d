#include "dft/bist_test.hpp"

#include <gtest/gtest.h>

#include "fault/structural.hpp"

namespace lsl::dft {
namespace {

class BistTestFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new cells::LinkFrontend();
    ref_ = new BistTestReference(bist_test_reference(*golden_));
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
  static BistTestReference* ref_;
};

cells::LinkFrontend* BistTestFixture::golden_ = nullptr;
BistTestReference* BistTestFixture::ref_ = nullptr;

TEST_F(BistTestFixture, GoldenReferencePasses) {
  ASSERT_TRUE(ref_->valid);
  EXPECT_TRUE(ref_->verdict.pass());
  // The golden's own outcome records the verdict and readout as marks.
  EXPECT_FALSE(ref_->outcome.anomalous());
  EXPECT_EQ(ref_->outcome.marks[kSubBistVerdict], "1111");
  EXPECT_EQ(ref_->outcome.marks[kSubCpBistRead].size(), 2 * cp_bist_vc_levels().size());
  EXPECT_EQ(ref_->outcome.marks[kSubCpBistRead].find_first_not_of("01"), std::string::npos);
}

TEST_F(BistTestFixture, GoldenFrontendPassesBist) {
  const BistTestOutcome out = run_bist_test(*golden_, *ref_);
  EXPECT_FALSE(out.detected());
}

TEST_F(BistTestFixture, PumpSourceDsShortCaughtByBist) {
  // The fault the scan test provably masks: D-S short on the weak pump's
  // current source. At speed it leaks Vc continuously and wrecks lock.
  const auto out = run_bist_test(faulted({"cp.m_swup", fault::FaultClass::kDrainSourceShort}),
                                 *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(BistTestFixture, ReadoutRunsOnlyWhileTheVerdictLeavesItOpen) {
  // The at-speed verdict detects this fault, which decides the stage:
  // the default short circuit skips the readout, full evaluation runs it.
  const auto fe = faulted({"cp.m_swup", fault::FaultClass::kDrainSourceShort});
  const BistTestOutcome out = run_bist_test(fe, *ref_);
  ASSERT_EQ(out.sub.detected, sub_bit(kSubBistVerdict));
  EXPECT_EQ(out.sub.run, sub_bit(kSubBistVerdict));
  EXPECT_TRUE(out.marks[kSubCpBistRead].empty());

  const BistTestOutcome full = run_bist_test(fe, *ref_, {}, nullptr, /*full_evaluation=*/true);
  EXPECT_EQ(full.sub.run, kBistSubStages);
  EXPECT_EQ(full.marks[kSubCpBistRead].size(), kSubStageMarkWidth[kSubCpBistRead]);
  EXPECT_EQ(full.marks[kSubBistVerdict], out.marks[kSubBistVerdict]);
  EXPECT_GT(full.iterations, out.iterations);
}

TEST_F(BistTestFixture, EyeMemoLeavesTheOutcomeUnchanged) {
  // Two faults through one memo: the second run of each hits it.
  link::EyeMemo eyes;
  for (int pass = 0; pass < 2; ++pass) {
    for (const fault::StructuralFault& f :
         {fault::StructuralFault{"cp.m_swup", fault::FaultClass::kDrainSourceShort},
          fault::StructuralFault{"tx.p.c_main", fault::FaultClass::kCapacitorShort}}) {
      const auto fe = faulted(f);
      const BistTestOutcome fresh = run_bist_test(fe, *ref_, {}, nullptr, true);
      const BistTestOutcome memo = run_bist_test(fe, *ref_, {}, nullptr, true, &eyes);
      EXPECT_EQ(memo.marks, fresh.marks) << f.describe();
      EXPECT_EQ(memo.sub, fresh.sub) << f.describe();
      EXPECT_EQ(memo.iterations, fresh.iterations) << f.describe();
    }
  }
}

TEST_F(BistTestFixture, BalancePathFaultCaughtByCpBist) {
  const auto out = run_bist_test(faulted({"cp.m_swdnb", fault::FaultClass::kDrainOpen}), *ref_);
  EXPECT_TRUE(out.detected());
}

TEST_F(BistTestFixture, FfeCapShortWrecksDataPath) {
  // A shorted series cap ties the rail-level tap straight onto the line:
  // the slicer offset it induces swamps the low-swing eye, so the BIST's
  // error-checked burst fails.
  const auto out = run_bist_test(faulted({"tx.p.c_main", fault::FaultClass::kCapacitorShort}),
                                 *ref_);
  EXPECT_TRUE(out.detected());
}

}  // namespace
}  // namespace lsl::dft
