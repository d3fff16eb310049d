#include "dft/stage_outcome.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace lsl::dft {
namespace {

using Obs = cells::LinkObservation;

/// Runs `records` of sub-stage `s` the way a stage function does: each
/// record only while the outcome does not stop (adaptive mode), or all
/// of them (full evaluation).
StageOutcome run_records(const StageOutcome& golden, SubStage s,
                         const std::vector<std::string>& records, bool full_evaluation,
                         Stage stage) {
  StageOutcome out;
  out.golden = &golden;
  for (const std::string& r : records) {
    if (out.stops(full_evaluation)) break;
    out.record(s, r, spice::SolveStatus::kMaxIterations);
  }
  out.finish(stage);
  return out;
}

StageOutcome golden_with(SubStage s, const std::string& marks) {
  StageOutcome g;
  g.record(s, marks, spice::SolveStatus::kConverged);
  return g;
}

TEST(StageOutcome, GoldenFailedAndMidRailMarksConflictWithNothing) {
  const StageOutcome golden = golden_with(kSubCpScan, "!!ww!!ww01");
  // Every solid mark against the golden's '!' and 'w': no detection.
  StageOutcome out = run_records(golden, kSubCpScan, {"0101101001"}, false, kStageScan);
  EXPECT_FALSE(out.detected);
  EXPECT_EQ(out.sub_detected, 0u);
  EXPECT_FALSE(out.anomalous);
  // The golden's solid marks still compare.
  out = run_records(golden, kSubCpScan, {"0101101010"}, false, kStageScan);
  EXPECT_TRUE(out.detected);
  EXPECT_EQ(out.sub_detected, sub_bit(kSubCpScan));
}

TEST(StageOutcome, FaultMidRailMarksConflictWithNothing) {
  const StageOutcome golden = golden_with(kSubToggle, "0101");
  EXPECT_FALSE(run_records(golden, kSubToggle, {"wwww"}, false, kStageScan).detected);
  EXPECT_TRUE(run_records(golden, kSubToggle, {"w0w0"}, false, kStageScan).detected);
}

TEST(StageOutcome, FailedRecordNeverDetectsAndCarriesItsStatus) {
  const StageOutcome golden = golden_with(kSubCpScan, "1010101010");
  const StageOutcome out = run_records(golden, kSubCpScan, {"0101!10101"}, false, kStageScan);
  EXPECT_FALSE(out.detected);
  EXPECT_TRUE(out.anomalous);
  EXPECT_EQ(out.sub_failed, sub_bit(kSubCpScan));
  EXPECT_EQ(out.status, spice::SolveStatus::kMaxIterations);
}

TEST(StageOutcome, CompareMaskSkipsTheCpBistBitsOfStaticObservations) {
  EXPECT_TRUE(compared(kSubDc, Obs::kVcLo));
  EXPECT_FALSE(compared(kSubDc, Obs::kBistHi));
  EXPECT_FALSE(compared(kSubDc, Obs::kBitCount + Obs::kBistLo));
  EXPECT_FALSE(compared(kSubScanStatic, Obs::kBitCount + Obs::kBistHi));
  EXPECT_TRUE(compared(kSubScanStatic, Obs::kBitCount + Obs::kPHi));
  for (std::size_t pos = 0; pos < 32; ++pos) {
    EXPECT_TRUE(compared(kSubCpScan, pos));
    EXPECT_TRUE(compared(kSubToggle, pos));
    EXPECT_TRUE(compared(kSubCpBistRead, pos));
    EXPECT_TRUE(compared(kSubBistVerdict, pos));
  }
}

// --- The rule equals the former voltage comparison ----------------------

/// Oracle: the former LinkObservation::strong_mismatch.
bool oracle_strong_mismatch(double a, double b, double vdd) {
  const double hi = 2.0 * vdd / 3.0;
  const double lo = vdd / 3.0;
  return (a > hi && b < lo) || (a < lo && b > hi);
}

/// Oracle: the former LinkObservation::same_static (the CP-BIST bits
/// are not strobed by the DC and scan tests).
bool oracle_same_static(const Obs& a, const Obs& b) {
  for (std::size_t bit = Obs::kPHi; bit <= Obs::kVcLo; ++bit) {
    if (oracle_strong_mismatch(a.volts[bit], b.volts[bit], a.vdd)) return false;
  }
  return true;
}

TEST(StageOutcome, ConflictRuleEqualsStrongMismatchOnRandomVoltages) {
  std::mt19937_64 rng(14);
  const double vdd = 1.2;
  const double lo = vdd / 3.0;
  const double hi = 2.0 * vdd / 3.0;
  // Exact guard-band edges, their neighbours, the rails, and the rest.
  const std::vector<double> edges = {0.0,
                                     lo,
                                     hi,
                                     vdd,
                                     vdd / 2.0,
                                     std::nextafter(lo, 0.0),
                                     std::nextafter(lo, vdd),
                                     std::nextafter(hi, 0.0),
                                     std::nextafter(hi, vdd)};
  std::uniform_real_distribution<double> uniform(0.0, vdd);
  std::uniform_int_distribution<std::size_t> pick(0, edges.size());
  const auto draw = [&] {
    const std::size_t i = pick(rng);
    return i < edges.size() ? edges[i] : uniform(rng);
  };
  const auto observation = [&] {
    Obs o;
    o.vdd = vdd;
    for (double& v : o.volts) v = draw();
    return o;
  };

  std::size_t fired = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Obs g1 = observation();
    const Obs g0 = observation();
    const Obs f1 = observation();
    // Half the trials perturb one bit of the golden only, so both
    // outcomes of the oracle show up often.
    Obs f0 = g0;
    if (trial % 2 == 0) f0 = observation();
    else f0.volts[pick(rng) % Obs::kBitCount] = draw();

    const bool oracle_detects = !oracle_same_static(f1, g1) || !oracle_same_static(f0, g0);
    fired += oracle_detects;
    for (const SubStage s : {kSubDc, kSubScanStatic}) {
      StageOutcome golden;
      golden.record(s, observation_marks(g1), spice::SolveStatus::kConverged);
      golden.record(s, observation_marks(g0), spice::SolveStatus::kConverged);
      const StageOutcome out = run_records(
          golden, s, {observation_marks(f1), observation_marks(f0)}, true,
          s == kSubDc ? kStageDc : kStageScan);
      ASSERT_EQ((out.sub_detected & sub_bit(s)) != 0, oracle_detects)
          << "trial " << trial << " golden " << golden.marks[s] << " fault " << out.marks[s];
    }
  }
  // The draw exercises both answers.
  EXPECT_GT(fired, 400u);
  EXPECT_LT(fired, 3600u);
}

// --- A failure before a conflict hides the conflict ---------------------

TEST(StageOutcome, CpBistConflictFollowedByFailedLevelIsNoDetection) {
  StageOutcome golden = golden_with(kSubBistVerdict, "1111");
  golden.record(kSubCpBistRead, "101010", spice::SolveStatus::kConverged);
  for (const bool full : {false, true}) {
    // Level 0 conflicts, level 1 fails; adaptive mode stops the readout
    // there, full evaluation reads level 2 too. One record either way.
    const std::string readout = full ? "01!!10" : "01!!";
    StageOutcome out;
    out.golden = &golden;
    out.record(kSubBistVerdict, "1111", spice::SolveStatus::kConverged);
    out.record(kSubCpBistRead, readout, spice::SolveStatus::kSingularMatrix);
    out.finish(kStageBist);
    EXPECT_FALSE(out.detected) << "full evaluation " << full;
    EXPECT_TRUE(out.anomalous);
    EXPECT_EQ(out.sub_detected, 0u);
    EXPECT_EQ(out.status, spice::SolveStatus::kSingularMatrix);
  }
  // Control: the same conflict on a clean readout detects.
  StageOutcome clean;
  clean.golden = &golden;
  clean.record(kSubCpBistRead, "011010", spice::SolveStatus::kConverged);
  clean.finish(kStageBist);
  EXPECT_TRUE(clean.detected);
}

TEST(StageOutcome, DcVectorOneFailureFollowedByVectorZeroConflictIsNoDetection) {
  const std::string v1 = "1001001100";
  const std::string v0 = "0110001100";
  const StageOutcome golden = golden_with(kSubDc, v1 + v0);
  std::string conflicting_v0 = v0;
  conflicting_v0[Obs::kPHi] = '1';
  const std::string failed(Obs::kBitCount, '!');
  for (const bool full : {false, true}) {
    const StageOutcome out =
        run_records(golden, kSubDc, {failed, conflicting_v0}, full, kStageDc);
    EXPECT_FALSE(out.detected) << "full evaluation " << full;
    EXPECT_TRUE(out.anomalous);
    EXPECT_EQ(out.sub_detected, 0u);
    // Adaptive mode stops after the failed vector; full evaluation runs both.
    EXPECT_EQ(out.marks[kSubDc].size(), full ? 2 * Obs::kBitCount : Obs::kBitCount);
  }
  // Control: the same conflict after a clean vector 1 detects.
  EXPECT_TRUE(run_records(golden, kSubDc, {v1, conflicting_v0}, false, kStageDc).detected);
}

TEST(StageOutcome, FinishDropsTheGoldenPointer) {
  const StageOutcome golden = golden_with(kSubDc, std::string(20, '0'));
  const StageOutcome out = run_records(golden, kSubDc, {std::string(10, '0')}, false, kStageDc);
  EXPECT_EQ(out.golden, nullptr);
}

}  // namespace
}  // namespace lsl::dft
