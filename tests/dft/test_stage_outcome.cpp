#include "dft/stage_outcome.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lsl::dft {
namespace {

using Obs = cells::LinkObservation;

/// Runs `records` of sub-stage `s` the way a stage function does: each
/// record only while the outcome does not stop (adaptive mode), or all
/// of them (full evaluation).
StageOutcome run_records(const StageOutcome& golden, SubStage s,
                         const std::vector<std::string>& records, bool full_evaluation) {
  StageOutcome out;
  out.golden = &golden;
  for (const std::string& r : records) {
    if (out.stops(full_evaluation)) break;
    out.record(s, r, spice::SolveStatus::kMaxIterations);
  }
  out.finish();
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
  StageOutcome out = run_records(golden, kSubCpScan, {"0101101001"}, false);
  EXPECT_FALSE(out.detected());
  EXPECT_EQ(out.sub.detected, 0u);
  EXPECT_FALSE(out.anomalous());
  // The golden's solid marks still compare.
  out = run_records(golden, kSubCpScan, {"0101101010"}, false);
  EXPECT_TRUE(out.detected());
  EXPECT_EQ(out.sub.detected, sub_bit(kSubCpScan));
}

TEST(StageOutcome, FaultMidRailMarksConflictWithNothing) {
  const StageOutcome golden = golden_with(kSubToggle, "0101");
  EXPECT_FALSE(run_records(golden, kSubToggle, {"wwww"}, false).detected());
  EXPECT_TRUE(run_records(golden, kSubToggle, {"w0w0"}, false).detected());
}

TEST(StageOutcome, FailedRecordNeverDetectsAndCarriesItsStatus) {
  const StageOutcome golden = golden_with(kSubCpScan, "1010101010");
  const StageOutcome out = run_records(golden, kSubCpScan, {"0101!10101"}, false);
  EXPECT_FALSE(out.detected());
  EXPECT_TRUE(out.anomalous());
  EXPECT_EQ(out.sub.failed, sub_bit(kSubCpScan));
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
      const StageOutcome out =
          run_records(golden, s, {observation_marks(f1), observation_marks(f0)}, true);
      ASSERT_EQ((out.sub.detected & sub_bit(s)) != 0, oracle_detects)
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
    out.finish();
    EXPECT_FALSE(out.detected()) << "full evaluation " << full;
    EXPECT_TRUE(out.anomalous());
    EXPECT_EQ(out.sub.detected, 0u);
    EXPECT_EQ(out.status, spice::SolveStatus::kSingularMatrix);
  }
  // Control: the same conflict on a clean readout detects.
  StageOutcome clean;
  clean.golden = &golden;
  clean.record(kSubCpBistRead, "011010", spice::SolveStatus::kConverged);
  clean.finish();
  EXPECT_TRUE(clean.detected());
}

TEST(StageOutcome, DcVectorOneFailureFollowedByVectorZeroConflictIsNoDetection) {
  const std::string v1 = "1001001100";
  const std::string v0 = "0110001100";
  const StageOutcome golden = golden_with(kSubDc, v1 + v0);
  std::string conflicting_v0 = v0;
  conflicting_v0[Obs::kPHi] = '1';
  const std::string failed(Obs::kBitCount, '!');
  for (const bool full : {false, true}) {
    const StageOutcome out = run_records(golden, kSubDc, {failed, conflicting_v0}, full);
    EXPECT_FALSE(out.detected()) << "full evaluation " << full;
    EXPECT_TRUE(out.anomalous());
    EXPECT_EQ(out.sub.detected, 0u);
    // Adaptive mode stops after the failed vector; full evaluation runs both.
    EXPECT_EQ(out.marks[kSubDc].size(), full ? 2 * Obs::kBitCount : Obs::kBitCount);
  }
  // Control: the same conflict after a clean vector 1 detects.
  EXPECT_TRUE(run_records(golden, kSubDc, {v1, conflicting_v0}, false).detected());
}

TEST(StageOutcome, FinishDropsTheGoldenPointer) {
  const StageOutcome golden = golden_with(kSubDc, std::string(20, '0'));
  const StageOutcome out = run_records(golden, kSubDc, {std::string(10, '0')}, false);
  EXPECT_EQ(out.golden, nullptr);
}

// --- The one derivation: stage results from the records ------------------

constexpr unsigned kScanSubStages =
    sub_bit(kSubCpScan) | sub_bit(kSubScanStatic) | sub_bit(kSubToggle);

TEST(StageOutcome, StageResultTellsDetectedFromPassedFromNotRun) {
  // DC ran and passed, scan detected at its toggle test, BIST skipped.
  const SubStageRecord r{sub_bit(kSubDc) | kScanSubStages, sub_bit(kSubToggle), 0};
  EXPECT_EQ(stage_result({&r, 1}, kStageDc), StageResult::kPassed);
  EXPECT_EQ(stage_result({&r, 1}, kStageScan), StageResult::kDetected);
  EXPECT_EQ(stage_result({&r, 1}, kStageBist), StageResult::kNotRun);
  EXPECT_TRUE(detected({&r, 1}));
  EXPECT_FALSE(anomalous({&r, 1}));
  // No variant at all: nothing ran, nothing detected.
  EXPECT_EQ(stage_result({}, kStageDc), StageResult::kNotRun);
  EXPECT_FALSE(detected({}));
}

TEST(StageOutcome, FailureBeforeADetectionInRunOrderHidesIt) {
  // Scan's CP scan failed a solve, then its toggle test conflicted.
  const SubStageRecord r{kScanSubStages, sub_bit(kSubToggle), sub_bit(kSubCpScan)};
  EXPECT_EQ(stage_result({&r, 1}, kStageScan), StageResult::kPassed);
  EXPECT_FALSE(detected({&r, 1}));
  EXPECT_TRUE(anomalous({&r, 1}));
  // A failure after the detection does not.
  const SubStageRecord later{kScanSubStages, sub_bit(kSubCpScan), sub_bit(kSubToggle)};
  EXPECT_EQ(stage_result({&later, 1}, kStageScan), StageResult::kDetected);
  EXPECT_TRUE(anomalous({&later, 1}));
}

TEST(StageOutcome, TwoVariantsDetectAStageOnlyWhenBothDo) {
  VariantRecords both;
  both.add({sub_bit(kSubDc) | kScanSubStages, sub_bit(kSubDc), 0});
  both.add({sub_bit(kSubDc) | kScanSubStages, sub_bit(kSubCpScan), 0});
  // DC detects in one variant only, scan in the other only: no stage
  // detects in both, so the fault is not detected.
  EXPECT_EQ(stage_result(both, kStageDc), StageResult::kPassed);
  EXPECT_EQ(stage_result(both, kStageScan), StageResult::kPassed);
  EXPECT_FALSE(detected(both));
  // A stage ran when it ran in either variant.
  VariantRecords one_ran;
  one_ran.add({sub_bit(kSubDc), 0, 0});
  one_ran.add({sub_bit(kSubDc) | sub_bit(kSubBistVerdict), 0, 0});
  EXPECT_EQ(stage_result(one_ran, kStageBist), StageResult::kPassed);
  EXPECT_EQ(stage_result(one_ran, kStageScan), StageResult::kNotRun);
}

TEST(StageOutcome, TwoVariantAndIsInvariantUnderEarlyStops) {
  // Variant A's scan detects at the toggle test. Variant B's detects at
  // the CP scan; what B's later scan sub-stages did — nothing (an early
  // stop), passed, or failed a solve — cannot change its stage result,
  // so the AND of the two stage results is the same each time. (An AND
  // of the sub-stage masks would read "not detected" and, with the
  // failure, quarantine the fault.)
  const SubStageRecord a{kScanSubStages, sub_bit(kSubToggle), 0};
  for (const SubStageRecord& b :
       {SubStageRecord{sub_bit(kSubCpScan), sub_bit(kSubCpScan), 0},
        SubStageRecord{kScanSubStages, sub_bit(kSubCpScan), 0},
        SubStageRecord{kScanSubStages, sub_bit(kSubCpScan), sub_bit(kSubScanStatic)}}) {
    VariantRecords v;
    v.add(a);
    v.add(b);
    EXPECT_EQ(stage_result(v, kStageScan), StageResult::kDetected) << b.failed;
    EXPECT_TRUE(detected(v));
    EXPECT_EQ(anomalous(v), b.failed != 0);
  }
}

TEST(StageOutcome, StageOutcomeReadsTheSameDerivation) {
  const StageOutcome golden = golden_with(kSubCpScan, "1010101010");
  const StageOutcome out = run_records(golden, kSubCpScan, {"0010101010"}, false);
  EXPECT_EQ(out.sub.run, sub_bit(kSubCpScan));
  EXPECT_EQ(stage_result({&out.sub, 1}, kStageScan), StageResult::kDetected);
  EXPECT_TRUE(out.detected());
  EXPECT_FALSE(out.anomalous());
}

TEST(StageOutcome, VariantRecordsHoldAtMostTwo) {
  VariantRecords v;
  EXPECT_EQ(std::span<const SubStageRecord>(v).size(), 0u);
  v.add({1, 0, 0});
  v.add({3, 1, 0});
  const std::span<const SubStageRecord> view = v;
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[1], (SubStageRecord{3, 1, 0}));
  EXPECT_THROW(v.add({}), std::out_of_range);
}

}  // namespace
}  // namespace lsl::dft
