// What one test stage observed, sub-stage by sub-stage, and the one rule
// that decides a detection.
//
// The paper's three test stages are six sub-stages: the DC test; the
// scan test's charge-pump scan, static scan capture and toggle test; the
// BIST's at-speed verdict and post-lock CP-BIST readout. Each stage
// records per sub-stage whether it ran, detected or failed a solve, and
// its observations as signature marks: '0'/'1' solid levels or bits,
// 'w' a mid-rail comparator output, '!' a failed solve, '-' a sub-stage
// that did not run ('!' and '-' fill the width kSubStageMarkWidth).
//
// The golden machine is one more run of the same stage functions. A
// sub-stage detects when its marks conflict with the golden's at the
// same position: a solid '0' against a solid '1' ('w', '!' and '-'
// conflict with nothing), at a compared position (see compared()).
#pragma once

#include <array>
#include <span>
#include <string>

#include "cells/link_frontend.hpp"
#include "spice/solve_status.hpp"

namespace lsl::dft {

/// Sub-stages in signature order (the BIST runs its verdict first).
enum SubStage : unsigned {
  kSubDc = 0,       // DC test, both vectors, closed loop
  kSubCpScan,       // charge-pump scan captures
  kSubScanStatic,   // static scan observations, both vectors
  kSubToggle,       // 100 MHz toggle-test strobes
  kSubCpBistRead,   // post-lock CP-BIST readout at each Vc level
  kSubBistVerdict,  // at-speed BIST verdict flags
  kSubStageCount,
};

constexpr unsigned sub_bit(SubStage s) { return 1u << s; }
constexpr unsigned kAllSubStages = (1u << kSubStageCount) - 1u;
constexpr unsigned kBistSubStages = sub_bit(kSubCpBistRead) | sub_bit(kSubBistVerdict);
constexpr std::array<std::size_t, kSubStageCount> kSubStageMarkWidth = {20, 10, 20, 1, 6, 4};

/// The test stages, in the order the campaign runs them (the order of
/// the cumulative Table-I columns).
enum Stage : unsigned { kStageDc = 0, kStageScan, kStageBist, kStageCount };

/// Each stage's sub-stages in the order the stage runs them.
inline constexpr SubStage kDcRunOrder[] = {kSubDc};
inline constexpr SubStage kScanRunOrder[] = {kSubCpScan, kSubScanStatic, kSubToggle};
inline constexpr SubStage kBistRunOrder[] = {kSubBistVerdict, kSubCpBistRead};
inline constexpr std::array<std::span<const SubStage>, kStageCount> kStageRunOrder = {
    kDcRunOrder, kScanRunOrder, kBistRunOrder};

/// One level mark per LinkObservation bit.
inline std::string observation_marks(const cells::LinkObservation& o) {
  std::string marks;
  for (const double v : o.volts) marks += v > 2.0 * o.vdd / 3.0 ? '1' : v < o.vdd / 3.0 ? '0' : 'w';
  return marks;
}
/// Two bit marks per (hi, lo) pair.
template <class Pairs>
std::string pair_marks(const Pairs& pairs) {
  std::string marks;
  for (const auto& [hi, lo] : pairs) marks += {hi ? '1' : '0', lo ? '1' : '0'};
  return marks;
}

/// The compare mask: whether position `pos` of sub-stage `s`'s marks
/// takes part in the detection rule. Every position does, except the
/// CP-BIST window bits (kBistHi/kBistLo) of each LinkObservation in the
/// DC and static scan captures: that comparator only carries meaning
/// after lock, so the at-speed BIST owns it.
constexpr bool compared(SubStage s, std::size_t pos) {
  using Obs = cells::LinkObservation;
  if (s != kSubDc && s != kSubScanStatic) return true;
  const std::size_t bit = pos % Obs::kBitCount;
  return bit != Obs::kBistHi && bit != Obs::kBistLo;
}

/// A solid '0' against a solid '1'.
constexpr bool marks_conflict(char a, char b) {
  return (a == '0' && b == '1') || (a == '1' && b == '0');
}

/// Walking `run_order`, true when the first sub-stage that detected or
/// failed a solve detected. (A sub-stage's detection bit already means
/// "before any failed solve inside it".)
inline bool stage_detects(unsigned detected, unsigned failed,
                          std::span<const SubStage> run_order) {
  for (const SubStage s : run_order) {
    if ((detected & sub_bit(s)) != 0) return true;
    if ((failed & sub_bit(s)) != 0) return false;
  }
  return false;
}

/// Result of one test stage (DC, scan or BIST) on a (faulted) frontend.
struct StageOutcome {
  /// Genuine signature conflict with the golden outcome before the
  /// stage's first failed solve (stage_detects over its sub-stages).
  bool detected = false;
  /// A solve failed: the verdict is not trustworthy.
  bool anomalous = false;
  /// Status of the first failed solve (kConverged when all converged).
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  /// Newton iterations spent in this stage (campaign budget accounting).
  long iterations = 0;
  /// sub_bit masks: sub-stages that ran, detected, failed a solve.
  unsigned sub_run = 0;
  unsigned sub_detected = 0;
  unsigned sub_failed = 0;
  /// Signature marks of every sub-stage that ran (a sub-stage stopped
  /// part-way has fewer marks than its '-'-padded width).
  std::array<std::string, kSubStageCount> marks;
  /// The golden machine's outcome of the same stage, which record()
  /// compares against while the stage runs; null while the golden itself
  /// runs (nothing to compare). finish() clears it.
  const StageOutcome* golden = nullptr;

  /// Appends one observation of sub-stage `s`. It fails when its marks
  /// hold a '!'; it detects when it does not fail, no earlier record of
  /// `s` failed, and some compared position conflicts with the golden's
  /// mark at the same position. The first failure's status becomes the
  /// stage status.
  void record(SubStage s, const std::string& sub_marks, spice::SolveStatus sub_status) {
    const bool fails = sub_marks.find('!') != std::string::npos;
    if (!fails && (sub_failed & sub_bit(s)) == 0 && golden != nullptr) {
      const std::string& ref = golden->marks[s];
      for (std::size_t i = 0, pos = marks[s].size(); i < sub_marks.size(); ++i, ++pos) {
        if (pos < ref.size() && compared(s, pos) && marks_conflict(sub_marks[i], ref[pos])) {
          sub_detected |= sub_bit(s);
          break;
        }
      }
    }
    if (fails && sub_failed == 0) status = sub_status;
    if (fails) sub_failed |= sub_bit(s);
    sub_run |= sub_bit(s);
    marks[s] += sub_marks;
  }
  /// Where a stage stops unless it runs in full evaluation: a sub-stage
  /// has detected or failed a solve.
  bool stops(bool full_evaluation) const {
    return !full_evaluation && (sub_detected | sub_failed) != 0;
  }
  /// Sets `detected` and `anomalous` from the sub-stage masks of stage
  /// `stage` and drops the golden pointer.
  void finish(Stage stage) {
    detected = stage_detects(sub_detected, sub_failed, kStageRunOrder[stage]);
    anomalous = sub_failed != 0;
    golden = nullptr;
  }
};

}  // namespace lsl::dft
