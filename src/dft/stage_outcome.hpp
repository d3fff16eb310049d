// What one test stage observed, sub-stage by sub-stage.
//
// The paper's three test stages are six sub-stages: the DC test; the
// scan test's charge-pump scan, static scan capture and toggle test; the
// BIST's at-speed verdict and post-lock CP-BIST readout. Each stage
// records per sub-stage whether it ran, detected or failed a solve, and
// its observations as signature marks: '0'/'1' solid levels or bits,
// 'w' a mid-rail comparator output, '!' a failed solve, '-' a sub-stage
// that did not run ('!' and '-' fill the width kSubStageMarkWidth).
#pragma once

#include <array>
#include <initializer_list>
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

/// Walking `run_order`, true when the first sub-stage that detected or
/// failed a solve detected. (A sub-stage's detection bit already means
/// "before any failed solve inside it".)
inline bool stage_detects(unsigned detected, unsigned failed,
                          std::initializer_list<SubStage> run_order) {
  for (const SubStage s : run_order) {
    if ((detected & sub_bit(s)) != 0) return true;
    if ((failed & sub_bit(s)) != 0) return false;
  }
  return false;
}

/// Result of one test stage (DC, scan or BIST) on a (faulted) frontend.
struct StageOutcome {
  /// Genuine signature mismatch against the golden reference before the
  /// stage's first failed solve (stage_detects over its sub-stages).
  bool detected = false;
  /// A faulty-machine solve failed: the verdict is not trustworthy.
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

  /// Appends one observation of sub-stage `s`. A detection counts only
  /// before the sub-stage's first failed solve, whose status becomes the
  /// stage status if no earlier sub-stage failed.
  void record(SubStage s, const std::string& sub_marks, bool sub_detects, bool sub_fails,
              spice::SolveStatus sub_status) {
    sub_run |= sub_bit(s);
    if (sub_detects && (sub_failed & sub_bit(s)) == 0) sub_detected |= sub_bit(s);
    if (sub_fails && sub_failed == 0) status = sub_status;
    if (sub_fails) sub_failed |= sub_bit(s);
    marks[s] += sub_marks;
  }
  /// Where a stage stops unless it runs in full evaluation: a sub-stage
  /// has detected or failed a solve.
  bool stops(bool full_evaluation) const {
    return !full_evaluation && (sub_detected | sub_failed) != 0;
  }
  /// Sets `detected` and `anomalous` from the sub-stage masks.
  void finish(std::initializer_list<SubStage> run_order) {
    detected = stage_detects(sub_detected, sub_failed, run_order);
    anomalous = sub_failed != 0;
  }
};

}  // namespace lsl::dft
