// What one test stage observed, sub-stage by sub-stage, the one rule
// that decides a detection, and the one derivation of a stage's result
// from a fault's sub-stage records (stage_result).
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

#include <algorithm>
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

/// What one simulation of the stages recorded: sub_bit masks of the
/// sub-stages that ran, detected (before any failed solve inside them)
/// and failed a solve.
struct SubStageRecord {
  unsigned run = 0;
  unsigned detected = 0;
  unsigned failed = 0;
  bool operator==(const SubStageRecord&) const = default;
};

/// A fault's records, one per simulated leak variant: one normally, two
/// for a gate open under the pessimistic convention (to-ground, then
/// to-VDD). Fixed-size; it reads as a span of its records.
struct VariantRecords {
  std::array<SubStageRecord, 2> slot{};
  std::size_t count = 0;

  void add(const SubStageRecord& r) {
    slot.at(count) = r;
    ++count;
  }
  const SubStageRecord* begin() const { return slot.data(); }
  const SubStageRecord* end() const { return slot.data() + count; }
  bool operator==(const VariantRecords&) const = default;
};

/// A stage's result on a fault.
enum class StageResult { kNotRun, kPassed, kDetected };

/// The one derivation of a stage's result from the records of every
/// simulated leak variant. The stage ran when some variant ran one of
/// its sub-stages. It detects when stage_detects holds in every variant
/// — with two variants, the pessimistic convention's AND of stage
/// results, which no early stop inside either variant can change.
inline StageResult stage_result(std::span<const SubStageRecord> variants, Stage stage) {
  bool ran = false;
  bool detects = !variants.empty();
  for (const SubStageRecord& r : variants) {
    for (const SubStage s : kStageRunOrder[stage]) ran = ran || (r.run & sub_bit(s)) != 0;
    detects = detects && stage_detects(r.detected, r.failed, kStageRunOrder[stage]);
  }
  return detects ? StageResult::kDetected : ran ? StageResult::kPassed : StageResult::kNotRun;
}

/// Some stage detects: the detection a verdict rests on.
inline bool detected(std::span<const SubStageRecord> variants) {
  return std::ranges::any_of(std::array{kStageDc, kStageScan, kStageBist}, [&](Stage s) {
    return stage_result(variants, s) == StageResult::kDetected;
  });
}

/// Some variant failed a solve: the verdict is not trustworthy unless
/// a stage detected anyway.
inline bool anomalous(std::span<const SubStageRecord> variants) {
  return std::ranges::any_of(variants, [](const SubStageRecord& r) { return r.failed != 0; });
}

/// Result of one test stage (DC, scan or BIST) on a (faulted) frontend.
struct StageOutcome {
  /// Status of the first failed solve (kConverged when all converged).
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  /// Newton iterations spent in this stage (campaign budget accounting).
  long iterations = 0;
  /// The stage's sub-stages that ran, detected, failed a solve.
  SubStageRecord sub;
  /// Signature marks of every sub-stage that ran (a sub-stage stopped
  /// part-way has fewer marks than its '-'-padded width).
  std::array<std::string, kSubStageCount> marks;
  /// The golden machine's outcome of the same stage, which record()
  /// compares against while the stage runs; null while the golden itself
  /// runs (nothing to compare). finish() clears it.
  const StageOutcome* golden = nullptr;

  /// Genuine signature conflict with the golden outcome before the
  /// stage's first failed solve (stage_result over its record).
  bool detected() const { return dft::detected({&sub, 1}); }
  /// A solve failed: the verdict is not trustworthy.
  bool anomalous() const { return dft::anomalous({&sub, 1}); }

  /// Appends one observation of sub-stage `s`. It fails when its marks
  /// hold a '!'; it detects when it does not fail, no earlier record of
  /// `s` failed, and some compared position conflicts with the golden's
  /// mark at the same position. The first failure's status becomes the
  /// stage status.
  void record(SubStage s, const std::string& sub_marks, spice::SolveStatus sub_status) {
    const bool fails = sub_marks.find('!') != std::string::npos;
    if (!fails && (sub.failed & sub_bit(s)) == 0 && golden != nullptr) {
      const std::string& ref = golden->marks[s];
      for (std::size_t i = 0, pos = marks[s].size(); i < sub_marks.size(); ++i, ++pos) {
        if (pos < ref.size() && compared(s, pos) && marks_conflict(sub_marks[i], ref[pos])) {
          sub.detected |= sub_bit(s);
          break;
        }
      }
    }
    if (fails && sub.failed == 0) status = sub_status;
    if (fails) sub.failed |= sub_bit(s);
    sub.run |= sub_bit(s);
    marks[s] += sub_marks;
  }
  /// Where a stage stops unless it runs in full evaluation: a sub-stage
  /// has detected or failed a solve.
  bool stops(bool full_evaluation) const {
    return !full_evaluation && (sub.detected | sub.failed) != 0;
  }
  /// Drops the golden pointer once the stage has run.
  void finish() { golden = nullptr; }
};

}  // namespace lsl::dft
