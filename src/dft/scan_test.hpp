// The paper's scan test of the analog section (Section II-B):
//
//  1. Charge-pump-as-combinational test: scan mode collapses the pump
//     biases; scan chain A forces the PD to assert UP or DN, which must
//     drive Vc to the corresponding rail. De-asserting scan lets the
//     window comparator capture Vc's level into the scan chain B flops.
//     All four (UP, DN) combinations are applied.
//  2. Static scan capture: the receiver comparator decisions for both
//     data vectors are also observable while scan mode is active —
//     covering the comparator-input scan switches themselves.
//  3. Toggling-pattern test at the scan frequency (100 MHz): a transient
//     that exposes dynamic-mismatch faults (e.g. a drain open in one of
//     the transmission-gate termination devices) that leave the DC
//     solution untouched.
//
// Solver failures inside any procedure invalidate the signature and are
// reported through the structured SolveStatus on the signature / outcome
// instead of being folded into "detected".
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "cells/link_frontend.hpp"
#include "dft/stage_outcome.hpp"
#include "spice/seed.hpp"
#include "spice/solve_status.hpp"

namespace lsl::dft {

/// Captured signature of the charge-pump combinational test: the window
/// comparator decisions after each pump drive. The weak combos come
/// through the PD via scan chain A (idle, UP, DN — never both), the
/// strong combos through the FSM outputs on scan chain B (UPst, DNst).
/// The drives are applied IN SEQUENCE: the loop-filter capacitor holds
/// Vc between drives, so a dead pull path leaves Vc at the previous
/// level instead of floating — which is exactly how the real procedure
/// catches a broken sink after first driving Vc high.
struct CpScanSignature {
  // One (hi, lo) pair per combo: idle, UP, DN, UPst, DNst.
  std::array<std::pair<bool, bool>, 5> window;
  bool valid = false;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
};

/// Applies all five combos, in the same loop that run_scan_test runs
/// combo by combo. `hints` (here and below, optional): golden
/// warm-start seeds and seed capture for golden reference runs. Results
/// are identical with or without it — the hints only change how the
/// same solves are carried out (see spice/seed.hpp). Seed keys:
/// "scan.cp.drive.<i>" / "scan.cp.cap.<i>" per pump combo.
CpScanSignature cp_scan_signature(const cells::LinkFrontend& fe,
                                  const spice::DcOptions& solve = {},
                                  const spice::SolveHints* hints = nullptr);

/// Static scan-mode observations for both data vectors.
struct ScanStaticSignature {
  cells::LinkObservation obs1;
  cells::LinkObservation obs0;
  bool valid = false;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
};

/// Seed keys: "scan.static.1" / "scan.static.0".
ScanStaticSignature scan_static_signature(const cells::LinkFrontend& fe,
                                          const spice::DcOptions& solve = {},
                                          const spice::SolveHints* hints = nullptr);

/// Comparator decisions sampled at the scan clock during the toggling
/// pattern (100 MHz data through the link).
struct ToggleSignature {
  std::vector<bool> data_hi;  // line window comparator, one per sample
  std::vector<bool> data_lo;
  bool valid = false;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
};

/// Two 100 MHz cycles, strobed four times per cycle (scan_test.cpp).
/// Warm-starts the transient's t=0 operating point from the
/// "scan.static.0" seed (scan mode, data low — the toggle's initial
/// state); the per-step path needs no seeding, each step starts from
/// the previous one.
ToggleSignature toggle_signature(const cells::LinkFrontend& fe,
                                 const spice::DcOptions& solve = {},
                                 const spice::SolveHints* hints = nullptr);

using ScanTestOutcome = StageOutcome;

/// Signature marks of each capture: its bits ('0'/'1'; static scan
/// levels '0'/'1'/'w'), or '!' marks when it did not solve.
std::string signature_marks(const ScanStaticSignature& sig);
std::string signature_marks(const ToggleSignature& sig);

/// Full scan test of a (faulted) frontend: sub-stages kSubCpScan,
/// kSubScanStatic and, with `with_toggle`, kSubToggle, in that order,
/// each compared with `golden` — the outcome of this same function on
/// the golden frontend (pass an empty outcome, {}, to run the golden
/// itself). `solve` sets the Newton options of every DC solve and of
/// the transient's per-step Newton. Each charge-pump combo's (hi, lo)
/// pair is recorded as its own observation; a combo that fails to solve
/// keeps the earlier pairs and '!'-fills the rest of the sub-stage, so
/// a conflict before the failure still detects. The test stops at the
/// first combo or sub-stage that detects or fails to solve, unless
/// `full_evaluation` asks for every combo and sub-stage anyway.
ScanTestOutcome run_scan_test(const cells::LinkFrontend& fe, const ScanTestOutcome& golden,
                              const spice::DcOptions& solve = {},
                              const spice::SolveHints* hints = nullptr,
                              bool full_evaluation = false, bool with_toggle = true);

}  // namespace lsl::dft
