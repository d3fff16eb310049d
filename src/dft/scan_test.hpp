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
#include <utility>
#include <vector>

#include "cells/link_frontend.hpp"
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
  bool operator==(const CpScanSignature& o) const { return window == o.window; }
};

/// `hints` (here and below, optional): golden warm-start seeds and seed
/// capture for golden reference runs. Results are identical with or
/// without it — the hints only change how the same solves are carried
/// out (see spice/seed.hpp). Seed keys: "scan.cp.drive.<i>" /
/// "scan.cp.cap.<i>" per pump combo.
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
  /// Scan strobes the same static comparator bits as the DC test (the
  /// CP-BIST bits belong to the post-lock BIST readout).
  bool matches(const ScanStaticSignature& o) const {
    return obs1.same_static(o.obs1) && obs0.same_static(o.obs0);
  }
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
  bool operator==(const ToggleSignature& o) const {
    return data_hi == o.data_hi && data_lo == o.data_lo;
  }
};

struct ToggleOptions {
  double scan_period = 10e-9;  // 100 MHz
  int cycles = 2;
  double dt = 0.1e-9;
  /// Strobes per cycle. The early-in-half-period strobes are the ones
  /// that expose slowed settling (dynamic mismatch); by mid-half-period
  /// a half-dead transmission gate has already caught up.
  int samples_per_cycle = 4;
  /// Wall-clock budget for the toggle transient. 0 = unlimited.
  double timeout_sec = 0.0;
};

/// Warm-starts the transient's t=0 operating point from the
/// "scan.static.0" seed (scan mode, data low — the toggle's initial
/// state); the per-step path needs no seeding, each step starts from
/// the previous one.
ToggleSignature toggle_signature(const cells::LinkFrontend& fe, const ToggleOptions& opts = {},
                                 const spice::DcOptions& solve = {},
                                 const spice::SolveHints* hints = nullptr);

struct ScanTestOutcome {
  /// Genuine signature mismatch against the golden reference.
  bool detected = false;
  /// Non-convergence in the faulty machine: verdict unreliable.
  bool anomalous = false;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
};

/// Reference bundle captured once on the golden frontend.
struct ScanTestReference {
  CpScanSignature cp;
  ScanStaticSignature stat;
  ToggleSignature toggle;
  bool with_toggle = true;
};

ScanTestReference scan_test_reference(const cells::LinkFrontend& golden, bool with_toggle = true,
                                      const ToggleOptions& topts = {},
                                      const spice::SolveHints* hints = nullptr);

/// Full scan test of a (faulted) frontend against the reference.
/// `solve` threads per-fault budgets into every DC solve and the
/// transient's per-step Newton.
ScanTestOutcome run_scan_test(const cells::LinkFrontend& fe, const ScanTestReference& ref,
                              const ToggleOptions& topts = {},
                              const spice::DcOptions& solve = {},
                              const spice::SolveHints* hints = nullptr);

}  // namespace lsl::dft
