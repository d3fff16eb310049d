// Analog fault characterization: measures a (possibly faulted) SPICE-
// level link frontend with a handful of DC solves and maps the result
// onto the behavioral model's parameters. This is the industry-standard
// mixed-signal fault-simulation flow: structural fidelity at the cell
// level, loop dynamics at the behavioral level.
//
// Measurements:
//  - line differential for both data vectors  -> swing scale / offset
//  - pump currents with Vc clamped mid-window -> weak/strong current scales
//  - clamp leakage with pumps idle            -> Vc leakage
//  - balance node voltage                     -> Vp offset / broken balance
//  - window comparator decisions at forced Vc -> stuck / dead flags
#pragma once

#include "behav/pump.hpp"
#include "behav/synchronizer.hpp"
#include "cells/link_frontend.hpp"
#include "link/link.hpp"
#include "spice/seed.hpp"
#include "spice/solve_status.hpp"

namespace lsl::fault {

/// Raw electrical measurements of a frontend.
struct FrontendMeasurements {
  bool converged = true;   // every solve converged
  /// Status of the first failed solve (kConverged when all passed).
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  /// Total Newton iterations across all measurement solves.
  long iterations = 0;
  double diff1 = 0.0;      // line differential, data = 1
  double diff0 = 0.0;      // line differential, data = 0
  double i_up = 0.0;       // weak pump source current into clamped Vc (A)
  double i_dn = 0.0;       // weak pump sink current out of clamped Vc (A)
  double i_upst = 0.0;     // strong pump currents
  double i_dnst = 0.0;
  double leak = 0.0;       // idle current into Vc (A, positive charges up)
  double vp_at_mid = 0.0;  // balance node with Vc clamped mid-window
  bool win_hi_at_high = false;  // window comparator decisions
  bool win_hi_at_mid = false;
  bool win_lo_at_low = false;
  bool win_lo_at_mid = false;
};

/// Measures a frontend (golden or faulted). `solve` sets the Newton
/// options of every measurement solve.
/// `hints` (optional) supplies golden warm-start seeds / seed capture
/// (seed keys "char.line.*", "char.pump.*", "char.win.*"); measurement
/// values are identical with or without it.
FrontendMeasurements measure_frontend(const cells::LinkFrontend& fe,
                                      const spice::DcOptions& solve = {},
                                      const spice::SolveHints* hints = nullptr);

/// Behavioral parameter overrides derived from faulty-vs-golden
/// measurements.
struct BehavioralSignature {
  bool characterized = true;  // false when solves failed to converge
  /// Propagated solver status from the faulty measurements.
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  double swing_scale = 1.0;
  double offset_shift = 0.0;  // differential offset at the slicer (V)
  double i_up_scale = 1.0;
  double i_dn_scale = 1.0;
  double strong_scale = 1.0;
  double leak = 0.0;          // A
  double vp_offset = 0.0;     // V
  bool balance_broken = false;
  behav::SyncFaults sync_faults;
};

BehavioralSignature derive_signature(const FrontendMeasurements& golden,
                                     const FrontendMeasurements& faulty);

/// Applies a signature to link parameters (starting from the healthy
/// defaults) for the behavioral BIST run.
lsl::link::LinkParams apply_signature(const lsl::link::LinkParams& base,
                                      const BehavioralSignature& sig);

}  // namespace lsl::fault
