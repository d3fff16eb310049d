// The paper's BIST (Section III): run the link at speed with random
// data; the receiver must lock within 2 us; the 3-bit saturating lock
// detector must not saturate; and after lock the CP-BIST window
// comparator must confirm the charge-balance node tracks Vc.
//
// For a structurally faulted frontend, the analog fault characterization
// (fault/characterize) maps the faulted netlist onto behavioral link
// parameters and the at-speed loop runs on those — the standard
// mixed-signal fault-simulation flow.
#pragma once

#include <array>
#include <string>

#include "cells/link_frontend.hpp"
#include "dft/stage_outcome.hpp"
#include "fault/characterize.hpp"
#include "link/link.hpp"
#include "spice/solve_status.hpp"

namespace lsl::dft {

using BistTestOutcome = StageOutcome;

struct BistTestReference {
  fault::FrontendMeasurements golden;
  lsl::link::LinkParams base;       // healthy behavioral parameters
  lsl::link::BistVerdict verdict;   // golden BIST result (must pass)
  /// The golden machine's own BIST outcome: the marks of `verdict` and
  /// of the CP-BIST comparator bits read from the structural netlist at
  /// a set of locked operating points — lock can settle anywhere inside
  /// the window, and Vp must track Vc across all of it, so the readout
  /// strobes several Vc levels. run_bist_test compares a fault's marks
  /// with these.
  StageOutcome outcome;
  /// Every golden solve converged and the golden verdict passes.
  bool valid = false;
};

/// The Vc levels the CP-BIST readout strobes (inside the window).
const std::array<double, 3>& cp_bist_vc_levels();

/// Reads the CP-BIST comparator decisions with Vc clamped at `vc`.
/// Returns false on non-convergence; `status`/`iterations` (when
/// non-null) receive the solver status and Newton iteration count.
/// `hints` (optional): golden warm-start seeds / seed capture, keyed
/// "bist.vc.<vc>"; decisions are identical with or without it.
bool read_cp_bist_bits(const cells::LinkFrontend& fe, double vc, bool& hi, bool& lo,
                       const spice::DcOptions& solve = {},
                       spice::SolveStatus* status = nullptr, long* iterations = nullptr,
                       const spice::SolveHints* hints = nullptr);

/// Captures the golden measurements, runs the healthy BIST and reads
/// the golden CP-BIST bits (stopping at the first level that fails to
/// solve). The BIST scan-preloads a far-off coarse phase so acquisition
/// is genuinely exercised.
BistTestReference bist_test_reference(const cells::LinkFrontend& golden,
                                      const lsl::link::LinkParams& base = {},
                                      const spice::SolveHints* hints = nullptr);

/// Signature marks of the BIST verdict flags (locked in budget, lock
/// counter, CP-BIST, data).
std::string signature_marks(const lsl::link::BistVerdict& verdict);

/// Characterizes the faulted frontend and runs the at-speed BIST
/// (sub-stage kSubBistVerdict), then strobes the CP-BIST readout at
/// each Vc level (kSubCpBistRead), each compared with the golden's
/// `ref.outcome`. `solve` sets the Newton options of
/// the characterization solves. A characterization that fails to
/// solve ends the test, and so does the first readout level that fails,
/// unless `full_evaluation` asks for every sub-stage and level anyway.
BistTestOutcome run_bist_test(const cells::LinkFrontend& fe, const BistTestReference& ref,
                              const spice::DcOptions& solve = {},
                              const spice::SolveHints* hints = nullptr,
                              bool full_evaluation = false);

}  // namespace lsl::dft
