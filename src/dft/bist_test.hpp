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
#include <utility>

#include "cells/link_frontend.hpp"
#include "fault/characterize.hpp"
#include "link/link.hpp"
#include "spice/solve_status.hpp"

namespace lsl::dft {

struct BistTestOutcome {
  /// Genuine BIST failure / readout mismatch on a characterized circuit.
  bool detected = false;
  bool anomalous = false;        // characterization failed to converge
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
  lsl::link::BistVerdict verdict;
};

struct BistTestReference {
  fault::FrontendMeasurements golden;
  lsl::link::LinkParams base;       // healthy behavioral parameters
  lsl::link::BistVerdict verdict;   // golden BIST result (must pass)
  /// CP-BIST comparator bits read from the structural netlist at a set
  /// of locked operating points — lock can settle anywhere inside the
  /// window, and Vp must track Vc across all of it, so the readout
  /// strobes several Vc levels. One (hi, lo) pair per level.
  std::array<std::pair<bool, bool>, 3> bist_bits{};
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

/// Captures the golden measurements and verifies the healthy BIST
/// passes. The BIST scan-preloads a far-off coarse phase so acquisition
/// is genuinely exercised.
BistTestReference bist_test_reference(const cells::LinkFrontend& golden,
                                      const lsl::link::LinkParams& base = {},
                                      const spice::SolveHints* hints = nullptr);

/// Characterizes the faulted frontend and runs the at-speed BIST.
/// `solve` threads per-fault budgets into the characterization solves.
BistTestOutcome run_bist_test(const cells::LinkFrontend& fe, const BistTestReference& ref,
                              const spice::DcOptions& solve = {},
                              const spice::SolveHints* hints = nullptr);

}  // namespace lsl::dft
