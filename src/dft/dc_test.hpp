// The paper's DC test: two static vectors (interconnect data at logic 1
// and at logic 0) applied to the full analog link, observed through the
// offset comparators that the DFT adds at the receiver (Fig 4/5) and
// the charge-pump/CP-BIST comparators whose outputs land in scan flops.
// A fault is detected when any captured comparator decision differs from
// the fault-free machine on either vector. A solve that fails leaves
// `detected` false and flags the outcome anomalous with the structured
// solver status — the campaign layer decides whether to quarantine.
#pragma once

#include "cells/link_frontend.hpp"
#include "dft/stage_outcome.hpp"
#include "spice/seed.hpp"
#include "spice/solve_status.hpp"

namespace lsl::dft {

/// Fault-free reference for the DC test (one solve pass, reused across
/// the whole campaign). `hints` (optional) records the golden operating
/// points into hints->capture under the "dc.1"/"dc.0" seed keys for the
/// incremental campaign's warm starts.
struct DcTestReference {
  cells::LinkObservation obs1;  // data = 1
  cells::LinkObservation obs0;  // data = 0
  bool valid = false;
};

DcTestReference dc_test_reference(const cells::LinkFrontend& golden,
                                  const spice::SolveHints* hints = nullptr);

using DcTestOutcome = StageOutcome;

/// Runs the two-vector DC test on a (faulted) frontend: one kSubDc
/// sub-stage, marks of both vectors. `solve` lets the campaign thread
/// per-fault budgets (timeout) into every solve. `hints` (optional)
/// supplies golden warm-start seeds; results are identical with or
/// without it. The test stops after vector 1 when it detects or fails
/// to solve, unless `full_evaluation` asks for both vectors anyway.
DcTestOutcome run_dc_test(const cells::LinkFrontend& fe, const DcTestReference& ref,
                          const spice::DcOptions& solve = {},
                          const spice::SolveHints* hints = nullptr,
                          bool full_evaluation = false);

}  // namespace lsl::dft
