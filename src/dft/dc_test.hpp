// The paper's DC test: two static vectors (interconnect data at logic 1
// and at logic 0) applied to the full analog link, observed through the
// offset comparators that the DFT adds at the receiver (Fig 4/5) and
// the charge-pump/CP-BIST comparators whose outputs land in scan flops.
// A fault is detected when any captured comparator decision conflicts
// with the fault-free machine's on either vector (the rule and its
// compare mask live in dft/stage_outcome.hpp). A solve that fails leaves
// `detected` false and flags the outcome anomalous with the structured
// solver status — the campaign layer decides whether to quarantine.
#pragma once

#include "cells/link_frontend.hpp"
#include "dft/stage_outcome.hpp"
#include "spice/seed.hpp"
#include "spice/solve_status.hpp"

namespace lsl::dft {

using DcTestOutcome = StageOutcome;

/// Runs the two-vector DC test on a (faulted) frontend: one kSubDc
/// sub-stage, marks of both vectors, each compared with `golden` — the
/// outcome of this same function on the golden frontend. Pass an empty
/// outcome ({}) to run the golden itself: nothing is compared, and
/// with `full_evaluation` both vectors always run. `solve` lets the
/// campaign thread per-fault budgets (timeout) into every solve.
/// `hints` (optional) supplies golden warm-start seeds and records
/// converged operating points under the "dc.1"/"dc.0" seed keys;
/// results are identical with or without it. The test stops after
/// vector 1 when it detects or fails to solve, unless `full_evaluation`
/// asks for both vectors anyway.
DcTestOutcome run_dc_test(const cells::LinkFrontend& fe, const DcTestOutcome& golden,
                          const spice::DcOptions& solve = {},
                          const spice::SolveHints* hints = nullptr,
                          bool full_evaluation = false);

}  // namespace lsl::dft
