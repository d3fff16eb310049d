// The campaign's stage schedule: which (leak variant, stage) pairs one
// fault runs, and in what order. A fault has one leak variant, or two
// for a pessimistic gate open (the bulk leak first). The stages go in
// the fixed DC -> scan -> BIST order, each on the variants in order.
// Adaptively, a variant runs a stage only when every earlier variant's
// run of it detected (stage_result ANDs the variants), and the first
// stage that detects in every variant ends the fault. In full
// evaluation every variant runs every stage. Either way a variant past
// its Newton budget runs no further stage.
//
// Full evaluation quarantines a fault whose opposite leak fails a solve
// (or spends its budget) in a stage the bulk leak passed; the adaptive
// schedule never runs that stage and calls the fault undetected, since
// its AND is false either way. DESIGN.md gives the argument.
#pragma once

#include <array>
#include <cstddef>

#include "dft/stage_outcome.hpp"

namespace lsl::dft {

/// What one (variant, stage) run tells the schedule.
struct StageRun {
  bool detected = false;
  long iterations = 0;
};

/// What the schedule kept of one fault's runs.
struct ScheduleTally {
  /// Newton iterations per leak variant: the budget is per variant.
  std::array<long, 2> iterations{};
  /// Some variant ended past the budget.
  bool budget_blown = false;
  /// (variant, stage) pairs the adaptive schedule did not run: a later
  /// variant's stage an earlier variant did not detect, and every pair
  /// after the stage that ended the fault. A variant stopped by its
  /// budget is not counted.
  std::size_t skips = 0;
};

/// Runs one fault's schedule over `variants` (1 or 2) leak variants and
/// `stages` stages (kStageBist without the BIST, else kStageCount).
/// `run(variant, stage)` runs one stage on one variant and returns a
/// StageRun. `max_newton` is the per-variant Newton budget (0 = none).
template <class Run>
ScheduleTally run_stage_schedule(std::size_t variants, unsigned stages, bool full_evaluation,
                                 long max_newton, Run&& run) {
  ScheduleTally t;
  const auto within_budget = [&](std::size_t v) {
    return max_newton <= 0 || t.iterations[v] <= max_newton;
  };
  for (unsigned stage = kStageDc; stage < stages; ++stage) {
    bool every_variant_detects = true;
    for (std::size_t v = 0; v < variants; ++v) {
      if (!full_evaluation && !every_variant_detects) {
        ++t.skips;
        continue;
      }
      if (!within_budget(v)) {
        every_variant_detects = false;
        continue;
      }
      const StageRun r = run(v, static_cast<Stage>(stage));
      t.iterations[v] += r.iterations;
      every_variant_detects = every_variant_detects && r.detected;
    }
    if (!full_evaluation && every_variant_detects) {
      t.skips += (stages - 1 - stage) * variants;
      break;
    }
  }
  for (std::size_t v = 0; v < variants; ++v) t.budget_blown = t.budget_blown || !within_budget(v);
  return t;
}

}  // namespace lsl::dft
