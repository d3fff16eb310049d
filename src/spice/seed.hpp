// Golden-solution seeds and per-solve hints for the incremental fault
// campaign.
//
// A fault campaign solves thousands of near-identical MNA systems: the
// golden netlist plus one small topological edit, under a handful of
// stage stimuli. A SolutionSeed captures one converged golden solution
// *by name* (node voltages keyed by node name, branch currents keyed by
// device name), so it can re-seed a Newton solve on any netlist that
// shares those names — including faulted copies whose unknown ordering
// shifted because the fault edit added nodes or devices. Unmatched
// unknowns start at 0, exactly the cold-start value.
//
// A SeedBank maps stage-stimulus keys ("dc.1", "scan.cp.drive.2", ...)
// to seeds. The campaign builds one bank while computing the golden
// reference signatures and then shares it read-only (via
// std::shared_ptr<const SeedBank>) across all pool workers — the bank
// is immutable after construction, so the sharing cannot reintroduce
// the mutable-reindex-cache race that forced per-worker golden clones.
//
// SolveHints is the one optional knob the DFT stages thread through to
// the solver: where to find seeds (warm starts) and where to record them
// (golden reference capture). Both pointers may be null; a null hints
// pointer means "behave exactly as before".
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "spice/netlist.hpp"

namespace lsl::spice {

/// One converged MNA solution, keyed by node / device names so it can
/// warm-start a solve on any name-compatible netlist.
class SolutionSeed {
 public:
  /// Records solution `x` of `nl` (x must be a full MNA vector for nl;
  /// anything else yields an empty seed).
  static SolutionSeed capture(const Netlist& nl, const std::vector<double>& x);

  /// Maps the seed onto `target`'s unknown ordering. Nodes / branch
  /// devices absent from the seed start at 0 (the cold-start value).
  std::vector<double> initial_guess_for(const Netlist& target) const;

  bool empty() const { return node_v_.empty() && branch_i_.empty(); }

 private:
  std::unordered_map<std::string, double> node_v_;
  std::unordered_map<std::string, double> branch_i_;
};

/// Immutable-after-construction map from stage-stimulus key to seed.
class SeedBank {
 public:
  void put(const std::string& key, SolutionSeed seed);
  /// nullptr when the key was never captured.
  const SolutionSeed* find(const std::string& key) const;
  std::size_t size() const { return seeds_.size(); }

 private:
  std::unordered_map<std::string, SolutionSeed> seeds_;
};

/// Optional per-solve context the DFT stages pass down to the solver.
/// Plain pointers, all nullable; the pointees must outlive the solve.
struct SolveHints {
  /// Read side: golden seeds to warm-start from (campaign fault loop).
  const SeedBank* seeds = nullptr;
  /// Write side: bank to record converged solutions into (golden
  /// reference construction). Mutually exclusive with `seeds` in
  /// practice, but nothing enforces it.
  SeedBank* capture = nullptr;
};

/// Arms the calling thread's SolverWorkspace with seed `key` (if hints,
/// hints->seeds, and the key all exist) so the next solve_dc on that
/// workspace tries a golden warm start before its normal ladder.
/// No-op when anything is missing.
void arm_warm_start(const SolveHints* hints, const std::string& key, const Netlist& target);

/// Records solution `x` of `nl` into hints->capture under `key`.
/// No-op when hints or hints->capture is null or x is not a full MNA
/// vector for nl.
void capture_seed(const SolveHints* hints, const std::string& key, const Netlist& nl,
                  const std::vector<double>& x);

}  // namespace lsl::spice
