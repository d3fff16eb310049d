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
// unknowns start at 0, exactly the cold-start value. The values are
// kept in the captured netlist's order: a fault copy keeps almost every
// name at its golden position, so mapping a seed is mostly one string
// compare per unknown, and only a name that moved is hashed.
//
// A seed may hold more than one solution of its netlist, one frame
// each: a golden transient records one frame per grid point, so the
// seed is the golden's trajectory. A faulted run maps the names once
// (index_map) and then reads every frame through that map.
//
// A SeedBank maps stage-stimulus keys ("dc.1", "scan.cp.drive.2",
// "scan.toggle", ...) to seeds. The campaign builds one bank while
// computing the golden reference signatures and then shares it
// read-only (via std::shared_ptr<const SeedBank>) across all pool
// workers — the bank is immutable after construction, so the sharing
// cannot reintroduce the mutable-reindex-cache race that forced
// per-worker golden clones.
//
// Chained solves. The stages apply their stimuli to a fault in the
// order the golden ran them, each stimulus a source change on one
// netlist. A solve that follows another of the same fault on the same
// netlist starts from that solve's solution plus the golden's change
// between the two stimuli, x_prev + (g[key] − g[prev_key]): the golden
// machine predicts how the stimulus moves the circuit, and the fault's
// own last solution carries what the fault changed. SeedChain does the
// bookkeeping. The chains, each on one netlist copy:
//   dc.1 → dc.0                                          (dc_test)
//   scan.cp.drive.0 → … → scan.cp.drive.4                (scan_test)
//   scan.cp.cap.0 → … → scan.cp.cap.4                    (scan_test)
//   scan.static.1 → scan.static.0 → scan.toggle          (scan_test; the
//       toggle's t = 0 operating point, frame 0 of the trajectory)
//   char.line.1 → char.line.0                            (characterize)
//   char.pump.up → .dn → .idle → .upst → .dnst           (characterize)
//   char.win.high → .mid → .low                          (characterize)
//   bist.vc.0.450000 → bist.vc.0.600000 → bist.vc.0.750000 (bist_test)
// A transient step does the same with consecutive frames of the golden
// trajectory (run_transient).
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

/// Converged MNA solutions of one netlist (one frame each), keyed by
/// node / device names so they can warm-start a solve on any
/// name-compatible netlist.
class SolutionSeed {
 public:
  /// index_map's mark for a target unknown the seed has no name for.
  static constexpr std::size_t kUnmapped = static_cast<std::size_t>(-1);

  /// Records solution `x` of `nl` as the seed's first frame (x must be
  /// a full MNA vector for nl; anything else yields an empty seed), with
  /// room for `frames` frames in all, so appending the rest allocates
  /// nothing more.
  static SolutionSeed capture(const Netlist& nl, const std::vector<double>& x,
                              std::size_t frames = 1);

  /// Appends solution `x` of the captured netlist as the next frame
  /// (ignored unless x has the captured unknown count).
  void append(const std::vector<double>& x);

  /// Maps the first frame onto `target`'s unknown ordering. Nodes /
  /// branch devices absent from the seed start at 0 (the cold-start
  /// value). A target name at its captured position takes its value
  /// directly; any other is looked up by name.
  std::vector<double> initial_guess_for(const Netlist& target) const;

  /// The same name match as an index map: entry i is the position in a
  /// frame of target unknown i's value, or kUnmapped.
  std::vector<std::size_t> index_map(const Netlist& target) const;

  bool empty() const { return values_.empty(); }
  std::size_t frame_count() const { return width_ == 0 ? 0 : values_.size() / width_; }
  /// Frame k's values, in the captured netlist's unknown order.
  const double* frame(std::size_t k) const { return values_.data() + k * width_; }

 private:
  /// Calls fn(target unknown, frame position) for every matched name.
  template <class Fn>
  void match(const Netlist& target, Fn&& fn) const;

  // Node k + 1's name; the k-th branch's device name, in device order.
  std::vector<std::string> node_names_;
  NameIndex node_index_;
  std::vector<std::string> branch_names_;
  NameIndex branch_index_;
  // The frames, each width_ values in the captured netlist's unknown
  // order: node voltages, then branch currents.
  std::size_t width_ = 0;
  std::vector<double> values_;
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

/// The solves one fault runs on one netlist, in the golden's order, as
/// one chain of warm starts. arm() parks the next solve's seed in the
/// calling thread's SolverWorkspace: the golden seed for its key until
/// a solve of the chain has converged, and after that the chained seed
/// x_prev + (g[key] − g[prev_key]) from the last converged solve (an
/// unknown the golden lacks keeps its x_prev value). record() captures
/// a converged solution into hints->capture (the golden run) and makes
/// it the one the next solve follows; a solve that failed leaves the
/// chain where it was. With no hints, or no seed for a key, arm() does
/// nothing and the solve runs its plain ladder.
class SeedChain {
 public:
  explicit SeedChain(const SolveHints* hints) : hints_(hints) {}

  /// Arms the solve `key` on `target`.
  void arm(const std::string& key, const Netlist& target);

  /// Records the armed solve's result: `x` is its solution of `nl`.
  void record(const Netlist& nl, bool converged, const std::vector<double>& x);

 private:
  const SolveHints* hints_;
  std::string key_;       // the armed solve
  std::string prev_key_;  // the last converged solve; x_prev_ is its solution
  std::vector<double> x_prev_;
};

}  // namespace lsl::spice
