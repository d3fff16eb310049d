// Primary-input history of serial fault simulation, shared by the
// fault-parallel graders (stuck.cpp) and ATPG's fault dropping
// (atpg.cpp).
//
// Circuit::power_on keeps primary-input values, so a serial loop that
// applies patterns to one fault after another starts each run from the
// inputs the previous run left. The lane-parallel versions of those
// loops reconstruct each fault's start from what the patterns write: a
// pattern writes the same inputs with the same values whatever the
// start, and a stuck input keeps its stuck value after the run (settle
// forces it, and clear_faults does not restore it).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "digital/circuit.hpp"
#include "digital/scan.hpp"
#include "digital/stuck.hpp"

namespace lsl::digital {

/// Which primary inputs a list of patterns writes, and the value each
/// prefix of the list leaves on them.
struct InputHistory {
  explicit InputHistory(const Circuit& c);

  /// Applies `p` fault-free on lane 0 from the Circuit's current inputs
  /// and appends its writes to `leaves`: lanes 1 and 2 enter with every
  /// input at 0 and at 1, and the inputs on which they agree afterwards
  /// are the ones it writes. Returns lane 0's response.
  std::vector<Logic> record(Circuit& c, const std::vector<const ScanChain*>& chains,
                            const MultiScanPattern& p, const std::vector<NetId>& observe_nets);

  std::vector<NetId> inputs;  // every primary input
  /// leaves[k][i]: the value patterns 0..k last wrote to inputs[i], if
  /// any of them wrote it.
  std::vector<std::vector<std::optional<Logic>>> leaves;
};

/// Primary inputs after a fault's run from `start` that stopped at
/// pattern k: what patterns 0..k wrote last, and a stuck input's stuck
/// value.
std::vector<Logic> leave(const InputHistory& h, std::vector<Logic> start, std::size_t k,
                         const StuckFault& f);

/// Puts faults[first + l] on lane l, with primary inputs starts[l].
void load_lanes(Circuit& c, const InputHistory& h, const std::vector<StuckFault>& faults,
                std::size_t first, const std::vector<std::vector<Logic>>& starts);

/// Lanes whose response hard-detects the fault (a known bit differs from
/// a known fault-free bit) or possibly detects it (X where the fault-free
/// bit is known).
struct LaneDetects {
  std::uint64_t hard = 0;
  std::uint64_t possible = 0;
};

LaneDetects classify(const std::vector<Logic>& good, const std::vector<LaneWord>& bad);

inline bool has_lane(std::uint64_t mask, std::size_t lane) { return ((mask >> lane) & 1u) != 0; }

/// Adds the sweeps a grading call makes to the `digital.sim.sweeps`
/// counter, once, when the call returns.
class SweepTally {
 public:
  explicit SweepTally(const Circuit& c) : c_(c), start_(c.sweeps()) {}
  ~SweepTally();
  SweepTally(const SweepTally&) = delete;
  SweepTally& operator=(const SweepTally&) = delete;

 private:
  const Circuit& c_;
  std::uint64_t start_;
};

}  // namespace lsl::digital
