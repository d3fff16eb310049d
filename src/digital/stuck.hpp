// Single stuck-at fault universe and fault simulation for the
// scan-tested digital control logic. The paper reports 100% stuck-at
// coverage on these blocks ("the circuits are logically simple"); the
// campaign here demonstrates that claim instead of asserting it.
//
// Fault simulation is fault-parallel: each Circuit lane carries one
// fault, so a pass over the patterns grades up to 64 faults. Results
// equal a serial loop that applies the patterns to one fault after
// another on the same Circuit, including how each run depends on the
// primary-input values the previous run left behind (power_on keeps
// them), and the Circuit is left as that loop would leave it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "digital/circuit.hpp"
#include "digital/scan.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lsl::digital {

/// One stuck-at fault site: a net forced to a constant.
struct StuckFault {
  NetId net = 0;
  Logic value = Logic::k0;
  std::string describe(const Circuit& c) const;
};

/// Every net x {s@0, s@1}, minus redundant tie-cell polarities and any
/// net whose name starts with one of `exclude_prefixes` (e.g. blocks the
/// design tests separately, or clock nets outside the stuck-at model).
std::vector<StuckFault> enumerate_stuck_faults(
    const Circuit& c, const std::vector<std::string>& exclude_prefixes = {});

/// Result of a stuck-at campaign. "Hard" detection is a known-vs-known
/// response mismatch; "possible" detection means the faulty machine
/// produced X where the good machine is known (on silicon the X resolves
/// to some value, so repeated application exposes the fault — standard
/// ATPG partial-credit category).
struct StuckCampaignResult {
  util::Coverage hard;      // hard detects over the full universe
  util::Coverage combined;  // hard + possible detects
  std::vector<StuckFault> undetected;  // not even possibly detected
};

/// A scan test pattern over one or more chains (designs with separate
/// data / control scan chains, like the paper's chain A and chain B):
/// each chain's load value plus the primary-input values applied
/// before capture.
struct MultiScanPattern {
  std::vector<std::vector<Logic>> chain_loads;  // one per chain, flop order
  std::vector<std::pair<NetId, Logic>> pi_values;
  int capture_cycles = 1;
};

/// Loads every chain, applies PIs, captures, reads every chain; returns
/// the concatenated responses. `observe_nets` are primary outputs (or
/// analog hand-off points like the PD's UP/DN) sampled after the capture
/// settle and appended to the response.
std::vector<Logic> apply_pattern_multi(Circuit& c, const std::vector<const ScanChain*>& chains,
                                       const MultiScanPattern& p,
                                       const std::vector<NetId>& observe_nets = {});
/// apply_pattern_multi on every lane: one word per response bit.
std::vector<LaneWord> apply_pattern_lanes(Circuit& c, const std::vector<const ScanChain*>& chains,
                                          const MultiScanPattern& p,
                                          const std::vector<NetId>& observe_nets = {});

/// Stuck-at fault simulation: for each fault, applies the pattern set
/// until a response differs from the fault-free response (fault dropping
/// on hard detects).
StuckCampaignResult run_stuck_campaign_multi(Circuit& c,
                                             const std::vector<const ScanChain*>& chains,
                                             const std::vector<MultiScanPattern>& patterns,
                                             const std::vector<StuckFault>& faults,
                                             const std::vector<NetId>& observe_nets = {});

/// detection[p][f] = pattern p hard-detects fault f. Every pattern runs
/// on every fault (no fault dropping).
std::vector<std::vector<bool>> detection_matrix(Circuit& c,
                                                const std::vector<const ScanChain*>& chains,
                                                const std::vector<MultiScanPattern>& patterns,
                                                const std::vector<StuckFault>& faults,
                                                const std::vector<NetId>& observe_nets = {});

/// Generates `count` random scan patterns: uniform chain loads and PI
/// values over the given primary inputs, 1 to 3 capture cycles.
std::vector<MultiScanPattern> random_patterns_multi(const std::vector<const ScanChain*>& chains,
                                                    const std::vector<NetId>& pis,
                                                    std::size_t count, util::Pcg32& rng);

}  // namespace lsl::digital
