// Simulation-based ATPG: deterministic test generation for single
// stuck-at faults by hill-climbing on the fault's error spread.
//
// For a candidate pattern, the good and faulty machines are simulated
// side by side; the score counts the nets where they provably differ,
// with a decisive bonus when the difference reaches an observation
// point (scan capture or PO strobe). Bit-flip hill climbing with random
// restarts then walks a random pattern toward one that detects the
// fault. This is the classic simulation-driven alternative to PODEM:
// the fault simulator itself is the oracle, so latches, X-states and
// multi-cycle capture come for free.
//
// Results equal a serial loop of atpg_score calls on the same Circuit,
// including how each run depends on the primary inputs the previous run
// left (power_on keeps them), and the Circuit is left as that loop leaves
// it. Fault dropping, the check of each fault against the patterns
// generated so far, runs the faulty machines of 64 faults per pattern
// application and each distinct fault-free run once; hill climbing runs
// serially.
#pragma once

#include <cstdint>
#include <vector>

#include "digital/circuit.hpp"
#include "digital/scan.hpp"
#include "digital/stuck.hpp"
#include "util/rng.hpp"

namespace lsl::digital {

struct AtpgOptions {
  std::size_t restarts = 4;     // random restarts per fault
  std::size_t max_passes = 6;   // full bit-sweep passes per restart
  int capture_cycles = 2;
  std::uint64_t seed = 1;
};

struct AtpgResult {
  std::vector<MultiScanPattern> patterns;  // generated tests, one per newly-detected fault group
  util::Coverage coverage;                 // over the requested fault list
  std::vector<StuckFault> undetected;      // faults no pattern could reach
};

/// Generates tests for `faults`. Faults already detected by an earlier
/// generated pattern are skipped (fault dropping), so the result is a
/// compact incremental test set.
AtpgResult generate_tests(Circuit& c, const std::vector<const ScanChain*>& chains,
                          const std::vector<StuckFault>& faults,
                          const std::vector<NetId>& pi_inputs,
                          const std::vector<NetId>& observe_nets, const AtpgOptions& opts = {});

/// Score of a pattern against a fault: number of nets where the good and
/// faulty machines provably differ after application, plus a large bonus
/// when an observed response bit differs (i.e. the fault is detected).
/// Exposed for tests.
std::size_t atpg_score(Circuit& c, const std::vector<const ScanChain*>& chains,
                       const MultiScanPattern& p, const StuckFault& fault,
                       const std::vector<NetId>& observe_nets, bool& detected);

}  // namespace lsl::digital
