// Test-set compaction: given a pool of candidate scan patterns, pick a
// minimal subset that keeps full fault coverage (greedy set cover over
// the per-pattern detection sets). Production test time is dominated by
// scan shifting, so a compact set is the difference between a cheap and
// an expensive part — the flip side of the paper's low-overhead DFT.
#pragma once

#include <cstdint>
#include <vector>

#include "digital/circuit.hpp"
#include "digital/scan.hpp"
#include "digital/stuck.hpp"

namespace lsl::digital {

struct CompactionResult {
  /// Indices into the candidate pool, in greedy-selection order.
  std::vector<std::size_t> selected;
  /// Hard-detect coverage of the selected subset.
  util::Coverage coverage;
  /// Coverage after each successive selected pattern (the coverage
  /// curve; same length as `selected`).
  std::vector<double> coverage_curve;
};

/// Builds the pattern x fault hard-detection matrix (detection_matrix: no
/// fault dropping, since set cover needs every pattern's full detection
/// set), then greedily selects patterns until no pattern adds coverage.
CompactionResult compact_patterns(Circuit& c, const std::vector<const ScanChain*>& chains,
                                  const std::vector<MultiScanPattern>& candidates,
                                  const std::vector<StuckFault>& faults,
                                  const std::vector<NetId>& observe_nets = {});

/// Convenience: coverage achieved by the first k patterns of a fixed
/// (uncompacted) sequence, for k = 1..n — the random-pattern baseline
/// the compactor is judged against.
std::vector<double> coverage_vs_pattern_count(Circuit& c,
                                              const std::vector<const ScanChain*>& chains,
                                              const std::vector<MultiScanPattern>& candidates,
                                              const std::vector<StuckFault>& faults,
                                              const std::vector<NetId>& observe_nets = {});

}  // namespace lsl::digital
