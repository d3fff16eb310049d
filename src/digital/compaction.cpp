#include "digital/compaction.hpp"

#include <algorithm>

namespace lsl::digital {

CompactionResult compact_patterns(Circuit& c, const std::vector<const ScanChain*>& chains,
                                  const std::vector<MultiScanPattern>& candidates,
                                  const std::vector<StuckFault>& faults,
                                  const std::vector<NetId>& observe_nets) {
  const auto detects = detection_matrix(c, chains, candidates, faults, observe_nets);

  CompactionResult result;
  std::vector<bool> covered(faults.size(), false);
  std::vector<bool> used(candidates.size(), false);
  std::size_t n_covered = 0;

  for (;;) {
    std::size_t best = candidates.size();
    std::size_t best_gain = 0;
    for (std::size_t p = 0; p < candidates.size(); ++p) {
      if (used[p]) continue;
      std::size_t gain = 0;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (detects[p][f] && !covered[f]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = p;
      }
    }
    if (best == candidates.size()) break;  // nothing adds coverage
    used[best] = true;
    result.selected.push_back(best);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (detects[best][f] && !covered[f]) {
        covered[f] = true;
        ++n_covered;
      }
    }
    result.coverage_curve.push_back(100.0 * static_cast<double>(n_covered) /
                                    static_cast<double>(faults.size()));
  }

  for (std::size_t f = 0; f < faults.size(); ++f) result.coverage.add(covered[f]);
  return result;
}

std::vector<double> coverage_vs_pattern_count(Circuit& c,
                                              const std::vector<const ScanChain*>& chains,
                                              const std::vector<MultiScanPattern>& candidates,
                                              const std::vector<StuckFault>& faults,
                                              const std::vector<NetId>& observe_nets) {
  const auto detects = detection_matrix(c, chains, candidates, faults, observe_nets);
  std::vector<bool> covered(faults.size(), false);
  std::size_t n_covered = 0;
  std::vector<double> curve;
  curve.reserve(candidates.size());
  for (std::size_t p = 0; p < candidates.size(); ++p) {
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (detects[p][f] && !covered[f]) {
        covered[f] = true;
        ++n_covered;
      }
    }
    curve.push_back(100.0 * static_cast<double>(n_covered) / static_cast<double>(faults.size()));
  }
  return curve;
}

}  // namespace lsl::digital
