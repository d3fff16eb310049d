// Test-set compaction on the link's digital control logic: how many
// scan patterns does production test actually need? Compares the
// random-pattern coverage curve against the greedy-compacted set.
// Test time on ATE is dominated by scan shifting (26 bits per pattern
// across chains A+B here), so this is the test-cost view of the paper's
// DFT architecture.
#include <cstdio>

#include "digital/atpg.hpp"
#include "digital/compaction.hpp"
#include "dft/digital_top.hpp"
#include "util/table.hpp"

int main() {
  std::printf("Scan-pattern compaction for the digital control logic\n\n");

  lsl::dft::DigitalTop top = lsl::dft::build_digital_top();
  lsl::dft::ScanChains chains = lsl::dft::stitch_scan_chains(top);
  const std::vector<const lsl::digital::ScanChain*> chain_ptrs = {&chains.a, &chains.b};

  std::vector<lsl::digital::NetId> pis = {top.data_in, top.ten,     top.half_sel, top.cmp_hi,
                                          top.cmp_lo,  top.cmp_term, top.bist_hi,  top.bist_lo,
                                          top.sen,     *top.c.find_net("scan_clk"),
                                          *top.c.find_net("lock_rst")};
  pis.insert(pis.end(), top.dll_phases.begin(), top.dll_phases.end());
  const std::vector<lsl::digital::NetId> observe = {
      top.retimed_out, top.pd.up, top.pd.dn,   top.fsm.upst, top.fsm.dnst,
      top.sw.out,      top.line_out, top.sen_b, top.bist_fail};

  lsl::util::Pcg32 rng(2024);
  const auto candidates = lsl::digital::random_patterns_multi(chain_ptrs, pis, 96, rng);
  const auto faults =
      lsl::digital::enumerate_stuck_faults(top.c, {"div_", "scan_clk", "coarse_clk"});

  std::printf("candidate pool: %zu random patterns; fault universe: %zu stuck-at faults\n\n",
              candidates.size(), faults.size());

  const auto random_curve =
      lsl::digital::coverage_vs_pattern_count(top.c, chain_ptrs, candidates, faults, observe);
  const auto compact =
      lsl::digital::compact_patterns(top.c, chain_ptrs, candidates, faults, observe);

  lsl::util::Table table({"patterns applied", "random order", "greedy compacted"});
  table.set_title("Hard stuck-at coverage vs pattern count");
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{32}, std::size_t{64},
                              candidates.size()}) {
    const std::size_t ci = std::min(k, compact.coverage_curve.size()) - 1;
    table.add_row({std::to_string(k), lsl::util::Table::pct(random_curve[k - 1]),
                   lsl::util::Table::pct(compact.coverage_curve[ci])});
  }
  table.print();

  std::printf("\nGreedy set needs %zu patterns for its final %.1f%% (random order: %zu).\n",
              compact.selected.size(), compact.coverage.percent(), candidates.size());
  std::printf("Scan cost: %zu vs %zu shift cycles (26-bit chains).\n",
              compact.selected.size() * 26, candidates.size() * 26);

  // Close the residual faults deterministically: simulation-based ATPG
  // (hill climbing on error spread) targets exactly what the random pool
  // missed.
  const std::vector<lsl::digital::StuckFault> residual =
      lsl::digital::run_stuck_campaign_multi(top.c, chain_ptrs, candidates, faults, observe)
          .undetected;
  std::printf("\nATPG stage: %zu faults left undetected by the random pool\n", residual.size());
  const auto atpg = lsl::digital::generate_tests(top.c, chain_ptrs, residual, pis, observe);
  std::printf("ATPG closed %zu of them with %zu extra patterns; %zu remain:\n",
              residual.size() - atpg.undetected.size(), atpg.patterns.size(),
              atpg.undetected.size());
  for (const auto& f : atpg.undetected) {
    std::printf("  %s (X-masked or redundant)\n", f.describe(top.c).c_str());
  }
  return 0;
}
