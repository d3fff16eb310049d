// Referee for the digital scan-pattern flow: for each of the 32 seeds
// pinned in perfbench/refs/digital_atpg.ref (read-only; the directory
// comes in as LSL_PERFBENCH_REFS_DIR), the DFT-inserted digital control
// is built, a seeded 96-pattern pool is graded by the coverage curve,
// compacted and fault-simulated, ATPG runs over the stuck-at universe,
// and the claimed pattern sets are re-simulated, in the order the
// benchmark's recording pass uses; the 13 figures must equal the pinned
// line.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dft/digital_top.hpp"
#include "digital/atpg.hpp"
#include "digital/compaction.hpp"
#include "digital/stuck.hpp"
#include "util/jsonl.hpp"

namespace lsl::dft {
namespace {

namespace dg = digital;

std::string figures_line(std::uint64_t seed) {
  DigitalTop top = build_digital_top();
  const ScanChains chains = stitch_scan_chains(top);
  const std::vector<const dg::ScanChain*> chain_ptrs = {&chains.a, &chains.b};
  dg::Circuit& c = top.c;
  std::vector<dg::NetId> pis = {top.data_in, top.ten,     top.half_sel,
                                top.cmp_hi,  top.cmp_lo,  top.cmp_term,
                                top.bist_hi, top.bist_lo, top.sen,
                                *c.find_net("scan_clk"), *c.find_net("lock_rst")};
  pis.insert(pis.end(), top.dll_phases.begin(), top.dll_phases.end());
  const std::vector<dg::NetId> observe = {top.retimed_out, top.pd.up,  top.pd.dn,
                                          top.fsm.upst,    top.fsm.dnst, top.sw.out,
                                          top.line_out,    top.sen_b,  top.bist_fail};
  const auto faults = dg::enumerate_stuck_faults(c, {"div_", "scan_clk", "coarse_clk"});
  util::Pcg32 rng(seed);
  const auto pool = dg::random_patterns_multi(chain_ptrs, pis, 96, rng);
  // The set-up ends by applying the pool fault-free.
  c.clear_faults();
  for (const auto& p : pool) {
    c.power_on();
    dg::apply_pattern_multi(c, chain_ptrs, p, observe);
  }

  const auto curve = dg::coverage_vs_pattern_count(c, chain_ptrs, pool, faults, observe);
  const auto compact = dg::compact_patterns(c, chain_ptrs, pool, faults, observe);
  const auto campaign = dg::run_stuck_campaign_multi(c, chain_ptrs, pool, faults, observe);
  dg::AtpgOptions opts;
  opts.seed = seed;
  const auto atpg = dg::generate_tests(c, chain_ptrs, faults, pis, observe, opts);

  std::set<std::pair<dg::NetId, dg::Logic>> undetected;
  for (const auto& f : atpg.undetected) undetected.insert({f.net, f.value});
  long confirmed = 0;
  for (const auto& f : faults) {
    if (undetected.count({f.net, f.value}) != 0) continue;
    for (const auto& pattern : atpg.patterns) {
      bool detected = false;
      dg::atpg_score(c, chain_ptrs, pattern, f, observe, detected);
      if (detected) {
        ++confirmed;
        break;
      }
    }
  }
  std::vector<dg::MultiScanPattern> compacted;
  for (const std::size_t i : compact.selected) compacted.push_back(pool[i]);
  const auto compact_rerun = dg::run_stuck_campaign_multi(c, chain_ptrs, compacted, faults, observe);
  const auto rerun = dg::run_stuck_campaign_multi(c, chain_ptrs, atpg.patterns, faults, observe);

  const auto n = static_cast<double>(faults.size());
  const std::vector<std::pair<const char*, long>> figures = {
      {"faults", static_cast<long>(faults.size())},
      {"pool", static_cast<long>(pool.size())},
      {"pool_hard", static_cast<long>(campaign.hard.detected)},
      {"pool_combined", static_cast<long>(campaign.combined.detected)},
      {"curve_final", curve.empty() ? 0 : std::lround(curve.back() * n / 100.0)},
      {"compacted", static_cast<long>(compact.selected.size())},
      {"compact_hard", static_cast<long>(compact.coverage.detected)},
      {"compact_rerun_hard", static_cast<long>(compact_rerun.hard.detected)},
      {"atpg_patterns", static_cast<long>(atpg.patterns.size())},
      {"atpg_detected", static_cast<long>(atpg.coverage.detected)},
      {"atpg_confirmed", confirmed},
      {"atpg_rerun_hard", static_cast<long>(rerun.hard.detected)},
      {"atpg_rerun_combined", static_cast<long>(rerun.combined.detected)}};
  std::string line = "seed " + std::to_string(seed);
  for (const auto& [name, value] : figures) {
    line += ' ';
    line += name;
    line += ' ';
    line += std::to_string(value);
  }
  return line;
}

std::string pinned_line(std::uint64_t seed) {
  const std::string prefix = "seed " + std::to_string(seed) + " ";
  for (const auto& l : util::read_lines(std::string(LSL_PERFBENCH_REFS_DIR) + "/digital_atpg.ref")) {
    if (l.rfind(prefix, 0) == 0) return l;
  }
  return "";
}

class DigitalReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DigitalReference, FiguresEqualThePinnedLine) {
  const std::string pinned = pinned_line(GetParam());
  ASSERT_FALSE(pinned.empty()) << "no pinned line for seed " << GetParam();
  EXPECT_EQ(figures_line(GetParam()), pinned);
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, DigitalReference, ::testing::Range<std::uint64_t>(0, 32));

}  // namespace
}  // namespace lsl::dft
