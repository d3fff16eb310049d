#include "digital/stuck.hpp"

#include <gtest/gtest.h>

#include "digital/blocks.hpp"

namespace lsl::digital {
namespace {

TEST(StuckFaults, UniverseSizeIsTwoPerNet) {
  Circuit c;
  c.net("a");
  c.net("b");
  const auto faults = enumerate_stuck_faults(c);
  EXPECT_EQ(faults.size(), 4u);
}

TEST(StuckFaults, Describe) {
  Circuit c;
  const NetId a = c.net("alpha");
  EXPECT_EQ((StuckFault{a, Logic::k0}).describe(c), "alpha s@0");
  EXPECT_EQ((StuckFault{a, Logic::k1}).describe(c), "alpha s@1");
}

/// A small combinational block behind a scan chain: two flops feeding an
/// XOR captured by a third flop.
struct CampaignFixture {
  Circuit c;
  std::vector<std::size_t> flops;

  CampaignFixture() {
    const NetId q0 = c.net("q0");
    const NetId q1 = c.net("q1");
    const NetId x = c.net("x");
    const NetId q2 = c.net("q2");
    // Flops 0/1 hold pattern bits and recirculate; flop 2 captures XOR.
    flops.push_back(c.add_flipflop(FlipFlop{q0, q0, {}, {}, {}}));
    flops.push_back(c.add_flipflop(FlipFlop{q1, q1, {}, {}, {}}));
    c.add_gate(GateType::kXor, {q0, q1}, x);
    flops.push_back(c.add_flipflop(FlipFlop{x, q2, {}, {}, {}}));
  }
};

TEST(StuckCampaign, ExhaustivePatternsReachFullCoverage) {
  CampaignFixture f;
  ScanChain chain(f.c, "sc", f.flops);

  std::vector<MultiScanPattern> patterns;
  for (const char* load : {"000", "010", "100", "110"}) {
    MultiScanPattern p;
    p.chain_loads = {logic_vector(load)};
    patterns.push_back(p);
  }
  const auto faults = enumerate_stuck_faults(f.c);
  const auto result = run_stuck_campaign_multi(f.c, {&chain}, patterns, faults);
  // Every net in this tiny block is controllable and observable; the
  // only non-hard detect is scan-enable s@0, whose X recirculation makes
  // it a "possible" detect (a chain flush pins it on a real tester).
  EXPECT_DOUBLE_EQ(result.combined.percent(), 100.0);
  EXPECT_GE(result.hard.percent(), 90.0);
  EXPECT_TRUE(result.undetected.empty());
}

TEST(StuckCampaign, NoPatternsNoCoverage) {
  CampaignFixture f;
  ScanChain chain(f.c, "sc", f.flops);
  const auto faults = enumerate_stuck_faults(f.c);
  const auto result = run_stuck_campaign_multi(f.c, {&chain}, {}, faults);
  EXPECT_DOUBLE_EQ(result.combined.percent(), 0.0);
  EXPECT_EQ(result.undetected.size(), faults.size());
}

TEST(StuckCampaign, RandomPatternsCoverRingCounter) {
  // The paper's claim: the digital control blocks are simple enough for
  // 100% stuck-at coverage. Check it for the ring counter with random
  // patterns plus the functional stepping implied by preload+clock.
  Circuit c;
  const NetId en = c.net("en");
  const NetId dir = c.net("dir");
  c.make_input(en);
  c.make_input(dir);
  const auto ring = build_ring_counter(c, "rc", 4, en, dir);
  ScanChain chain(c, "sc", ring.flops);

  // Single capture cycle: with an even cycle count on an even-length
  // ring, up and down shifts land on the same state (+-k mod n), hiding
  // the direction input entirely.
  util::Pcg32 rng(2024);
  auto patterns = random_patterns_multi({&chain}, {en, dir}, 64, rng);
  for (auto& p : patterns) p.capture_cycles = 1;
  const auto faults = enumerate_stuck_faults(c);
  const auto result = run_stuck_campaign_multi(c, {&chain}, patterns, faults);
  EXPECT_DOUBLE_EQ(result.combined.percent(), 100.0);
  EXPECT_GT(result.hard.percent(), 95.0);
}

TEST(RandomPatterns, ShapesMatch) {
  Circuit c;
  const NetId a = c.net("a");
  c.make_input(a);
  const NetId q = c.net("q");
  const std::size_t ff = c.add_flipflop(FlipFlop{a, q, {}, {}, {}});
  ScanChain chain(c, "sc", {ff});
  util::Pcg32 rng(7);
  const auto pats = random_patterns_multi({&chain}, {a}, 10, rng);
  ASSERT_EQ(pats.size(), 10u);
  for (const auto& p : pats) {
    ASSERT_EQ(p.chain_loads.size(), 1u);
    EXPECT_EQ(p.chain_loads[0].size(), 1u);
    ASSERT_EQ(p.pi_values.size(), 1u);
    EXPECT_EQ(p.pi_values[0].first, a);
    EXPECT_TRUE(is_known(p.pi_values[0].second));
    EXPECT_GE(p.capture_cycles, 1);
    EXPECT_LE(p.capture_cycles, 3);
  }
}

}  // namespace
}  // namespace lsl::digital
