#include "digital/atpg.hpp"

#include <gtest/gtest.h>

#include "fixtures.hpp"

namespace lsl::digital {
namespace {

using fixtures::fault_list;
using fixtures::HistoryFixture;
using fixtures::random_circuit;

/// A block with a deliberately hard-to-randomly-hit cone: an 6-input AND
/// feeding a capture flop (a random load hits it with p = 1/64), plus an
/// easy XOR cone.
struct Fixture {
  Circuit c;
  std::vector<std::size_t> flops;
  ScanChain* chain = nullptr;

  Fixture() {
    std::vector<NetId> qs;
    for (int i = 0; i < 6; ++i) {
      const NetId q = c.net("q" + std::to_string(i));
      flops.push_back(c.add_flipflop(FlipFlop{q, q, {}, {}, {}}));
      qs.push_back(q);
    }
    const NetId all = c.net("all");
    c.add_gate(GateType::kAnd, qs, all);
    const NetId x = c.net("x");
    c.add_gate(GateType::kXor, {qs[0], qs[1]}, x);
    const NetId cap_and = c.net("cap_and");
    flops.push_back(c.add_flipflop(FlipFlop{all, cap_and, {}, {}, {}}));
    const NetId cap_x = c.net("cap_x");
    flops.push_back(c.add_flipflop(FlipFlop{x, cap_x, {}, {}, {}}));
    chain = new ScanChain(c, "sc", flops);
  }
  ~Fixture() { delete chain; }
};

TEST(Atpg, ScoreDetectsObviousFault) {
  Fixture f;
  MultiScanPattern p;
  p.chain_loads.push_back(logic_vector("11111100"));
  p.capture_cycles = 1;
  bool det = false;
  const auto score = atpg_score(f.c, {f.chain}, p, {*f.c.find_net("all"), Logic::k0},
                                {}, det);
  EXPECT_TRUE(det);  // all-ones load: AND output s@0 flips the capture
  EXPECT_GE(score, 1000000u);
}

TEST(Atpg, ScoreZeroWhenFaultInactive) {
  Fixture f;
  MultiScanPattern p;
  p.chain_loads.push_back(logic_vector("00000000"));
  p.capture_cycles = 1;
  bool det = false;
  // AND output is 0 anyway: s@0 has no effect at all.
  const auto score = atpg_score(f.c, {f.chain}, p, {*f.c.find_net("all"), Logic::k0}, {}, det);
  EXPECT_FALSE(det);
  EXPECT_EQ(score, 0u);
}

TEST(Atpg, HillClimbFindsTheHardCone) {
  // The AND-cone faults need the all-ones corner; hill climbing on error
  // spread walks there from random starts.
  Fixture f;
  const std::vector<StuckFault> targets = {{*f.c.find_net("all"), Logic::k0},
                                           {*f.c.find_net("cap_and"), Logic::k0}};
  const auto r = generate_tests(f.c, {f.chain}, targets, {}, {});
  EXPECT_DOUBLE_EQ(r.coverage.percent(), 100.0);
  EXPECT_TRUE(r.undetected.empty());
  EXPECT_GE(r.patterns.size(), 1u);
}

TEST(Atpg, FaultDroppingReusesPatterns) {
  Fixture f;
  // Two faults detectable by the same pattern: only one pattern results.
  const std::vector<StuckFault> targets = {{*f.c.find_net("all"), Logic::k0},
                                           {*f.c.find_net("all"), Logic::k0}};
  const auto r = generate_tests(f.c, {f.chain}, targets, {}, {});
  EXPECT_DOUBLE_EQ(r.coverage.percent(), 100.0);
  EXPECT_EQ(r.patterns.size(), 1u);
}

TEST(Atpg, ReportsUntestableFault) {
  Fixture f;
  // A constant net's matching polarity is untestable.
  const NetId one = f.c.net("tied");
  f.c.add_gate(GateType::kConst1, {}, one);
  const std::vector<StuckFault> targets = {{one, Logic::k1}};
  AtpgOptions opts;
  opts.restarts = 2;
  const auto r = generate_tests(f.c, {f.chain}, targets, {}, {}, opts);
  EXPECT_DOUBLE_EQ(r.coverage.percent(), 0.0);
  ASSERT_EQ(r.undetected.size(), 1u);
}

TEST(Atpg, FullUniverseOnFixtureCloses) {
  // Every non-redundant stuck-at fault in the fixture is reachable.
  Fixture f;
  const auto faults = enumerate_stuck_faults(f.c);
  const auto r = generate_tests(f.c, {f.chain}, faults, {}, {});
  // Scan-enable s@0 X-masks (hard detection impossible); everything else
  // must close.
  EXPECT_LE(r.undetected.size(), 2u);
  EXPECT_GT(r.coverage.percent(), 91.0);
}

// ---- fault dropping against the serial loop ----

/// generate_tests as a serial loop of atpg_score calls: each fault is
/// checked against the patterns generated so far, one fault-free and one
/// faulty run per pattern, before hill climbing. The referee for the
/// lane-parallel fault dropping.
AtpgResult serial_generate_tests(Circuit& c, const std::vector<const ScanChain*>& chains,
                                 const std::vector<StuckFault>& faults,
                                 const std::vector<NetId>& pi_inputs,
                                 const std::vector<NetId>& observe_nets,
                                 const AtpgOptions& opts) {
  AtpgResult result;
  util::Pcg32 rng(opts.seed);

  auto random_pattern = [&] {
    MultiScanPattern p;
    for (const auto* chain : chains) {
      std::vector<Logic> load(chain->length());
      for (auto& b : load) b = from_bool(rng.next_bool());
      p.chain_loads.push_back(std::move(load));
    }
    for (const NetId pi : pi_inputs) p.pi_values.emplace_back(pi, from_bool(rng.next_bool()));
    p.capture_cycles = opts.capture_cycles;
    return p;
  };

  // All mutable bits of a pattern, as (chain index or -1 for PI, position).
  auto flip_bit = [&](MultiScanPattern& p, std::size_t bit) {
    for (auto& load : p.chain_loads) {
      if (bit < load.size()) {
        load[bit] = logic_not(load[bit]);
        return;
      }
      bit -= load.size();
    }
    auto& [net, v] = p.pi_values.at(bit);
    v = logic_not(v);
  };
  std::size_t n_bits = 0;
  {
    for (const auto* chain : chains) n_bits += chain->length();
    n_bits += pi_inputs.size();
  }

  auto detected_by_existing = [&](const StuckFault& f) {
    bool det = false;
    for (const auto& p : result.patterns) {
      atpg_score(c, chains, p, f, observe_nets, det);
      if (det) return true;
    }
    return false;
  };

  for (const auto& f : faults) {
    if (detected_by_existing(f)) {
      result.coverage.add(true);
      continue;
    }

    bool found = false;
    for (std::size_t restart = 0; restart < opts.restarts && !found; ++restart) {
      MultiScanPattern p = random_pattern();
      bool det = false;
      std::size_t best = atpg_score(c, chains, p, f, observe_nets, det);
      if (det) {
        result.patterns.push_back(p);
        found = true;
        break;
      }
      // Bit-flip hill climbing: accept any flip that raises the error
      // spread; stop a pass early the moment detection lands.
      for (std::size_t pass = 0; pass < opts.max_passes && !det; ++pass) {
        bool improved = false;
        for (std::size_t bit = 0; bit < n_bits && !det; ++bit) {
          MultiScanPattern q = p;
          flip_bit(q, bit);
          bool qdet = false;
          const std::size_t score = atpg_score(c, chains, q, f, observe_nets, qdet);
          if (score > best) {
            best = score;
            p = std::move(q);
            det = qdet;
            improved = true;
          }
        }
        if (!improved) break;  // local optimum
      }
      if (det) {
        result.patterns.push_back(p);
        found = true;
      }
    }
    result.coverage.add(found);
    if (!found) result.undetected.push_back(f);
  }
  return result;
}

/// generate_tests and the serial loop on two copies of `base` return the
/// same patterns, coverage and undetected faults, and leave every lane of
/// every net the same.
void expect_generate_tests_equals_serial(const Circuit& base,
                                         const std::vector<const ScanChain*>& chains,
                                         const std::vector<StuckFault>& faults,
                                         const std::vector<NetId>& pis,
                                         const std::vector<NetId>& observe,
                                         const AtpgOptions& opts = {}) {
  Circuit batch = base;
  Circuit serial = base;
  const AtpgResult got = generate_tests(batch, chains, faults, pis, observe, opts);
  const AtpgResult want = serial_generate_tests(serial, chains, faults, pis, observe, opts);
  ASSERT_EQ(got.patterns.size(), want.patterns.size());
  for (std::size_t i = 0; i < got.patterns.size(); ++i) {
    EXPECT_EQ(got.patterns[i].chain_loads, want.patterns[i].chain_loads) << "pattern " << i;
    EXPECT_EQ(got.patterns[i].pi_values, want.patterns[i].pi_values) << "pattern " << i;
    EXPECT_EQ(got.patterns[i].capture_cycles, want.patterns[i].capture_cycles) << "pattern " << i;
  }
  EXPECT_EQ(got.coverage.detected, want.coverage.detected);
  EXPECT_EQ(got.coverage.total, want.coverage.total);
  ASSERT_EQ(got.undetected.size(), want.undetected.size());
  for (std::size_t i = 0; i < got.undetected.size(); ++i) {
    EXPECT_EQ(got.undetected[i].net, want.undetected[i].net);
    EXPECT_EQ(got.undetected[i].value, want.undetected[i].value);
  }
  for (NetId n = 0; n < batch.net_count(); ++n) {
    EXPECT_EQ(batch.word(n), serial.word(n)) << "net " << batch.net_name(n);
  }
  EXPECT_FALSE(batch.has_fault());
}

/// The fixture's universe repeated to `count` faults, so blocks of 64
/// lanes start mid-list and the `mode` and `rst` input faults recur.
std::vector<StuckFault> history_faults(const HistoryFixture& f, std::size_t count) {
  const auto universe = enumerate_stuck_faults(f.c);
  std::vector<StuckFault> faults;
  for (std::size_t i = 0; i < count; ++i) faults.push_back(universe[(7 * i) % universe.size()]);
  return faults;
}

TEST(AtpgDropping, EqualsSerialLoopWithResetAndUnwrittenInputs) {
  // `rst` resets the first chain flop and every pattern writes it; no
  // pattern writes `mode`, so its stuck-at faults change every later run.
  HistoryFixture f;
  for (const std::size_t count : {1, 22, 65, 130}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("faults " + std::to_string(count) + ", seed " + std::to_string(seed));
      AtpgOptions opts;
      opts.seed = seed;
      expect_generate_tests_equals_serial(f.c, {&*f.chain}, history_faults(f, count),
                                          {f.rst, f.a}, {f.x}, opts);
    }
  }
}

TEST(AtpgDropping, EqualsSerialLoopFromLanesThatDisagree) {
  // Lanes other than 0 keep their own value of the unwritten input until
  // a stuck-at on it overwrites every lane.
  HistoryFixture f;
  f.c.set_input_lanes(f.mode, Logic::k0, 0xf0f0f0f0f0f0f0f0u);
  f.c.set_input_lanes(f.mode, Logic::kX, 0x0000ffff00000000u);
  expect_generate_tests_equals_serial(f.c, {&*f.chain}, history_faults(f, 65), {f.rst, f.a},
                                      {f.x});
  const std::vector<StuckFault> no_mode_fault = {{f.x, Logic::k0}, {f.a, Logic::k1}};
  expect_generate_tests_equals_serial(f.c, {&*f.chain}, no_mode_fault, {f.rst, f.a}, {f.x});
}

TEST(AtpgDropping, EqualsSerialLoopOnRandomTwoChainCircuits) {
  AtpgOptions opts;
  opts.restarts = 1;
  opts.max_passes = 1;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    util::Pcg32 rng(seed);
    Circuit c = random_circuit(rng, 20, false);
    std::vector<std::size_t> dom0, dom1;
    for (std::size_t i = 0; i < c.flipflops().size(); ++i) {
      (c.flipflops()[i].domain == 0 ? dom0 : dom1).push_back(i);
    }
    if (dom0.empty() || dom1.empty()) continue;
    const ScanChain a(c, "sa", dom0);
    const ScanChain b(c, "sb", dom1);
    SCOPED_TRACE("seed " + std::to_string(seed));
    opts.seed = seed;
    // fault_list puts the input faults first.
    expect_generate_tests_equals_serial(c, {&a, &b}, fault_list(c, 70, rng), {0, 1, 2, 3},
                                        {10, 15}, opts);
  }
}

TEST(AtpgDropping, EqualsSerialLoopWithoutPisRestartsOrFaults) {
  HistoryFixture f;
  const auto faults = history_faults(f, 40);
  {
    SCOPED_TRACE("no PIs");
    expect_generate_tests_equals_serial(f.c, {&*f.chain}, faults, {}, {f.x});
  }
  {
    SCOPED_TRACE("no restarts");
    AtpgOptions opts;
    opts.restarts = 0;
    expect_generate_tests_equals_serial(f.c, {&*f.chain}, faults, {f.rst, f.a}, {f.x}, opts);
  }
  {
    SCOPED_TRACE("no faults");
    expect_generate_tests_equals_serial(f.c, {&*f.chain}, {}, {f.rst, f.a}, {f.x});
  }
}

}  // namespace
}  // namespace lsl::digital
