// Netlists shared by the fault-parallel and ATPG referee tests.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "digital/circuit.hpp"
#include "digital/scan.hpp"
#include "digital/stuck.hpp"
#include "util/rng.hpp"

namespace lsl::digital::fixtures {

inline Logic random_logic(util::Pcg32& rng) { return static_cast<Logic>(rng.next_below(3)); }

/// A random netlist over `n_nets` nets: five primary inputs, then gates
/// of every type reading any net and driving any other, latches, and
/// flip-flops in two clock domains with optional resets. With
/// `scan_hookups` some flops also get random scan-enable / scan-in nets.
/// With `free_flop_outputs` the flops drive the last eight nets, which no
/// gate or latch drives.
inline Circuit random_circuit(util::Pcg32& rng, std::size_t n_nets, bool scan_hookups,
                              bool free_flop_outputs = false) {
  Circuit c;
  for (std::size_t i = 0; i < n_nets; ++i) c.net("n" + std::to_string(i));
  constexpr std::size_t kInputs = 5;
  constexpr std::size_t kFlops = 8;
  for (NetId n = 0; n < kInputs; ++n) c.make_input(n);
  const std::size_t n_driven = n_nets - kInputs - (free_flop_outputs ? kFlops : 0);
  const auto any = [&] { return static_cast<NetId>(rng.next_below(n_nets)); };
  const auto driven = [&] { return static_cast<NetId>(kInputs + rng.next_below(n_driven)); };
  for (std::size_t k = 0; k < n_nets / 2; ++k) {
    const auto type = static_cast<GateType>(rng.next_below(11));
    std::size_t arity = 1 + rng.next_below(3);
    if (type == GateType::kMux2) arity = 3;
    if (type == GateType::kConst0 || type == GateType::kConst1) arity = 0;
    std::vector<NetId> in;
    for (std::size_t i = 0; i < arity; ++i) in.push_back(any());
    c.add_gate(type, in, driven());
  }
  for (int k = 0; k < 4; ++k) c.add_latch(Latch{any(), driven(), any()});
  for (std::size_t k = 0; k < kFlops; ++k) {
    const NetId d = any();
    const NetId q = free_flop_outputs ? n_nets - kFlops + k : driven();
    FlipFlop ff{d, q, {}, {}, {}, rng.next_below(2)};
    if (rng.next_below(3) == 0) ff.reset = any();
    if (scan_hookups && rng.next_below(3) == 0) {
      ff.scan_en = any();
      ff.scan_in = any();
    }
    c.add_flipflop(ff);
  }
  return c;
}

/// The first `count` faults of the universe in a seeded random order,
/// starting with an input fault, repeating the universe if it is short.
inline std::vector<StuckFault> fault_list(const Circuit& c, std::size_t count, util::Pcg32& rng) {
  std::vector<StuckFault> universe = enumerate_stuck_faults(c);
  for (std::size_t i = universe.size(); i > 1; --i) {
    std::swap(universe[i - 1], universe[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  std::stable_partition(universe.begin(), universe.end(),
                        [&](const StuckFault& f) { return c.is_input(f.net); });
  std::vector<StuckFault> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(universe[i % universe.size()]);
  return out;
}

/// A scan chain whose first flop has its reset on primary input `rst`, so
/// the value the previous pattern left on `rst` changes the chain load;
/// `mode` is an input no pattern writes, so a stuck-at on it changes
/// every later fault's run.
struct HistoryFixture {
  Circuit c;
  NetId rst = 0;
  NetId a = 0;
  NetId mode = 0;
  NetId x = 0;
  std::optional<ScanChain> chain;

  HistoryFixture() {
    rst = c.net("rst");
    a = c.net("a");
    mode = c.net("mode");
    for (const NetId n : {rst, a, mode}) c.make_input(n);
    const NetId q0 = c.net("q0");
    const NetId q1 = c.net("q1");
    const NetId q2 = c.net("q2");
    x = c.net("x");
    const NetId y = c.net("y");
    const NetId z = c.net("z");
    c.add_gate(GateType::kXor, {q1, a}, x);
    c.add_gate(GateType::kAnd, {q0, mode}, y);
    c.add_gate(GateType::kOr, {q2, y}, z);
    const std::size_t f0 = c.add_flipflop(FlipFlop{x, q0, {}, {}, rst});
    const std::size_t f1 = c.add_flipflop(FlipFlop{y, q1, {}, {}, {}});
    const std::size_t f2 = c.add_flipflop(FlipFlop{z, q2, {}, {}, {}});
    chain.emplace(c, "sc", std::vector<std::size_t>{f0, f1, f2});
    c.set_input(mode, Logic::k1);
    c.set_input(rst, Logic::k1);
  }

  std::vector<MultiScanPattern> patterns(std::size_t count, std::uint64_t seed) const {
    util::Pcg32 rng(seed);
    return random_patterns_multi({&*chain}, {rst, a}, count, rng);
  }
};

}  // namespace lsl::digital::fixtures
