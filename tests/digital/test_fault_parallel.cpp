// Fault-parallel simulation against serial references.
//
// CircuitLanes: every lane of the packed 0/1/X kernel, each carrying its
// own stuck-at fault, must equal a single-machine run of the byte
// evaluator the kernel replaced, on random netlists with latches,
// combinational loops and multiply-driven nets (so oscillation is driven
// to X).
//
// StuckCampaignHistory: the fault-parallel graders must equal per-fault
// serial loops on the same Circuit, including the dependence of each run
// on the primary inputs the previous run left behind, and must leave the
// Circuit as those loops leave it.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "digital/compaction.hpp"
#include "digital/stuck.hpp"
#include "fixtures.hpp"
#include "support/names.hpp"

namespace lsl::digital {
namespace {

using fixtures::fault_list;
using fixtures::HistoryFixture;
using fixtures::random_circuit;
using fixtures::random_logic;

/// Single-machine sweep-to-fixpoint evaluator over one Logic per net,
/// with at most one stuck-at fault: the reference for one lane.
class ByteSim {
 public:
  explicit ByteSim(const Circuit& c)
      : c_(c),
        values_(c.net_count(), Logic::kX),
        ff_q_(c.flipflops().size(), Logic::kX),
        latch_q_(c.latches().size(), Logic::kX) {}

  void set_stuck(NetId n, Logic v) {
    stuck_net_ = n;
    stuck_value_ = v;
  }
  void clear_stuck() { stuck_net_.reset(); }
  /// Takes the nets, flops and latches added to the circuit since, at X.
  void grow() {
    values_.resize(c_.net_count(), Logic::kX);
    ff_q_.resize(c_.flipflops().size(), Logic::kX);
    latch_q_.resize(c_.latches().size(), Logic::kX);
  }
  /// Copies another machine's state, keeping this one's fault.
  void copy_state(const ByteSim& o) {
    values_ = o.values_;
    ff_q_ = o.ff_q_;
    latch_q_ = o.latch_q_;
  }
  void set_input(NetId n, Logic v) { values_[n] = v; }
  void set_ff_state(std::size_t i, Logic v) { ff_q_[i] = v; }
  Logic value(NetId n) const { return values_[n]; }
  /// Settles that hit the sweep limit.
  std::size_t oscillations = 0;

  void power_on() {
    for (NetId n = 0; n < values_.size(); ++n) {
      if (!c_.is_input(n)) values_[n] = Logic::kX;
    }
    std::fill(ff_q_.begin(), ff_q_.end(), Logic::kX);
    std::fill(latch_q_.begin(), latch_q_.end(), Logic::kX);
  }

  void apply_reset() {
    settle();
    for (std::size_t i = 0; i < c_.flipflops().size(); ++i) {
      const auto& ff = c_.flipflops()[i];
      if (ff.reset.has_value() && values_[*ff.reset] == Logic::k1) ff_q_[i] = Logic::k0;
    }
    settle();
  }

  void settle() {
    if (stuck_net_.has_value() && c_.is_input(*stuck_net_)) values_[*stuck_net_] = stuck_value_;
    for (std::size_t i = 0; i < c_.flipflops().size(); ++i) write(c_.flipflops()[i].q, ff_q_[i]);
    const std::size_t sweep_limit = 2 * (c_.gates().size() + c_.latches().size()) + 4;
    bool changed = true;
    std::size_t sweeps = 0;
    while (changed && sweeps < sweep_limit) {
      changed = false;
      ++sweeps;
      for (const Gate& g : c_.gates()) {
        const Logic before = values_[g.output];
        write(g.output, eval(g));
        if (values_[g.output] != before) changed = true;
      }
      for (std::size_t i = 0; i < c_.latches().size(); ++i) {
        const Latch& l = c_.latches()[i];
        const Logic en = values_[l.en];
        Logic q = latch_q_[i];
        if (en == Logic::k1) {
          q = values_[l.d];
        } else if (en == Logic::kX) {
          q = (latch_q_[i] == values_[l.d]) ? latch_q_[i] : Logic::kX;
        }
        latch_q_[i] = q;
        const Logic before = values_[l.q];
        write(l.q, q);
        if (values_[l.q] != before) changed = true;
      }
    }
    if (changed) {
      ++oscillations;
      for (const Gate& g : c_.gates()) write(g.output, Logic::kX);
      for (const Latch& l : c_.latches()) write(l.q, Logic::kX);
    }
  }

  void step(std::uint32_t domain_mask) {
    settle();
    std::vector<Logic> next = ff_q_;
    for (std::size_t i = 0; i < c_.flipflops().size(); ++i) {
      const auto& ff = c_.flipflops()[i];
      if ((domain_mask & (1u << ff.domain)) == 0) continue;
      if (ff.reset.has_value() && values_[*ff.reset] == Logic::k1) {
        next[i] = Logic::k0;
        continue;
      }
      Logic d = values_[ff.d];
      if (ff.scan_en.has_value()) d = logic_mux(values_[*ff.scan_en], d, values_[*ff.scan_in]);
      next[i] = d;
    }
    ff_q_ = std::move(next);
    settle();
  }

 private:
  void write(NetId n, Logic v) {
    if (stuck_net_.has_value() && *stuck_net_ == n) v = stuck_value_;
    values_[n] = v;
  }

  Logic eval(const Gate& g) const {
    auto in = [&](std::size_t i) { return values_[g.inputs.at(i)]; };
    Logic acc = Logic::kX;
    switch (g.type) {
      case GateType::kBuf: return in(0);
      case GateType::kInv: return logic_not(in(0));
      case GateType::kConst0: return Logic::k0;
      case GateType::kConst1: return Logic::k1;
      case GateType::kMux2: return logic_mux(in(0), in(1), in(2));
      case GateType::kAnd:
      case GateType::kNand:
        acc = Logic::k1;
        for (const NetId n : g.inputs) acc = logic_and(acc, values_[n]);
        return g.type == GateType::kAnd ? acc : logic_not(acc);
      case GateType::kOr:
      case GateType::kNor:
        acc = Logic::k0;
        for (const NetId n : g.inputs) acc = logic_or(acc, values_[n]);
        return g.type == GateType::kOr ? acc : logic_not(acc);
      case GateType::kXor:
      case GateType::kXnor:
        acc = Logic::k0;
        for (const NetId n : g.inputs) acc = logic_xor(acc, values_[n]);
        return g.type == GateType::kXor ? acc : logic_not(acc);
    }
    return Logic::kX;
  }

  const Circuit& c_;
  std::vector<Logic> values_;
  std::vector<Logic> ff_q_;
  std::vector<Logic> latch_q_;
  std::optional<NetId> stuck_net_;
  Logic stuck_value_ = Logic::kX;
};

/// Runs a random sequence of operations on up to 64 faults at once and
/// checks every net of every lane against a ByteSim per fault.
void check_lanes(const Circuit& base, const std::vector<StuckFault>& faults, std::uint64_t seed,
                 std::size_t& oscillations) {
  ASSERT_LE(faults.size(), kLanes);
  Circuit c = base;
  std::vector<ByteSim> refs(faults.size(), ByteSim(base));
  for (std::size_t l = 0; l < faults.size(); ++l) {
    c.set_stuck_lanes(faults[l].net, faults[l].value, std::uint64_t{1} << l);
    refs[l].set_stuck(faults[l].net, faults[l].value);
  }
  std::vector<NetId> inputs;
  for (NetId n = 0; n < c.net_count(); ++n) {
    if (c.is_input(n)) inputs.push_back(n);
  }
  util::Pcg32 rng(seed);
  for (int op = 0; op < 40; ++op) {
    const NetId in = inputs[rng.next_below(static_cast<std::uint32_t>(inputs.size()))];
    switch (rng.next_below(8)) {
      case 0: {
        const Logic v = random_logic(rng);
        c.set_input(in, v);
        for (auto& r : refs) r.set_input(in, v);
        break;
      }
      case 1:
        for (std::size_t l = 0; l < refs.size(); ++l) {
          const Logic v = random_logic(rng);
          c.set_input_lanes(in, v, std::uint64_t{1} << l);
          refs[l].set_input(in, v);
        }
        break;
      case 2: {
        const std::size_t ff = rng.next_below(static_cast<std::uint32_t>(c.flipflops().size()));
        const Logic v = random_logic(rng);
        c.set_ff_state(ff, v);
        for (auto& r : refs) r.set_ff_state(ff, v);
        break;
      }
      case 3:
        c.settle();
        for (auto& r : refs) r.settle();
        break;
      case 4:
        c.apply_reset();
        for (auto& r : refs) r.apply_reset();
        break;
      case 5:
        if (rng.next_below(3) == 0) {
          c.power_on();
          for (auto& r : refs) r.power_on();
        }
        break;
      default: {
        const std::uint32_t mask = 1 + rng.next_below(3);
        c.step(mask);
        for (auto& r : refs) r.step(mask);
      }
    }
    for (NetId n = 0; n < c.net_count(); ++n) {
      const LaneWord w = c.word(n);
      ASSERT_EQ(w.one & w.zero, 0u) << "net " << n << " is both 0 and 1";
      for (std::size_t l = 0; l < refs.size(); ++l) {
        ASSERT_EQ(w.lane(static_cast<unsigned>(l)), refs[l].value(n))
            << "op " << op << ", net " << c.net_name(n) << ", lane " << l << " ("
            << faults[l].describe(c) << ")";
      }
    }
  }
  for (const auto& r : refs) oscillations += r.oscillations;
}

constexpr std::size_t kBatchSizes[] = {1, 63, 64, 65, 130};

TEST(CircuitLanes, EveryLaneMatchesItsSingleFaultByteReference) {
  std::size_t oscillations = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Pcg32 rng(seed);
    const Circuit c = random_circuit(rng, 70, true);
    for (const std::size_t count : kBatchSizes) {
      const auto faults = fault_list(c, count, rng);
      for (std::size_t first = 0; first < faults.size(); first += kLanes) {
        const std::size_t n = std::min<std::size_t>(kLanes, faults.size() - first);
        check_lanes(c, {faults.begin() + first, faults.begin() + first + n}, seed * 1000 + first,
                    oscillations);
        if (HasFatalFailure()) return;
      }
    }
  }
  // The random netlists do oscillate, so the per-lane X-out is exercised.
  EXPECT_GT(oscillations, 0u);
}

TEST(CircuitLanes, ScalarApiBroadcastsAndReadsLaneZero) {
  Circuit c;
  const NetId a = c.net("a");
  const NetId y = c.net("y");
  c.make_input(a);
  c.add_gate(GateType::kInv, {a}, y);
  c.set_input(a, Logic::k1);
  c.settle();
  EXPECT_EQ(c.word(y), LaneWord::all(Logic::k0));
  c.set_input_lanes(a, Logic::k0, 0b10);
  c.set_stuck_lanes(y, Logic::kX, 0b100);
  c.settle();
  EXPECT_EQ(c.value(y), Logic::k0);
  EXPECT_EQ(c.word(y).lane(1), Logic::k1);
  EXPECT_EQ(c.word(y).lane(2), Logic::kX);
  c.broadcast_lane(1);
  EXPECT_EQ(c.word(y), LaneWord::all(Logic::k1));
}

// ---- settle bookkeeping against ByteSim ----

/// Every lane of every net of `c` equals its ByteSim.
void expect_lanes_match(const Circuit& c, const std::vector<ByteSim>& refs, const char* after) {
  for (NetId n = 0; n < c.net_count(); ++n) {
    const LaneWord w = c.word(n);
    for (std::size_t l = 0; l < refs.size(); ++l) {
      ASSERT_EQ(w.lane(static_cast<unsigned>(l)), refs[l].value(n))
          << "net " << c.net_name(n) << ", lane " << l << ", settle after " << after;
    }
  }
}

void settle_all(Circuit& c, std::vector<ByteSim>& refs) {
  c.settle();
  for (auto& r : refs) r.settle();
}

std::size_t oscillations_of(const std::vector<ByteSim>& refs) {
  std::size_t n = 0;
  for (const auto& r : refs) n += r.oscillations;
  return n;
}

/// A random netlist that always settles: five primary inputs, gates and
/// latches that each drive their own net and read only lower-numbered
/// nets, added in random order (so many nets are read before their
/// writer is evaluated), and flip-flops on the last eight nets.
Circuit settling_circuit(util::Pcg32& rng) {
  constexpr std::size_t kNets = 40;
  constexpr std::size_t kInputs = 5;
  constexpr std::size_t kFlops = 8;
  Circuit c;
  for (std::size_t i = 0; i < kNets; ++i) c.net(test::indexed("n", i));
  for (NetId n = 0; n < kInputs; ++n) c.make_input(n);
  std::vector<NetId> outputs;
  for (NetId n = kInputs; n < kNets - kFlops; ++n) outputs.push_back(n);
  for (std::size_t i = outputs.size(); i > 1; --i) {
    std::swap(outputs[i - 1], outputs[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  const auto below = [&](NetId n) { return static_cast<NetId>(rng.next_below(static_cast<std::uint32_t>(n))); };
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const NetId out = outputs[k];
    if (k % 7 == 6) {
      c.add_latch(Latch{below(out), out, below(out)});
      continue;
    }
    const auto type = static_cast<GateType>(rng.next_below(11));
    const std::size_t arity = type == GateType::kMux2 ? 3 : 1 + rng.next_below(3);
    std::vector<NetId> in;
    for (std::size_t i = 0; i < arity; ++i) in.push_back(below(out));
    c.add_gate(type, in, out);
  }
  for (std::size_t k = 0; k < kFlops; ++k) {
    FlipFlop ff{below(kNets), kNets - kFlops + k, {}, {}, {}, rng.next_below(2)};
    if (rng.next_below(3) == 0) ff.reset = below(kNets);
    if (rng.next_below(3) == 0) {
      ff.scan_en = below(kNets);
      ff.scan_in = below(kNets);
    }
    c.add_flipflop(ff);
  }
  return c;
}

TEST(CircuitSettle, SettleAfterEveryMutatorMatchesByteSim) {
  // A converged settle returns at once until something is written, so
  // each mutator must clear that state: a settle after it must equal the
  // byte evaluator, which always sweeps, on every lane. No gate or latch
  // drives a flip-flop output here, so the early return is live; new
  // gates and latches drive fresh nets, so every settle converges.
  const char* const names[] = {"set_input",   "set_input_lanes", "set_ff_state", "apply_reset",
                               "power_on",    "step",            "broadcast_lane",
                               "clear_faults", "set_stuck_lanes", "flipflop",     "add_gate",
                               "add_latch",   "add_flipflop",    "make_input"};
  std::size_t early_returns = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Pcg32 rng(seed);
    Circuit c = settling_circuit(rng);
    std::vector<ByteSim> refs(kLanes, ByteSim(c));
    const auto load_faults = [&] {
      const auto faults = fault_list(c, kLanes, rng);
      for (std::size_t l = 0; l < kLanes; ++l) {
        c.set_stuck_lanes(faults[l].net, faults[l].value, std::uint64_t{1} << l);
        refs[l].set_stuck(faults[l].net, faults[l].value);
      }
    };
    load_faults();
    bool faulted = true;
    int made_inputs = 0;
    const auto pick = [&](std::size_t n) { return rng.next_below(static_cast<std::uint32_t>(n)); };
    const auto flop_output = [&](NetId n) {
      for (const auto& ff : c.flipflops()) {
        if (ff.q == n) return true;
      }
      return false;
    };
    /// A net no input flag or flop output claims (make_input below takes
    /// at most 5).
    const auto swept_net = [&] {
      for (;;) {
        const NetId n = pick(c.net_count());
        if (!c.is_input(n) && !flop_output(n)) return n;
      }
    };
    /// A new net, settled first, so only the next mutation changes it.
    const auto fresh_net = [&] {
      const NetId n = c.net(test::indexed("fresh", c.net_count()));
      for (auto& r : refs) r.grow();
      settle_all(c, refs);
      return n;
    };
    const auto input_net = [&] {
      for (;;) {
        const NetId n = pick(c.net_count());
        if (c.is_input(n)) return n;
      }
    };
    for (int op = 0; op < 80; ++op) {
      const std::size_t kind = pick(std::size(names));
      SCOPED_TRACE("seed " + std::to_string(seed) + ", op " + std::to_string(op));
      switch (kind) {
        case 0: {
          const NetId n = input_net();
          const Logic v = random_logic(rng);
          c.set_input(n, v);
          for (auto& r : refs) r.set_input(n, v);
          break;
        }
        case 1: {
          const NetId n = input_net();
          for (std::size_t l = 0; l < kLanes; ++l) {
            const Logic v = random_logic(rng);
            c.set_input_lanes(n, v, std::uint64_t{1} << l);
            refs[l].set_input(n, v);
          }
          break;
        }
        case 2: {
          const std::size_t ff = pick(c.flipflops().size());
          const Logic v = random_logic(rng);
          c.set_ff_state(ff, v);
          for (auto& r : refs) r.set_ff_state(ff, v);
          break;
        }
        case 3:
          c.apply_reset();
          for (auto& r : refs) r.apply_reset();
          break;
        case 4:
          c.power_on();
          for (auto& r : refs) r.power_on();
          break;
        case 5: {
          const std::uint32_t mask = 1 + rng.next_below(3);
          c.step(mask);
          for (auto& r : refs) r.step(mask);
          break;
        }
        case 6: {
          const auto lane = static_cast<unsigned>(pick(kLanes));
          c.broadcast_lane(lane);
          const ByteSim from = refs[lane];
          for (auto& r : refs) r.copy_state(from);
          break;
        }
        case 7:
        case 8:
          if (faulted) {
            c.clear_faults();
            for (auto& r : refs) r.clear_stuck();
          } else {
            load_faults();
          }
          faulted = !faulted;
          break;
        case 9: {
          const NetId q = fresh_net();
          c.flipflop(pick(c.flipflops().size())).q = q;
          break;
        }
        case 10: {
          const NetId out = fresh_net();
          const auto type = static_cast<GateType>(pick(11));
          const std::size_t arity = type == GateType::kMux2 ? 3 : 1 + pick(3);
          std::vector<NetId> in;
          for (std::size_t i = 0; i < arity; ++i) in.push_back(pick(out));
          c.add_gate(type, in, out);
          break;
        }
        case 11: {
          const NetId q = fresh_net();
          c.add_latch(Latch{pick(q), q, pick(q)});
          for (auto& r : refs) r.grow();
          break;
        }
        case 12:
          // Its power-on X overwrites a known input (one no gate drives)
          // at the next settle.
          c.add_flipflop(FlipFlop{pick(c.net_count()), pick(5), {}, {}, {}, 0});
          for (auto& r : refs) r.grow();
          break;
        default:
          if (made_inputs++ < 5) c.make_input(swept_net());
          break;
      }
      const std::size_t oscillations = oscillations_of(refs);
      settle_all(c, refs);
      expect_lanes_match(c, refs, names[kind]);
      if (HasFatalFailure()) return;
      // Nothing written since a converged settle: the next one sweeps 0 times.
      if (oscillations_of(refs) == oscillations) {
        const std::uint64_t sweeps = c.sweeps();
        c.settle();
        ASSERT_EQ(c.sweeps(), sweeps) << "after " << names[kind];
        ++early_returns;
      }
    }
  }
  EXPECT_GT(early_returns, 100u);
}

TEST(CircuitSettle, RepeatedSettleSweepsOnlyAfterAWrite) {
  HistoryFixture f;
  Circuit& c = f.c;
  c.settle();
  const std::uint64_t settled = c.sweeps();
  EXPECT_GT(settled, 0u);
  c.settle();
  c.set_input(f.mode, Logic::k1);  // the value it already holds
  c.settle();
  EXPECT_EQ(c.sweeps(), settled);
  c.set_input(f.mode, Logic::k0);
  c.settle();
  EXPECT_GT(c.sweeps(), settled);
}

TEST(CircuitSettle, SweepLimitXOutMatchesByteSim) {
  // An enabled NAND ring oscillates on the lanes where `en` is 1, read
  // both before its writer (w) and after it (y); a net with two drivers
  // that disagree never settles either. Lanes that converge keep their
  // values; the others go X exactly where the byte evaluator's do.
  Circuit c;
  const NetId en = c.net("en");
  const NetId a = c.net("a");
  const NetId b = c.net("b");
  const NetId go = c.net("go");
  for (const NetId n : {en, a, b, go}) c.make_input(n);
  const NetId osc = c.net("osc");
  const NetId w = c.net("w");
  const NetId y = c.net("y");
  const NetId fight = c.net("fight");
  const NetId z = c.net("z");
  const NetId self = c.net("self");
  c.add_gate(GateType::kBuf, {osc}, w);
  c.add_gate(GateType::kNand, {en, osc}, osc);
  c.add_gate(GateType::kAnd, {osc, a}, y);
  c.add_gate(GateType::kBuf, {a}, fight);
  c.add_gate(GateType::kBuf, {b}, fight);
  c.add_gate(GateType::kInv, {fight}, z);
  // A ring read by its own writer only.
  c.add_gate(GateType::kNand, {go, self}, self);
  std::vector<ByteSim> refs(kLanes, ByteSim(c));
  c.set_stuck_lanes(osc, Logic::k0, 0b100);
  refs[2].set_stuck(osc, Logic::k0);
  for (const NetId n : {a, b}) c.set_input(n, Logic::k1);
  c.set_input(go, Logic::k0);
  for (auto& r : refs) {
    for (const NetId n : {a, b}) r.set_input(n, Logic::k1);
    r.set_input(go, Logic::k0);
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Logic v = l % 2 == 0 ? Logic::k1 : Logic::k0;
    c.set_input_lanes(en, v, std::uint64_t{1} << l);
    refs[l].set_input(en, v);
  }
  settle_all(c, refs);
  expect_lanes_match(c, refs, "power-up");
  EXPECT_EQ(c.word(osc).lane(0), Logic::kX);
  EXPECT_EQ(c.word(osc).lane(1), Logic::k1);
  EXPECT_EQ(c.word(osc).lane(2), Logic::k0);  // stuck: no oscillation
  EXPECT_EQ(c.word(self), LaneWord::all(Logic::k1));
  EXPECT_EQ(c.word(z).lane(1), Logic::k0);

  // The two drivers now disagree on every lane.
  c.set_input(b, Logic::k0);
  for (auto& r : refs) r.set_input(b, Logic::k0);
  settle_all(c, refs);
  expect_lanes_match(c, refs, "a driver fight");
  EXPECT_EQ(c.word(fight), LaneWord{});

  // With the fight over, enabling the self-ring, which holds a 1, starts
  // it oscillating, and nothing else changes.
  c.set_input(b, Logic::k1);
  for (auto& r : refs) r.set_input(b, Logic::k1);
  settle_all(c, refs);
  expect_lanes_match(c, refs, "the fight ending");
  c.set_input(go, Logic::k1);
  for (auto& r : refs) r.set_input(go, Logic::k1);
  settle_all(c, refs);
  expect_lanes_match(c, refs, "enabling the self-ring");
  EXPECT_EQ(c.word(self), LaneWord{});
}

TEST(CircuitSettle, RepeatedSettleMatchesByteSimWhenAGateDrivesAFlopOutput) {
  // Every settle first presents the flop on q, which a gate then
  // overwrites. Only the presented 1 sets the NAND latch (qa, qb), and
  // only once `e` has settled to 1, so the second settle with nothing
  // written moves qa from X to 1: it must sweep again.
  Circuit c;
  const NetId i = c.net("i");
  const NetId e_in = c.net("e_in");
  const NetId rb = c.net("rb");
  for (const NetId n : {i, e_in, rb}) c.make_input(n);
  const NetId q = c.net("q");
  const NetId e = c.net("e");
  const NetId sb = c.net("sb");
  const NetId qa = c.net("qa");
  const NetId qb = c.net("qb");
  c.add_gate(GateType::kNand, {q, e}, sb);
  c.add_gate(GateType::kNand, {sb, qb}, qa);
  c.add_gate(GateType::kNand, {rb, qa}, qb);
  c.add_gate(GateType::kBuf, {i}, q);
  c.add_gate(GateType::kBuf, {e_in}, e);
  c.add_flipflop(FlipFlop{i, q, {}, {}, {}, 0});
  std::vector<ByteSim> refs(1, ByteSim(c));
  c.set_ff_state(0, Logic::k1);
  refs[0].set_ff_state(0, Logic::k1);
  for (const auto& [n, v] : {std::pair{i, Logic::k0}, {e_in, Logic::k1}, {rb, Logic::k1}}) {
    c.set_input(n, v);
    refs[0].set_input(n, v);
  }
  settle_all(c, refs);
  expect_lanes_match(c, refs, "the first settle");
  EXPECT_EQ(c.value(qa), Logic::kX);
  settle_all(c, refs);
  expect_lanes_match(c, refs, "a settle with nothing written");
  EXPECT_EQ(c.value(qa), Logic::k1);
}

// ---- fault graders against serial loops ----

using Matrix = std::vector<std::vector<bool>>;

std::vector<std::vector<Logic>> serial_golden(Circuit& c,
                                              const std::vector<const ScanChain*>& chains,
                                              const std::vector<MultiScanPattern>& pats,
                                              const std::vector<NetId>& observe) {
  c.clear_faults();
  std::vector<std::vector<Logic>> golden;
  for (const auto& p : pats) {
    c.power_on();
    golden.push_back(apply_pattern_multi(c, chains, p, observe));
  }
  return golden;
}

/// 2 = hard detect, 1 = possible detect, 0 = neither.
int detect(const std::vector<Logic>& good, const std::vector<Logic>& bad) {
  int d = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (!is_known(good[i])) continue;
    if (!is_known(bad[i])) d = 1;
    if (is_known(bad[i]) && bad[i] != good[i]) return 2;
  }
  return d;
}

Matrix serial_matrix(Circuit& c, const std::vector<const ScanChain*>& chains,
                     const std::vector<MultiScanPattern>& pats,
                     const std::vector<StuckFault>& faults, const std::vector<NetId>& observe) {
  const auto golden = serial_golden(c, chains, pats, observe);
  Matrix m(pats.size(), std::vector<bool>(faults.size(), false));
  for (std::size_t f = 0; f < faults.size(); ++f) {
    c.set_stuck(faults[f].net, faults[f].value);
    for (std::size_t p = 0; p < pats.size(); ++p) {
      c.power_on();
      m[p][f] = detect(golden[p], apply_pattern_multi(c, chains, pats[p], observe)) == 2;
    }
    c.clear_faults();
  }
  return m;
}

StuckCampaignResult serial_campaign(Circuit& c, const std::vector<const ScanChain*>& chains,
                                    const std::vector<MultiScanPattern>& pats,
                                    const std::vector<StuckFault>& faults,
                                    const std::vector<NetId>& observe) {
  const auto golden = serial_golden(c, chains, pats, observe);
  StuckCampaignResult r;
  for (const auto& f : faults) {
    int best = 0;
    c.set_stuck(f.net, f.value);
    for (std::size_t p = 0; p < pats.size() && best != 2; ++p) {
      c.power_on();
      best = std::max(best, detect(golden[p], apply_pattern_multi(c, chains, pats[p], observe)));
    }
    c.clear_faults();
    r.hard.add(best == 2);
    r.combined.add(best != 0);
    if (best == 0) r.undetected.push_back(f);
  }
  return r;
}

std::vector<double> curve_of(const Matrix& m, std::size_t n_faults) {
  std::vector<bool> covered(n_faults, false);
  std::size_t n = 0;
  std::vector<double> curve;
  for (const auto& row : m) {
    for (std::size_t f = 0; f < n_faults; ++f) {
      if (row[f] && !covered[f]) {
        covered[f] = true;
        ++n;
      }
    }
    curve.push_back(100.0 * static_cast<double>(n) / static_cast<double>(n_faults));
  }
  return curve;
}

/// Greedy set cover: the pattern adding the most faults first, lowest
/// index on ties, until none adds one.
std::vector<std::size_t> greedy_of(const Matrix& m, std::size_t n_faults) {
  std::vector<bool> covered(n_faults, false);
  std::vector<bool> used(m.size(), false);
  std::vector<std::size_t> selected;
  for (;;) {
    std::size_t best = m.size();
    std::size_t best_gain = 0;
    for (std::size_t p = 0; p < m.size(); ++p) {
      std::size_t gain = 0;
      for (std::size_t f = 0; f < n_faults && !used[p]; ++f) gain += m[p][f] && !covered[f];
      if (gain > best_gain) {
        best_gain = gain;
        best = p;
      }
    }
    if (best == m.size()) return selected;
    used[best] = true;
    selected.push_back(best);
    for (std::size_t f = 0; f < n_faults; ++f) covered[f] = covered[f] || m[best][f];
  }
}

void expect_same_state(const Circuit& batch, const Circuit& serial, const char* after) {
  for (NetId n = 0; n < batch.net_count(); ++n) {
    EXPECT_EQ(batch.word(n), serial.word(n)) << "net " << batch.net_name(n) << " after " << after;
  }
  EXPECT_FALSE(batch.has_fault()) << after;
}

/// Runs the coverage curve, compaction and campaign in sequence on one
/// copy of `base`, and the serial loops on another, comparing results
/// and circuit state after every call.
void expect_batch_equals_serial(const Circuit& base, const std::vector<const ScanChain*>& chains,
                                const std::vector<MultiScanPattern>& pats,
                                const std::vector<StuckFault>& faults,
                                const std::vector<NetId>& observe) {
  Circuit batch = base;
  Circuit serial = base;
  const std::size_t n = faults.size();

  const auto curve = coverage_vs_pattern_count(batch, chains, pats, faults, observe);
  const auto want_curve = curve_of(serial_matrix(serial, chains, pats, faults, observe), n);
  // Without faults both curves are 0/0 throughout.
  if (n > 0) {
    EXPECT_EQ(curve, want_curve);
  }
  EXPECT_EQ(curve.size(), want_curve.size());
  expect_same_state(batch, serial, "coverage_vs_pattern_count");

  const CompactionResult compact = compact_patterns(batch, chains, pats, faults, observe);
  EXPECT_EQ(compact.selected, greedy_of(serial_matrix(serial, chains, pats, faults, observe), n));
  expect_same_state(batch, serial, "compact_patterns");

  const StuckCampaignResult got = run_stuck_campaign_multi(batch, chains, pats, faults, observe);
  const StuckCampaignResult want = serial_campaign(serial, chains, pats, faults, observe);
  EXPECT_EQ(got.hard.detected, want.hard.detected);
  EXPECT_EQ(got.combined.detected, want.combined.detected);
  ASSERT_EQ(got.undetected.size(), want.undetected.size());
  for (std::size_t i = 0; i < got.undetected.size(); ++i) {
    EXPECT_EQ(got.undetected[i].net, want.undetected[i].net);
    EXPECT_EQ(got.undetected[i].value, want.undetected[i].value);
  }
  expect_same_state(batch, serial, "run_stuck_campaign_multi");
}

TEST(StuckCampaignHistory, LeftoverResetInputChangesTheChainLoad) {
  // The contract is not vacuous: the `rst` value a previous pattern left
  // changes what the next pattern loads, and so its response.
  HistoryFixture f;
  const MultiScanPattern p{{logic_vector("111")}, {{f.rst, Logic::k0}, {f.a, Logic::k0}}, 1};
  Circuit held_in_reset = f.c;
  Circuit released = f.c;
  released.set_input(f.rst, Logic::k0);
  EXPECT_NE(serial_golden(held_in_reset, {&*f.chain}, {p}, {}),
            serial_golden(released, {&*f.chain}, {p}, {}));
}

TEST(StuckCampaignHistory, GradersEqualSerialLoopsWhenEveryPatternWritesTheInputs) {
  HistoryFixture f;
  const auto universe = enumerate_stuck_faults(f.c);
  for (const std::size_t count : kBatchSizes) {
    std::vector<StuckFault> faults;
    for (std::size_t i = 0; i < count; ++i) faults.push_back(universe[(7 * i) % universe.size()]);
    // Seeds 9 and 10 have faults whose first-pattern outcome changes when
    // the previous fault ran past pattern 0.
    for (const std::uint64_t seed : {1u, 9u, 10u}) {
      SCOPED_TRACE("faults " + std::to_string(count) + ", seed " + std::to_string(seed));
      expect_batch_equals_serial(f.c, {&*f.chain}, f.patterns(8, seed), faults, {f.x});
    }
  }
}

TEST(StuckCampaignHistory, GradersEqualSerialLoopsWhenLaterPatternsWriteMoreInputs) {
  // Pattern 0 leaves `rst` alone, so the later patterns' detections also
  // depend on where the previous fault stopped.
  HistoryFixture f;
  auto pats = f.patterns(8, 5);
  pats[0].pi_values = {{f.a, Logic::k1}};
  pats[3].pi_values.emplace_back(f.mode, Logic::k0);
  const auto universe = enumerate_stuck_faults(f.c);
  std::vector<StuckFault> faults;
  for (std::size_t i = 0; i < 65; ++i) faults.push_back(universe[(5 * i) % universe.size()]);
  expect_batch_equals_serial(f.c, {&*f.chain}, pats, faults, {f.x});
}

TEST(StuckCampaignHistory, GradersEqualSerialLoopsOnRandomScanCircuits) {
  // Two passes each, the second partial; serial loops on oscillating
  // netlists are slow, so the sizes below 64 are left to the fixture above.
  for (std::uint64_t seed = 11; seed <= 12; ++seed) {
    util::Pcg32 rng(seed);
    Circuit c = random_circuit(rng, 20, false);
    std::vector<std::size_t> dom0, dom1;
    for (std::size_t i = 0; i < c.flipflops().size(); ++i) {
      (c.flipflops()[i].domain == 0 ? dom0 : dom1).push_back(i);
    }
    if (dom0.empty() || dom1.empty()) continue;
    const ScanChain a(c, "sa", dom0);
    const ScanChain b(c, "sb", dom1);
    const std::vector<const ScanChain*> chains = {&a, &b};
    const auto pats = random_patterns_multi(chains, {0, 1, 2, 3}, 4, rng);
    const std::vector<NetId> observe = {10, 15};
    for (const std::size_t count : {65, 130}) {
      expect_batch_equals_serial(c, chains, pats, fault_list(c, count, rng), observe);
    }
  }
}

TEST(StuckCampaignHistory, EmptyPatternOrFaultListsLeaveTheCircuitAsTheSerialLoopsDo) {
  HistoryFixture f;
  const auto faults = enumerate_stuck_faults(f.c);
  expect_batch_equals_serial(f.c, {&*f.chain}, {}, faults, {});
  expect_batch_equals_serial(f.c, {&*f.chain}, f.patterns(4, 9), {}, {});
}

}  // namespace
}  // namespace lsl::digital
