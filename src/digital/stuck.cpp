#include "digital/stuck.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "util/metrics.hpp"

namespace lsl::digital {

std::string StuckFault::describe(const Circuit& c) const {
  return c.net_name(net) + (value == Logic::k0 ? " s@0" : " s@1");
}

std::vector<StuckFault> enumerate_stuck_faults(const Circuit& c,
                                               const std::vector<std::string>& exclude_prefixes) {
  // Tie cells make one polarity redundant: a constant-1 net stuck at 1
  // is not a fault. Standard ATPG excludes these from the universe.
  std::vector<Logic> tied(c.net_count(), Logic::kX);
  for (const auto& g : c.gates()) {
    if (g.type == GateType::kConst0) tied[g.output] = Logic::k0;
    if (g.type == GateType::kConst1) tied[g.output] = Logic::k1;
  }
  auto excluded = [&](NetId n) {
    const std::string& name = c.net_name(n);
    for (const auto& p : exclude_prefixes) {
      if (name.rfind(p, 0) == 0) return true;
    }
    return false;
  };
  std::vector<StuckFault> out;
  out.reserve(c.net_count() * 2);
  for (NetId n = 0; n < c.net_count(); ++n) {
    if (excluded(n)) continue;
    if (tied[n] != Logic::k0) out.push_back({n, Logic::k0});
    if (tied[n] != Logic::k1) out.push_back({n, Logic::k1});
  }
  return out;
}

std::vector<LaneWord> apply_pattern_lanes(Circuit& c, const std::vector<const ScanChain*>& chains,
                                          const MultiScanPattern& p,
                                          const std::vector<NetId>& observe_nets) {
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i]->load_flop_order(c, p.chain_loads.at(i));
  }
  for (const auto& [net, v] : p.pi_values) c.set_input(net, v);
  std::vector<LaneWord> out;
  for (int k = 0; k < p.capture_cycles; ++k) {
    chains.front()->capture(c);
    // Primary outputs are strobed on every functional cycle.
    for (const NetId n : observe_nets) out.push_back(c.word(n));
  }
  for (const auto* chain : chains) {
    const auto r = chain->read_flop_order_lanes(c);
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

std::vector<Logic> apply_pattern_multi(Circuit& c, const std::vector<const ScanChain*>& chains,
                                       const MultiScanPattern& p,
                                       const std::vector<NetId>& observe_nets) {
  return lane0(apply_pattern_lanes(c, chains, p, observe_nets));
}

namespace {

/// The lanes below `n`.
std::uint64_t lanes_below(std::size_t n) {
  return n >= kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

bool has_lane(std::uint64_t mask, std::size_t lane) { return ((mask >> lane) & 1u) != 0; }

/// Lanes whose response hard-detects the fault (a known bit differs from
/// a known fault-free bit) or possibly detects it (X where the fault-free
/// bit is known).
struct LaneDetects {
  std::uint64_t hard = 0;
  std::uint64_t possible = 0;
};

LaneDetects classify(const std::vector<Logic>& good, const std::vector<LaneWord>& bad) {
  LaneDetects d;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (!is_known(good[i])) continue;
    d.hard |= good[i] == Logic::k1 ? bad[i].zero : bad[i].one;
    d.possible |= ~(bad[i].one | bad[i].zero);
  }
  return d;
}

/// The fault-free run of a pattern list from the Circuit's current
/// state: each pattern's response, and what each prefix of the list
/// leaves on the primary inputs.
struct GoldenRun {
  std::vector<std::vector<Logic>> responses;
  std::vector<NetId> inputs;  // every primary input
  /// leaves[k][i]: the value patterns 0..k last wrote to inputs[i], if
  /// any of them wrote it.
  std::vector<std::vector<std::optional<Logic>>> leaves;
  std::vector<Logic> end;  // input values after the run
};

GoldenRun golden_run(Circuit& c, const std::vector<const ScanChain*>& chains,
                     const std::vector<MultiScanPattern>& patterns,
                     const std::vector<NetId>& observe_nets) {
  GoldenRun g;
  for (NetId n = 0; n < c.net_count(); ++n) {
    if (c.is_input(n)) g.inputs.push_back(n);
  }
  c.clear_faults();
  std::vector<std::optional<Logic>> leaves(g.inputs.size());
  for (const auto& p : patterns) {
    // Lanes 1 and 2 enter the pattern with every input at 0 and at 1;
    // the inputs on which they agree afterwards are the ones it writes.
    for (const NetId n : g.inputs) {
      c.set_input_lanes(n, Logic::k0, 0b010);
      c.set_input_lanes(n, Logic::k1, 0b100);
    }
    c.power_on();
    g.responses.push_back(lane0(apply_pattern_lanes(c, chains, p, observe_nets)));
    for (std::size_t i = 0; i < g.inputs.size(); ++i) {
      const LaneWord w = c.word(g.inputs[i]);
      if (w.lane(1) == w.lane(2)) leaves[i] = w.lane(1);
    }
    g.leaves.push_back(leaves);
  }
  c.broadcast_lane(0);
  for (const NetId n : g.inputs) g.end.push_back(c.value(n));
  return g;
}

/// Primary inputs after a fault's run from `start` that stopped at
/// pattern k: what patterns 0..k wrote last, and a stuck input's stuck
/// value (settle forces it, and clear_faults does not restore it).
std::vector<Logic> leave(const GoldenRun& g, std::vector<Logic> start, std::size_t k,
                         const StuckFault& f) {
  for (std::size_t i = 0; i < start.size(); ++i) {
    if (g.leaves[k][i].has_value()) start[i] = *g.leaves[k][i];
    if (g.inputs[i] == f.net) start[i] = f.value;
  }
  return start;
}

/// Puts faults[first + l] on lane l, with primary inputs starts[l].
void load_lanes(Circuit& c, const GoldenRun& g, const std::vector<StuckFault>& faults,
                std::size_t first, const std::vector<std::vector<Logic>>& starts) {
  c.clear_faults();
  for (std::size_t l = 0; l < starts.size(); ++l) {
    const std::uint64_t lane = std::uint64_t{1} << l;
    for (std::size_t i = 0; i < g.inputs.size(); ++i) c.set_input_lanes(g.inputs[i], starts[l][i], lane);
    c.set_stuck_lanes(faults[first + l].net, faults[first + l].value, lane);
  }
}

/// Applies patterns[from, to) to the loaded lanes, powering on before
/// each, and classifies every lane's response. With `until_all_hard` it
/// stops once every lane in `active` has a hard detect.
std::vector<LaneDetects> run_lanes(Circuit& c, const std::vector<const ScanChain*>& chains,
                                   const std::vector<MultiScanPattern>& patterns,
                                   const GoldenRun& g, const std::vector<NetId>& observe_nets,
                                   std::size_t from, std::size_t to, std::uint64_t active,
                                   bool until_all_hard) {
  static util::Counter& applications =
      util::metrics().counter("digital.fault_sim.lane_pattern_applications");
  std::vector<LaneDetects> out;
  std::uint64_t hard = 0;
  for (std::size_t p = from; p < to && !(until_all_hard && (hard & active) == active); ++p) {
    c.power_on();
    out.push_back(classify(g.responses[p], apply_pattern_lanes(c, chains, patterns[p], observe_nets)));
    hard |= out.back().hard;
  }
  applications.add(std::popcount(active) * static_cast<std::int64_t>(out.size()));
  return out;
}

/// Leaves `c` as a serial loop leaves it: after fault f's run from
/// inputs `start`, stopped at pattern k, with the fault cleared.
void replay_end(Circuit& c, const std::vector<const ScanChain*>& chains,
                const std::vector<MultiScanPattern>& patterns, const GoldenRun& g,
                const std::vector<NetId>& observe_nets, std::vector<Logic> start, std::size_t k,
                const StuckFault& f) {
  if (k > 0) start = leave(g, std::move(start), k - 1, f);
  for (std::size_t i = 0; i < g.inputs.size(); ++i) c.set_input(g.inputs[i], start[i]);
  c.set_stuck(f.net, f.value);
  c.power_on();
  apply_pattern_lanes(c, chains, patterns[k], observe_nets);
  c.clear_faults();
}

}  // namespace

std::vector<std::vector<bool>> detection_matrix(Circuit& c,
                                                const std::vector<const ScanChain*>& chains,
                                                const std::vector<MultiScanPattern>& patterns,
                                                const std::vector<StuckFault>& faults,
                                                const std::vector<NetId>& observe_nets) {
  static util::Counter& batches = util::metrics().counter("digital.fault_sim.batches");
  const GoldenRun g = golden_run(c, chains, patterns, observe_nets);
  std::vector<std::vector<bool>> detects(patterns.size(), std::vector<bool>(faults.size(), false));
  if (patterns.empty()) return detects;
  // Every run goes to the last pattern, so the inputs each fault starts
  // from follow from the previous fault alone.
  const std::size_t last = patterns.size() - 1;
  std::vector<Logic> start = g.end;
  std::vector<std::vector<Logic>> starts;
  for (std::size_t first = 0; first < faults.size(); first += kLanes) {
    const std::size_t n = std::min<std::size_t>(kLanes, faults.size() - first);
    starts.clear();
    for (std::size_t l = 0; l < n; ++l) {
      starts.push_back(start);
      start = leave(g, std::move(start), last, faults[first + l]);
    }
    load_lanes(c, g, faults, first, starts);
    const auto d =
        run_lanes(c, chains, patterns, g, observe_nets, 0, patterns.size(), lanes_below(n), false);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      for (std::size_t l = 0; l < n; ++l) detects[p][first + l] = has_lane(d[p].hard, l);
    }
    batches.add();
  }
  if (!faults.empty()) {
    replay_end(c, chains, patterns, g, observe_nets, starts.back(), last, faults.back());
  }
  return detects;
}

StuckCampaignResult run_stuck_campaign_multi(Circuit& c,
                                             const std::vector<const ScanChain*>& chains,
                                             const std::vector<MultiScanPattern>& patterns,
                                             const std::vector<StuckFault>& faults,
                                             const std::vector<NetId>& observe_nets) {
  static util::Counter& batches = util::metrics().counter("digital.fault_sim.batches");
  static util::Counter& reruns = util::metrics().counter("digital.fault_sim.pattern0_reruns");
  const GoldenRun g = golden_run(c, chains, patterns, observe_nets);
  StuckCampaignResult result;
  if (patterns.empty()) {
    for (const auto& f : faults) {
      result.hard.add(false);
      result.combined.add(false);
      result.undetected.push_back(f);
    }
    return result;
  }
  const std::size_t n_patterns = patterns.size();
  // A run stops at its first hard detect, so the inputs a fault starts
  // from depend on where the previous fault stopped. Only pattern 0 sees
  // them when pattern 0 writes every input a later pattern writes;
  // otherwise each pass takes one fault, whose start is then exact.
  bool first_writes_all = true;
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    if (g.leaves.back()[i].has_value() && !g.leaves.front()[i].has_value()) first_writes_all = false;
  }
  const std::size_t width = first_writes_all ? kLanes : 1;

  std::vector<Logic> start = g.end;  // exact start of the next fault
  std::vector<Logic> end_start;      // and of the last fault resolved
  std::size_t end_stop = 0;
  std::vector<std::vector<Logic>> guess, starts;
  for (std::size_t first = 0; first < faults.size(); first += width) {
    const std::size_t n = std::min(width, faults.size() - first);
    const std::uint64_t active = lanes_below(n);
    const auto fault = [&](std::size_t l) { return faults[first + l]; };
    batches.add();

    // Starts assuming every earlier fault of the pass stopped at pattern
    // 0: right on every input except those pattern 0 writes.
    guess.assign(1, start);
    for (std::size_t l = 1; l < n; ++l) guess.push_back(leave(g, guess[l - 1], 0, fault(l - 1)));

    // Patterns 1.. from the inputs pattern 0 leaves.
    starts.clear();
    for (std::size_t l = 0; l < n; ++l) starts.push_back(leave(g, guess[l], 0, fault(l)));
    load_lanes(c, g, faults, first, starts);
    const auto later = run_lanes(c, chains, patterns, g, observe_nets, 1, n_patterns, active, true);
    std::vector<std::size_t> later_stop(n, n_patterns - 1);
    std::uint64_t later_hard = 0;
    std::uint64_t later_possible = 0;
    for (std::size_t j = 0; j < later.size(); ++j) {
      for (std::size_t l = 0; l < n; ++l) {
        if (has_lane(later[j].hard & ~later_hard, l)) later_stop[l] = 1 + j;
      }
      later_hard |= later[j].hard;
      later_possible |= later[j].possible;
    }

    // Pattern 0 from the two starts the previous fault can leave: it
    // stopped at pattern 0, or at its first later hard detect.
    load_lanes(c, g, faults, first, guess);
    const LaneDetects at_zero =
        run_lanes(c, chains, patterns, g, observe_nets, 0, 1, active, false).front();
    starts.assign(1, start);
    for (std::size_t l = 1; l < n; ++l) {
      starts.push_back(leave(g, guess[l - 1], later_stop[l - 1], fault(l - 1)));
    }
    LaneDetects at_later = at_zero;
    if (starts != guess) {
      load_lanes(c, g, faults, first, starts);
      at_later = run_lanes(c, chains, patterns, g, observe_nets, 0, 1, active, false).front();
      reruns.add();
    }

    // Serial pass: pick each fault's pattern-0 outcome by where the
    // previous fault actually stopped.
    bool previous_stopped_at_zero = true;
    for (std::size_t l = 0; l < n; ++l) {
      const LaneDetects& d0 = previous_stopped_at_zero ? at_zero : at_later;
      const bool hard0 = has_lane(d0.hard, l);
      const bool hard = hard0 || has_lane(later_hard, l);
      const bool possible = has_lane(d0.possible, l) || has_lane(later_possible, l);
      result.hard.add(hard);
      result.combined.add(hard || possible);
      if (!hard && !possible) result.undetected.push_back(fault(l));
      const std::size_t stop = hard0 ? 0 : later_stop[l];
      end_start = start;
      end_stop = stop;
      start = leave(g, std::move(start), stop, fault(l));
      previous_stopped_at_zero = stop == 0;
    }
  }
  if (!faults.empty()) {
    replay_end(c, chains, patterns, g, observe_nets, end_start, end_stop, faults.back());
  }
  return result;
}

std::vector<MultiScanPattern> random_patterns_multi(const std::vector<const ScanChain*>& chains,
                                                    const std::vector<NetId>& pis,
                                                    std::size_t count, util::Pcg32& rng) {
  std::vector<MultiScanPattern> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    MultiScanPattern p;
    for (const auto* chain : chains) {
      std::vector<Logic> load(chain->length());
      for (auto& b : load) b = from_bool(rng.next_bool());
      p.chain_loads.push_back(std::move(load));
    }
    for (const NetId pi : pis) p.pi_values.emplace_back(pi, from_bool(rng.next_bool()));
    p.capture_cycles = 1 + static_cast<int>(rng.next_below(3));
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace lsl::digital
