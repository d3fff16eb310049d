#include "digital/input_history.hpp"

#include "util/metrics.hpp"

namespace lsl::digital {

InputHistory::InputHistory(const Circuit& c) {
  for (NetId n = 0; n < c.net_count(); ++n) {
    if (c.is_input(n)) inputs.push_back(n);
  }
}

std::vector<Logic> InputHistory::record(Circuit& c, const std::vector<const ScanChain*>& chains,
                                        const MultiScanPattern& p,
                                        const std::vector<NetId>& observe_nets) {
  for (const NetId n : inputs) {
    c.set_input_lanes(n, Logic::k0, 0b010);
    c.set_input_lanes(n, Logic::k1, 0b100);
  }
  c.power_on();
  std::vector<Logic> response = lane0(apply_pattern_lanes(c, chains, p, observe_nets));
  std::vector<std::optional<Logic>> last =
      leaves.empty() ? std::vector<std::optional<Logic>>(inputs.size()) : leaves.back();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const LaneWord w = c.word(inputs[i]);
    if (w.lane(1) == w.lane(2)) last[i] = w.lane(1);
  }
  leaves.push_back(std::move(last));
  return response;
}

std::vector<Logic> leave(const InputHistory& h, std::vector<Logic> start, std::size_t k,
                         const StuckFault& f) {
  for (std::size_t i = 0; i < start.size(); ++i) {
    if (h.leaves[k][i].has_value()) start[i] = *h.leaves[k][i];
    if (h.inputs[i] == f.net) start[i] = f.value;
  }
  return start;
}

void load_lanes(Circuit& c, const InputHistory& h, const std::vector<StuckFault>& faults,
                std::size_t first, const std::vector<std::vector<Logic>>& starts) {
  c.clear_faults();
  for (std::size_t l = 0; l < starts.size(); ++l) {
    const std::uint64_t lane = std::uint64_t{1} << l;
    for (std::size_t i = 0; i < h.inputs.size(); ++i) c.set_input_lanes(h.inputs[i], starts[l][i], lane);
    c.set_stuck_lanes(faults[first + l].net, faults[first + l].value, lane);
  }
}

SweepTally::~SweepTally() {
  static util::Counter& sweeps = util::metrics().counter("digital.sim.sweeps");
  sweeps.add(static_cast<std::int64_t>(c_.sweeps() - start_));
}

LaneDetects classify(const std::vector<Logic>& good, const std::vector<LaneWord>& bad) {
  LaneDetects d;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (!is_known(good[i])) continue;
    d.hard |= good[i] == Logic::k1 ? bad[i].zero : bad[i].one;
    d.possible |= ~(bad[i].one | bad[i].zero);
  }
  return d;
}

}  // namespace lsl::digital
