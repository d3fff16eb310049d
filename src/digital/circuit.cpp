#include "digital/circuit.hpp"

#include <stdexcept>

namespace lsl::digital {

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// 2:1 mux per lane with X-pessimism: an X select gives a known value
/// only where both data inputs agree on it.
LaneWord mux(LaneWord sel, LaneWord d0, LaneWord d1) {
  const std::uint64_t sel_x = ~(sel.one | sel.zero);
  return {(sel.zero & d0.one) | (sel.one & d1.one) | (sel_x & d0.one & d1.one),
          (sel.zero & d0.zero) | (sel.one & d1.zero) | (sel_x & d0.zero & d1.zero)};
}

/// `w` with the lanes in `lanes` driven to X.
LaneWord to_x(LaneWord w, std::uint64_t lanes) { return {w.one & ~lanes, w.zero & ~lanes}; }

LaneWord invert(LaneWord w) { return {w.zero, w.one}; }

/// A gate of `type` over the values of nets in[0, count).
inline LaneWord eval(GateType type, const LaneWord* v, const std::uint32_t* in,
                     std::uint32_t count) {
  const std::uint32_t* end = in + count;
  switch (type) {
    case GateType::kBuf: return v[in[0]];
    case GateType::kInv: return invert(v[in[0]]);
    case GateType::kConst0: return {0, kAll};
    case GateType::kConst1: return {kAll, 0};
    case GateType::kMux2: return mux(v[in[0]], v[in[1]], v[in[2]]);
    case GateType::kAnd:
    case GateType::kNand: {
      LaneWord acc{kAll, 0};
      for (; in != end; ++in) acc = {acc.one & v[*in].one, acc.zero | v[*in].zero};
      return type == GateType::kAnd ? acc : invert(acc);
    }
    case GateType::kOr:
    case GateType::kNor: {
      LaneWord acc{0, kAll};
      for (; in != end; ++in) acc = {acc.one | v[*in].one, acc.zero & v[*in].zero};
      return type == GateType::kOr ? acc : invert(acc);
    }
    case GateType::kXor:
    case GateType::kXnor: {
      // Any X input makes the lane X; otherwise the parity of the ones.
      std::uint64_t known = kAll;
      std::uint64_t parity = 0;
      for (; in != end; ++in) {
        known &= v[*in].one | v[*in].zero;
        parity ^= v[*in].one;
      }
      const LaneWord acc{known & parity, known & ~parity};
      return type == GateType::kXor ? acc : invert(acc);
    }
  }
  return LaneWord{};
}

}  // namespace

std::vector<Logic> lane0(const std::vector<LaneWord>& words) {
  std::vector<Logic> out;
  out.reserve(words.size());
  for (const LaneWord& w : words) out.push_back(w.lane(0));
  return out;
}

NetId Circuit::net(const std::string& name) {
  if (net_by_name_.count(name) != 0) throw std::invalid_argument("duplicate net: " + name);
  const NetId id = net_names_.size();
  net_names_.push_back(name);
  net_by_name_.emplace(name, id);
  input_flag_.push_back(false);
  values_.emplace_back();
  force_.emplace_back();
  return id;
}

NetId Circuit::net_or_new(const std::string& name) {
  const auto it = net_by_name_.find(name);
  if (it != net_by_name_.end()) return it->second;
  return net(name);
}

std::optional<NetId> Circuit::find_net(const std::string& name) const {
  const auto it = net_by_name_.find(name);
  if (it == net_by_name_.end()) return std::nullopt;
  return it->second;
}

const std::string& Circuit::net_name(NetId id) const { return net_names_.at(id); }

void Circuit::make_input(NetId n) { input_flag_.at(n) = true; }

bool Circuit::is_input(NetId n) const { return input_flag_.at(n); }

void Circuit::add_gate(GateType type, std::vector<NetId> inputs, NetId output) {
  const std::size_t arity = type == GateType::kMux2                                ? 3
                            : type == GateType::kBuf || type == GateType::kInv ? 1
                                                                               : 0;
  if (inputs.size() < arity) throw std::invalid_argument("gate is missing inputs");
  ops_.push_back(Op{type, static_cast<std::uint32_t>(output),
                    static_cast<std::uint32_t>(gate_inputs_.size()),
                    static_cast<std::uint32_t>(inputs.size())});
  gate_inputs_.insert(gate_inputs_.end(), inputs.begin(), inputs.end());
  gates_.push_back(Gate{type, std::move(inputs), output});
  topology_changed();
}

std::size_t Circuit::add_flipflop(FlipFlop ff) {
  flipflops_.push_back(ff);
  ff_q_.emplace_back();
  topology_changed();
  return flipflops_.size() - 1;
}

std::size_t Circuit::add_latch(Latch l) {
  latches_.push_back(l);
  latch_q_.emplace_back();
  topology_changed();
  return latches_.size() - 1;
}

void Circuit::power_on() {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!input_flag_[i]) values_[i] = LaneWord{};
  }
  for (auto& q : ff_q_) q = LaneWord{};
  for (auto& q : latch_q_) q = LaneWord{};
  settled_ = false;
}

void Circuit::apply_reset() {
  settle();
  for (std::size_t i = 0; i < flipflops_.size(); ++i) {
    const auto& ff = flipflops_[i];
    if (!ff.reset.has_value()) continue;
    const std::uint64_t r = values_[*ff.reset].one;
    const LaneWord q{ff_q_[i].one & ~r, ff_q_[i].zero | r};
    if (q != ff_q_[i]) settled_ = false;
    ff_q_[i] = q;
  }
  settle();
}

void Circuit::set_input_lanes(NetId n, Logic v, std::uint64_t lanes) {
  if (!input_flag_.at(n)) throw std::invalid_argument("not an input: " + net_names_.at(n));
  const LaneWord w = LaneWord::all(v);
  LaneWord& cur = values_[n];
  const LaneWord next{(cur.one & ~lanes) | (w.one & lanes), (cur.zero & ~lanes) | (w.zero & lanes)};
  if (next != cur) settled_ = false;
  cur = next;
}

template <bool kForced>
std::uint64_t Circuit::sweep(std::uint64_t& feedback) {
  LaneWord* v = values_.data();
  const std::uint64_t* fb = feedback_.data();
  std::uint64_t changed = 0;
  const auto update = [&](std::uint32_t n, LaneWord w) {
    if constexpr (kForced) w = forced(n, w);
    const std::uint64_t d = (v[n].one ^ w.one) | (v[n].zero ^ w.zero);
    changed |= d;
    feedback |= d & fb[n];
    v[n] = w;
  };
  for (const Op& g : ops_) update(g.output, eval(g.type, v, gate_inputs_.data() + g.first, g.count));
  for (std::size_t i = 0; i < latches_.size(); ++i) {
    // Transparent while en is 1, holding while 0; an X enable gives a
    // known value only where the held state and the input agree.
    const Latch& l = latches_[i];
    latch_q_[i] = mux(v[l.en], latch_q_[i], v[l.d]);
    update(static_cast<std::uint32_t>(l.q), latch_q_[i]);
  }
  return changed;
}

void Circuit::mark_feedback() {
  // Positions in evaluation order: gates, then latches. A net read at or
  // before its writer's position carries a value into the next sweep.
  constexpr std::size_t kUnwritten = ~std::size_t{0};
  std::vector<std::size_t> writer(net_names_.size(), kUnwritten);
  feedback_.assign(net_names_.size(), 0);
  const auto write = [&](NetId n, std::size_t pos) {
    if (writer[n] != kUnwritten) feedback_[n] = kAll;
    writer[n] = pos;
  };
  const auto read = [&](NetId n, std::size_t pos) {
    if (writer[n] != kUnwritten && pos <= writer[n]) feedback_[n] = kAll;
  };
  const std::size_t n_gates = gates_.size();
  for (std::size_t i = 0; i < n_gates; ++i) write(gates_[i].output, i);
  for (std::size_t i = 0; i < latches_.size(); ++i) write(latches_[i].q, n_gates + i);
  for (std::size_t i = 0; i < n_gates; ++i) {
    for (const NetId n : gates_[i].inputs) read(n, i);
  }
  for (std::size_t i = 0; i < latches_.size(); ++i) {
    read(latches_[i].d, n_gates + i);
    read(latches_[i].en, n_gates + i);
  }
  ff_output_swept_ = false;
  for (const FlipFlop& ff : flipflops_) ff_output_swept_ |= writer[ff.q] != kUnwritten;
  marks_stale_ = false;
}

void Circuit::settle() {
  if (marks_stale_) mark_feedback();
  // A converged settle is a fixpoint, so repeating it changes nothing,
  // unless presenting the flops below overwrites a swept net.
  if (settled_ && !ff_output_swept_) return;

  // Apply stuck faults to input nets too (inputs are written directly by
  // set_input and bypass forced()).
  for (const NetId n : stuck_nets_) {
    if (input_flag_[n]) values_[n] = forced(n, values_[n]);
  }

  // Flip-flop outputs present their held state.
  for (std::size_t i = 0; i < flipflops_.size(); ++i) {
    values_[flipflops_[i].q] = forced(flipflops_[i].q, ff_q_[i]);
  }

  // Each lane sweeps until it stops changing. A lane that has converged
  // is a fixpoint, so further sweeps for other lanes leave it as it is.
  // When no feedback net changed, every element read its final inputs,
  // so the next sweep would change nothing: the settle has converged,
  // except that a change in the last allowed sweep still counts.
  const std::size_t sweep_limit = 2 * (gates_.size() + latches_.size()) + 4;
  std::uint64_t changed = 0;
  for (std::size_t sweeps = 1;; ++sweeps) {
    std::uint64_t feedback = 0;
    changed = has_fault() ? sweep<true>(feedback) : sweep<false>(feedback);
    ++sweeps_;
    if (changed == 0 || sweeps == sweep_limit) break;
    if (feedback == 0) {
      changed = 0;
      break;
    }
  }
  settled_ = changed == 0;
  if (changed != 0) {
    // Combinational oscillation: X out every gate/latch output on the
    // lanes that were still changing.
    for (const Op& g : ops_) values_[g.output] = forced(g.output, to_x(values_[g.output], changed));
    for (const Latch& l : latches_) values_[l.q] = forced(l.q, to_x(values_[l.q], changed));
  }
}

void Circuit::step(std::uint32_t domain_mask) {
  settle();
  // Rising edge: capture D (or scan-in) into every clocked flop
  // simultaneously (captures read only the settled nets, which change
  // at the next settle); an asserted reset captures 0.
  for (std::size_t i = 0; i < flipflops_.size(); ++i) {
    const auto& ff = flipflops_[i];
    if ((domain_mask & (1u << ff.domain)) == 0) continue;
    LaneWord d = values_[ff.d];
    if (ff.scan_en.has_value()) d = mux(values_[*ff.scan_en], d, values_[*ff.scan_in]);
    const std::uint64_t r = ff.reset.has_value() ? values_[*ff.reset].one : 0;
    const LaneWord q{d.one & ~r, d.zero | r};
    if (q != ff_q_[i]) settled_ = false;
    ff_q_[i] = q;
  }
  settle();
}

void Circuit::broadcast_lane(unsigned lane) {
  for (auto* words : {&values_, &ff_q_, &latch_q_}) {
    for (LaneWord& w : *words) w = LaneWord::all(w.lane(lane));
  }
  settled_ = false;
}

void Circuit::set_stuck(NetId n, Logic v) {
  clear_faults();
  set_stuck_lanes(n, v, kAll);
}

void Circuit::set_stuck_lanes(NetId n, Logic v, std::uint64_t lanes) {
  Force& f = force_.at(n);
  if (lanes == 0) return;
  if (f.mask == 0) stuck_nets_.push_back(n);
  const LaneWord w = LaneWord::all(v);
  f.mask |= lanes;
  f.value = {(f.value.one & ~lanes) | (w.one & lanes), (f.value.zero & ~lanes) | (w.zero & lanes)};
  settled_ = false;
}

void Circuit::clear_faults() {
  if (stuck_nets_.empty()) return;
  for (const NetId n : stuck_nets_) force_[n] = Force{};
  stuck_nets_.clear();
  settled_ = false;
}

}  // namespace lsl::digital
