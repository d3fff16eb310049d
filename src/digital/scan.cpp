#include "digital/scan.hpp"

#include <stdexcept>

namespace lsl::digital {

ScanChain::ScanChain(Circuit& circuit, std::string prefix, std::vector<std::size_t> ff_indices)
    : ffs_(std::move(ff_indices)) {
  si_ = circuit.net(prefix + "_si");
  se_ = circuit.net(prefix + "_se");
  circuit.make_input(si_);
  circuit.make_input(se_);
  circuit.set_input(si_, Logic::k0);
  circuit.set_input(se_, Logic::k0);

  // Flip-flop internals are not directly editable through the public
  // API by design; stitching goes through a dedicated hook.
  NetId prev_q = si_;
  for (const std::size_t fi : ffs_) {
    FlipFlop& ff = circuit.flipflop(fi);
    if (ff.scan_en.has_value()) throw std::invalid_argument("flop already in a scan chain");
    ff.scan_en = se_;
    ff.scan_in = prev_q;
    prev_q = ff.q;
    domain_mask_ |= 1u << ff.domain;
  }
  so_ = prev_q;
}

std::vector<Logic> ScanChain::shift(Circuit& circuit, const std::vector<Logic>& vec) const {
  return lane0(shift_lanes(circuit, vec));
}

std::vector<LaneWord> ScanChain::shift_lanes(Circuit& circuit,
                                             const std::vector<Logic>& vec) const {
  if (vec.size() != ffs_.size()) throw std::invalid_argument("scan vector length mismatch");
  std::vector<LaneWord> out;
  out.reserve(vec.size());
  circuit.set_input(se_, Logic::k1);
  // FIFO semantics: vec[0] is presented first, travels deepest, and is
  // the first bit to emerge on a subsequent read. In flop terms vec[i]
  // lands in chain flop (length-1-i).
  for (std::size_t k = 0; k < vec.size(); ++k) {
    circuit.settle();
    out.push_back(circuit.word(so_));
    circuit.set_input(si_, vec[k]);
    // Only this chain's clock domain toggles during its shift (the
    // paper's chains live in separate clock domains).
    circuit.step(domain_mask_);
  }
  circuit.set_input(se_, Logic::k0);
  circuit.settle();
  return out;
}

void ScanChain::load_flop_order(Circuit& circuit, const std::vector<Logic>& vec) const {
  shift_lanes(circuit, std::vector<Logic>(vec.rbegin(), vec.rend()));
}

std::vector<Logic> ScanChain::read_flop_order(Circuit& circuit) const {
  return lane0(read_flop_order_lanes(circuit));
}

std::vector<LaneWord> ScanChain::read_flop_order_lanes(Circuit& circuit) const {
  std::vector<LaneWord> fifo = shift_lanes(circuit, std::vector<Logic>(ffs_.size(), Logic::k0));
  return std::vector<LaneWord>(fifo.rbegin(), fifo.rend());
}

void ScanChain::capture(Circuit& circuit) const {
  circuit.set_input(se_, Logic::k0);
  circuit.step();
}

std::vector<Logic> ScanChain::read(Circuit& circuit) const {
  return shift(circuit, std::vector<Logic>(ffs_.size(), Logic::k0));
}

std::vector<Logic> ScanChain::load_capture_read(Circuit& circuit,
                                                const std::vector<Logic>& pattern) const {
  shift(circuit, pattern);
  capture(circuit);
  return read(circuit);
}

std::vector<Logic> logic_vector(const std::string& bits) {
  std::vector<Logic> out;
  out.reserve(bits.size());
  for (const char c : bits) {
    switch (c) {
      case '0': out.push_back(Logic::k0); break;
      case '1': out.push_back(Logic::k1); break;
      case 'x':
      case 'X': out.push_back(Logic::kX); break;
      default: throw std::invalid_argument("bad logic char");
    }
  }
  return out;
}

std::string logic_string(const std::vector<Logic>& v) {
  std::string s;
  s.reserve(v.size());
  for (const Logic b : v) s.push_back(logic_char(b));
  return s;
}

}  // namespace lsl::digital
