// Scan-chain stitching and the shift/capture test protocol.
//
// A ScanChain is an ordered list of flip-flop indices within a Circuit,
// plus the nets carrying scan-enable, scan-in, and scan-out. Stitching
// wires each flop's scan_in to the previous flop's Q (mux-D style), which
// is exactly the paper's "Scan chain A / Scan chain B" construction.
#pragma once

#include <string>
#include <vector>

#include "digital/circuit.hpp"

namespace lsl::digital {

class ScanChain {
 public:
  /// Stitches `ff_indices` (scan order, scan-in first) into a chain on
  /// `circuit`. Creates nets `<prefix>_si`, `<prefix>_so`, `<prefix>_se`.
  /// The flops must not already have scan hookups.
  ScanChain(Circuit& circuit, std::string prefix, std::vector<std::size_t> ff_indices);

  std::size_t length() const { return ffs_.size(); }
  NetId scan_in() const { return si_; }
  NetId scan_out() const { return so_; }
  NetId scan_enable() const { return se_; }
  const std::vector<std::size_t>& flops() const { return ffs_; }

  /// Shifts the full vector in with FIFO semantics: vec[0] enters first
  /// (and emerges first on the next read); vec[i] lands in chain flop
  /// length()-1-i. Returns the length() bits shifted out, oldest first.
  std::vector<Logic> shift(Circuit& circuit, const std::vector<Logic>& vec) const;
  /// shift() on every lane: the words shifted out, oldest first.
  std::vector<LaneWord> shift_lanes(Circuit& circuit, const std::vector<Logic>& vec) const;

  /// Loads `vec` expressed in *flop order*: vec[i] ends up in flops()[i].
  void load_flop_order(Circuit& circuit, const std::vector<Logic>& vec) const;
  /// Reads the chain and returns bits in *flop order*.
  std::vector<Logic> read_flop_order(Circuit& circuit) const;
  /// read_flop_order() on every lane.
  std::vector<LaneWord> read_flop_order_lanes(Circuit& circuit) const;

  /// One functional capture cycle (scan-enable low).
  void capture(Circuit& circuit) const;

  /// Reads the chain by shifting out length() bits (shifts zeros in).
  std::vector<Logic> read(Circuit& circuit) const;

  /// Convenience: loads a pattern, pulses one capture, reads the result.
  std::vector<Logic> load_capture_read(Circuit& circuit, const std::vector<Logic>& pattern) const;

 private:
  std::vector<std::size_t> ffs_;
  NetId si_ = 0;
  NetId so_ = 0;
  NetId se_ = 0;
  std::uint32_t domain_mask_ = 0;
};

/// Helpers for building Logic vectors from 0/1 strings ("0110", X allowed).
std::vector<Logic> logic_vector(const std::string& bits);
std::string logic_string(const std::vector<Logic>& v);

}  // namespace lsl::digital
