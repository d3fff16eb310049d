// Gate-level synchronous circuit model.
//
// A Circuit is a set of nets driven by combinational gates, transparent
// latches, and edge-triggered flip-flops in a single clock domain. The
// paper's digital control blocks (control FSM, UP/DN ring counter,
// switch matrix, lock detector) are built on these primitives, then scan
// chains are stitched through the flip-flops by the DFT layer.
//
// Evaluation is sweep-to-fixpoint over the combinational elements
// (latches included while transparent); `step()` then commits flip-flop
// state. Nets that fail to settle are driven to X, so combinational
// feedback degrades safely instead of hanging.
//
// Every net, flop and latch holds 64 independent lanes of 0/1/X in two
// bit-planes (LaneWord), and each lane may carry its own stuck-at fault,
// so one evaluation simulates up to 64 faulty machines at once. The
// scalar API writes every lane and reads lane 0; fault-parallel callers
// load per-lane inputs and faults and read whole words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "digital/logic.hpp"

namespace lsl::digital {

using NetId = std::size_t;

/// Lanes per LaneWord.
inline constexpr unsigned kLanes = 64;

/// 64 lanes of three-valued logic: lane i is 1 when bit i of `one` is
/// set, 0 when bit i of `zero` is set, and X when neither is.
struct LaneWord {
  std::uint64_t one = 0;
  std::uint64_t zero = 0;

  /// `v` on every lane.
  static LaneWord all(Logic v) {
    return {v == Logic::k1 ? ~std::uint64_t{0} : 0, v == Logic::k0 ? ~std::uint64_t{0} : 0};
  }
  Logic lane(unsigned i) const {
    if ((one >> i) & 1u) return Logic::k1;
    return ((zero >> i) & 1u) != 0 ? Logic::k0 : Logic::kX;
  }
  bool operator==(const LaneWord&) const = default;
};

/// Lane 0 of each word.
std::vector<Logic> lane0(const std::vector<LaneWord>& words);

enum class GateType {
  kBuf,
  kInv,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
  kMux2,   // inputs: {sel, d0, d1}
  kConst0,
  kConst1,
};

struct Gate {
  GateType type = GateType::kBuf;
  std::vector<NetId> inputs;
  NetId output = 0;
};

/// Rising-edge D flip-flop with asynchronous active-high reset (to 0)
/// and an optional built-in scan path: when `scan_en` (a net) is 1, the
/// flop captures `scan_in` instead of `d`, exactly like a mux-D scan
/// cell.
struct FlipFlop {
  NetId d = 0;
  NetId q = 0;
  std::optional<NetId> scan_en;
  std::optional<NetId> scan_in;
  std::optional<NetId> reset;
  /// Clock domain (0..31). step() only captures flops whose domain bit
  /// is in the mask — the paper's chain A and chain B live in different
  /// clock domains, so shifting one must not clock the other.
  unsigned domain = 0;
};

/// Level-sensitive latch: transparent while `en` is 1.
struct Latch {
  NetId d = 0;
  NetId q = 0;
  NetId en = 0;
};

class Circuit {
 public:
  /// Creates a named net. Names must be unique.
  NetId net(const std::string& name);
  /// Get-or-create by name.
  NetId net_or_new(const std::string& name);
  std::optional<NetId> find_net(const std::string& name) const;
  const std::string& net_name(NetId id) const;
  std::size_t net_count() const { return net_names_.size(); }

  /// Marks a net as a primary input (settable via set_input).
  void make_input(NetId n);
  bool is_input(NetId n) const;

  void add_gate(GateType type, std::vector<NetId> inputs, NetId output);
  std::size_t add_flipflop(FlipFlop ff);
  std::size_t add_latch(Latch l);

  const std::vector<Gate>& gates() const { return gates_; }
  const std::vector<FlipFlop>& flipflops() const { return flipflops_; }
  const std::vector<Latch>& latches() const { return latches_; }
  /// Mutable flip-flop access for scan stitching (DFT insertion edits
  /// the scan hookup of existing flops).
  FlipFlop& flipflop(std::size_t i) { return flipflops_.at(i); }

  // ---- simulation state ----

  /// Resets every net except primary inputs to X, and flip-flop/latch
  /// state to X (power-on). Inputs keep their values.
  void power_on();
  /// Applies asynchronous reset: flops with a reset net asserted go to 0.
  /// (Evaluates combinational logic first so reset nets are known.)
  void apply_reset();

  void set_input(NetId n, Logic v) { set_input_lanes(n, v, ~std::uint64_t{0}); }
  void set_input(NetId n, bool v) { set_input(n, from_bool(v)); }
  /// Writes `v` to the lanes set in `lanes` only.
  void set_input_lanes(NetId n, Logic v, std::uint64_t lanes);
  /// Lane 0 of the net.
  Logic value(NetId n) const { return values_.at(n).lane(0); }
  /// Every lane of the net.
  LaneWord word(NetId n) const { return values_.at(n); }

  /// Settles combinational logic (and transparent latches) to fixpoint.
  /// Called automatically by step(); exposed for "peek before clocking".
  void settle();

  /// One clock cycle: settle, capture flip-flops on the rising edge,
  /// settle again with the new state. Only flops whose domain bit is set
  /// in `domain_mask` capture (default: every domain).
  void step(std::uint32_t domain_mask = 0xffffffffu);

  /// Direct flip-flop state access (used by scan preload in tests and by
  /// the DFT layer to model preloaded chains). Reads lane 0, writes all.
  Logic ff_state(std::size_t ff_index) const { return ff_q_.at(ff_index).lane(0); }
  void set_ff_state(std::size_t ff_index, Logic v) { ff_q_.at(ff_index) = LaneWord::all(v); }
  Logic latch_state(std::size_t latch_index) const { return latch_q_.at(latch_index).lane(0); }

  /// Copies lane `lane` of every net, flop and latch to all lanes.
  void broadcast_lane(unsigned lane);

  // ---- fault support ----

  /// Forces a net to a stuck value on every lane during every evaluation
  /// (single stuck-at model), replacing any earlier fault. Clears with
  /// clear_faults().
  void set_stuck(NetId n, Logic v);
  /// Forces a net to a stuck value on the lanes set in `lanes`, keeping
  /// the faults of other lanes (one fault per lane).
  void set_stuck_lanes(NetId n, Logic v, std::uint64_t lanes);
  void clear_faults();
  bool has_fault() const { return !stuck_nets_.empty(); }

 private:
  /// A net's stuck-at lanes: `mask` selects them, `value` holds the
  /// forced value on those lanes (and nothing elsewhere).
  struct Force {
    std::uint64_t mask = 0;
    LaneWord value;
  };
  /// A gate flattened for evaluation: its inputs are
  /// gate_inputs_[first, first + count).
  struct Op {
    GateType type;
    std::uint32_t output;
    std::uint32_t first;
    std::uint32_t count;
  };

  /// `w` with the net's stuck-at lanes forced.
  LaneWord forced(NetId n, LaneWord w) const {
    const Force& f = force_[n];
    return {(w.one & ~f.mask) | f.value.one, (w.zero & ~f.mask) | f.value.zero};
  }
  /// One sweep over the gates and latches; returns the lanes that
  /// changed. kForced applies the stuck-at force masks.
  template <bool kForced>
  std::uint64_t sweep();

  std::vector<std::string> net_names_;
  std::unordered_map<std::string, NetId> net_by_name_;
  std::vector<bool> input_flag_;
  std::vector<Gate> gates_;
  std::vector<FlipFlop> flipflops_;
  std::vector<Latch> latches_;

  std::vector<Op> ops_;
  std::vector<std::uint32_t> gate_inputs_;

  std::vector<LaneWord> values_;
  std::vector<LaneWord> ff_q_;
  std::vector<LaneWord> latch_q_;
  std::vector<LaneWord> ff_next_;  // step() scratch

  std::vector<Force> force_;       // per net
  std::vector<NetId> stuck_nets_;  // nets with a non-empty force mask
};

}  // namespace lsl::digital
