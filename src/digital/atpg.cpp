#include "digital/atpg.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "digital/input_history.hpp"
#include "util/metrics.hpp"

namespace lsl::digital {

namespace {

/// Applies a pattern and snapshots every net value after the final
/// capture settle, along with the observable response.
struct Application {
  std::vector<Logic> nets;
  std::vector<Logic> response;
};

Application apply_and_snapshot(Circuit& c, const std::vector<const ScanChain*>& chains,
                               const MultiScanPattern& p,
                               const std::vector<NetId>& observe_nets) {
  Application out;
  c.power_on();
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i]->load_flop_order(c, p.chain_loads.at(i));
  }
  for (const auto& [net, v] : p.pi_values) c.set_input(net, v);
  for (int k = 0; k < p.capture_cycles; ++k) {
    chains.front()->capture(c);
    for (const NetId n : observe_nets) out.response.push_back(c.value(n));
  }
  // Snapshot BEFORE the destructive chain read-out: this is where the
  // error spread (the hill-climbing gradient) lives.
  out.nets.reserve(c.net_count());
  for (NetId n = 0; n < c.net_count(); ++n) out.nets.push_back(c.value(n));
  for (const auto* chain : chains) {
    const auto r = chain->read_flop_order(c);
    out.response.insert(out.response.end(), r.begin(), r.end());
  }
  return out;
}

bool known_differs(Logic a, Logic b) { return is_known(a) && is_known(b) && a != b; }

/// Fault dropping of a serial atpg_score loop, 64 faulty machines per
/// application, and the primary inputs that loop leaves.
///
/// The serial loop checks fault f against patterns 0.. in turn, each
/// check a fault-free run of the pattern and then a faulty one, until
/// one detects f. Every pattern writes the same inputs (the chains'
/// scan-in and scan-enable, and the PIs), so the faulty run of f against
/// pattern j starts from pattern j's writes plus the inputs no pattern
/// writes; those change only by the stuck value of an earlier input
/// fault, whatever pattern each earlier fault stopped at. The faulty
/// runs of the next 64 faults against a pattern therefore go in one
/// application. A fault-free run depends on its pattern and its lane-0
/// start inputs only; it runs once per distinct pair.
class FaultDropper {
 public:
  FaultDropper(Circuit& c, const std::vector<const ScanChain*>& chains,
               const std::vector<StuckFault>& faults, const std::vector<NetId>& observe_nets)
      : c_(c), chains_(chains), faults_(faults), observe_(observe_nets), history_(c) {
    take_circuit();
  }

  /// Whether one of `patterns` detects faults[fi], checked in order as
  /// the serial loop checks them; the inputs then stand as that loop
  /// leaves them.
  bool detects(std::size_t fi, const std::vector<MultiScanPattern>& patterns) {
    const std::size_t m = patterns.size();
    if (m == 0) return false;
    c_.clear_faults();
    while (history_.leaves.size() < m) {
      history_.record(c_, chains_, patterns[history_.leaves.size()], observe_);
      ++applications_;
    }
    blocks_.resize(m);
    const StuckFault& f = faults_[fi];
    for (std::size_t j = 0; j < m; ++j) {
      // The inputs at the serial loop's call of pattern j.
      SerialInputs at = j == 0 ? state_ : advanced(state_, j - 1, f);
      const std::vector<Logic>& good = good_response(j, at.now, patterns[j]);
      const Block& b = block(j, fi, patterns[j]);
      if (has_lane(classify(good, b.response).hard, fi - b.first)) {
        last_ = Call{j, fi, std::move(at)};
        state_ = advanced(state_, j, f);
        return true;
      }
    }
    last_.reset();
    state_ = advanced(state_, m - 1, f);
    return false;
  }

  /// Writes the serial loop's inputs to every lane of the Circuit, for
  /// serial runs that go on from there.
  void put_circuit() const { put_inputs(state_); }

  /// Takes the Circuit's inputs as the serial loop's, after serial runs.
  void take_circuit() {
    base_.clear();
    state_.now.clear();
    for (const NetId n : history_.inputs) {
      base_.push_back(c_.word(n));
      state_.now.push_back(c_.value(n));
    }
    state_.touched.assign(history_.inputs.size(), false);
    last_.reset();
  }

  /// Leaves the Circuit as the serial loop leaves it: when a dropping
  /// check made its last call, that call again.
  void finish(const std::vector<MultiScanPattern>& patterns) {
    if (!last_.has_value()) return;
    put_inputs(last_->before);
    bool detected = false;
    atpg_score(c_, chains_, patterns[last_->pattern], faults_[last_->fault], observe_, detected);
  }

  /// Pattern applications made: faulty lanes, fault-free runs and
  /// history records.
  std::size_t applications() const { return applications_; }

 private:
  /// Primary inputs in the serial loop: `now` on lane 0, and on every
  /// lane `base_`, except the inputs a run wrote or forced since, which
  /// hold `now` on every lane.
  struct SerialInputs {
    std::vector<Logic> now;
    std::vector<bool> touched;
  };
  /// Faulty responses to one pattern of faults[first, first + 64) on
  /// lanes 0.. .
  struct Block {
    std::size_t first = 0;
    std::size_t lanes = 0;
    std::vector<LaneWord> response;
  };
  /// A dropping check: pattern, fault and the inputs it started from.
  struct Call {
    std::size_t pattern;
    std::size_t fault;
    SerialInputs before;
  };

  SerialInputs advanced(SerialInputs s, std::size_t k, const StuckFault& f) const {
    s.now = leave(history_, std::move(s.now), k, f);
    for (std::size_t i = 0; i < s.touched.size(); ++i) {
      if (history_.leaves[k][i].has_value() || history_.inputs[i] == f.net) s.touched[i] = true;
    }
    return s;
  }

  void put_inputs(const SerialInputs& s) const {
    for (std::size_t i = 0; i < history_.inputs.size(); ++i) {
      const LaneWord w = s.touched[i] ? LaneWord::all(s.now[i]) : base_[i];
      const NetId n = history_.inputs[i];
      c_.set_input_lanes(n, Logic::k1, w.one);
      c_.set_input_lanes(n, Logic::k0, w.zero);
      c_.set_input_lanes(n, Logic::kX, ~(w.one | w.zero));
    }
  }

  const std::vector<Logic>& good_response(std::size_t j, const std::vector<Logic>& start,
                                          const MultiScanPattern& p) {
    auto [it, fresh] = good_.try_emplace({j, start});
    if (fresh) {
      c_.clear_faults();
      for (std::size_t i = 0; i < start.size(); ++i) c_.set_input(history_.inputs[i], start[i]);
      c_.power_on();
      it->second = apply_pattern_multi(c_, chains_, p, observe_);
      ++applications_;
    }
    return it->second;
  }

  /// Pattern j's faulty responses of a block holding faults[fi]; a new
  /// block starts at fi, from the inputs each fault will start from.
  const Block& block(std::size_t j, std::size_t fi, const MultiScanPattern& p) {
    Block& b = blocks_[j];
    if (fi >= b.first && fi < b.first + b.lanes) return b;
    b.first = fi;
    b.lanes = std::min<std::size_t>(kLanes, faults_.size() - fi);
    starts_.clear();
    std::vector<Logic> start = state_.now;
    for (std::size_t l = 0; l < b.lanes; ++l) {
      start = leave(history_, std::move(start), j, faults_[fi + l]);
      starts_.push_back(start);
    }
    load_lanes(c_, history_, faults_, fi, starts_);
    c_.power_on();
    b.response = apply_pattern_lanes(c_, chains_, p, observe_);
    ++applications_;
    return b;
  }

  Circuit& c_;
  const std::vector<const ScanChain*>& chains_;
  const std::vector<StuckFault>& faults_;
  const std::vector<NetId>& observe_;
  InputHistory history_;
  std::vector<LaneWord> base_;
  SerialInputs state_;
  std::optional<Call> last_;
  std::vector<Block> blocks_;  // per pattern
  std::map<std::pair<std::size_t, std::vector<Logic>>, std::vector<Logic>> good_;
  std::vector<std::vector<Logic>> starts_;  // block() scratch
  std::size_t applications_ = 0;
};

}  // namespace

std::size_t atpg_score(Circuit& c, const std::vector<const ScanChain*>& chains,
                       const MultiScanPattern& p, const StuckFault& fault,
                       const std::vector<NetId>& observe_nets, bool& detected) {
  c.clear_faults();
  const Application good = apply_and_snapshot(c, chains, p, observe_nets);
  c.set_stuck(fault.net, fault.value);
  const Application bad = apply_and_snapshot(c, chains, p, observe_nets);
  c.clear_faults();

  std::size_t spread = 0;
  for (std::size_t n = 0; n < good.nets.size(); ++n) {
    if (known_differs(good.nets[n], bad.nets[n])) ++spread;
  }
  detected = false;
  for (std::size_t i = 0; i < good.response.size(); ++i) {
    if (known_differs(good.response[i], bad.response[i])) {
      detected = true;
      break;
    }
  }
  // Detection dominates any spread improvement.
  return spread + (detected ? 1000000 : 0);
}

AtpgResult generate_tests(Circuit& c, const std::vector<const ScanChain*>& chains,
                          const std::vector<StuckFault>& faults,
                          const std::vector<NetId>& pi_inputs,
                          const std::vector<NetId>& observe_nets, const AtpgOptions& opts) {
  static util::Counter& drop_applications =
      util::metrics().counter("digital.atpg.drop_applications");
  const SweepTally tally(c);
  AtpgResult result;
  util::Pcg32 rng(opts.seed);
  FaultDropper dropper(c, chains, faults, observe_nets);

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

  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const StuckFault& f = faults[fi];
    if (dropper.detects(fi, result.patterns)) {
      result.coverage.add(true);
      continue;
    }
    // Hill climbing stays serial, on the inputs the serial loop leaves.
    dropper.put_circuit();

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
    dropper.take_circuit();
  }
  dropper.finish(result.patterns);
  drop_applications.add(static_cast<std::int64_t>(dropper.applications()));
  return result;
}

}  // namespace lsl::digital
