// The assembled repeaterless low-swing link (Fig 1, behavioural level):
// PRBS/user data -> capacitive-FFE transmitter + RC channel (Channel) ->
// slicer sampled by the synchronized clock -> retiming into the receiver
// clock domain. This is the engine behind the BIST (at-speed random data,
// lock detector) and the BER/eye benchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "behav/channel.hpp"
#include "behav/synchronizer.hpp"
#include "link/domain_crossing.hpp"
#include "util/prbs.hpp"
#include "util/rng.hpp"

namespace lsl::link {

struct LinkParams {
  behav::ChannelParams channel;
  behav::SyncParams sync;
  /// Extra fixed link latency (wire flight time), folded into the eye
  /// center the synchronizer must find.
  double latency = 130e-12;
  /// Receiver slicer decision offset (V); a faulted comparator shows up
  /// here.
  double slicer_offset = 0.0;
  /// Optional TX half-cycle delay latch (the paper's PD test hook).
  bool tx_half_cycle_delay = false;
  /// Initial conditions for acquisition.
  double vc0 = 0.6;
  std::size_t phase0 = 0;
  std::size_t acquisition_ui = 5000;  // the paper's 2 us lock budget
};

struct TrafficResult {
  behav::SyncResult sync;
  CrossingDecision crossing;
  std::size_t bits = 0;
  std::size_t errors = 0;
  double ber() const {
    return bits == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(bits);
  }
};

/// BIST verdict per the paper's Section III: the receiver must lock
/// within the budget, the lock-detector counter must not saturate, and
/// the CP-BIST comparator must stay quiet after lock.
struct BistVerdict {
  bool locked_in_budget = false;
  bool lock_counter_ok = false;
  bool cp_bist_ok = false;
  bool data_ok = false;  // random traffic after lock is error-free
  bool pass() const { return locked_in_budget && lock_counter_ok && cp_bist_ok && data_ok; }
};

/// PRBS bits of the eye analysis that places the synchronizer's target
/// and the traffic sampling phase.
inline constexpr std::size_t kEyeBits = 600;

/// The eyes of the channel parameter sets a series of BIST runs sees,
/// each analysed once (analyze_eye over kEyeBits). Keyed on the exact
/// bits of every ChannelParams field, so a hit is the same EyeResult a
/// fresh analysis returns. A campaign sees a few dozen sets at most, so
/// a linear search does. Not thread-safe: one memo per thread.
class EyeMemo {
 public:
  /// The eye of `channel`; the reference is valid until the next call.
  const behav::EyeResult& eye(const behav::ChannelParams& channel);

 private:
  std::vector<std::pair<std::array<std::uint64_t, 9>, behav::EyeResult>> eyes_;
};

class Link {
 public:
  explicit Link(const LinkParams& p = {});

  /// Where the data-eye center sits within the receiver clock period,
  /// combining channel group delay, fixed latency and the optional TX
  /// half-cycle latch.
  double eye_center() const;

  /// Acquires lock, then runs `n_bits` of PRBS traffic and counts errors
  /// against the transmitted sequence. `eyes` (optional) supplies the
  /// channel's eye; without it the eye is analysed afresh.
  TrafficResult run_traffic(std::size_t n_bits, util::PrbsOrder order, std::uint64_t seed,
                            EyeMemo* eyes = nullptr);

  /// At-speed BIST: random data, lock budget, lock detector, CP-BIST
  /// comparator, then a short error-checked burst.
  BistVerdict run_bist(std::uint64_t seed, EyeMemo* eyes = nullptr);

  const LinkParams& params() const { return params_; }

 private:
  double eye_center(const behav::EyeResult& eye) const;

  LinkParams params_;
};

}  // namespace lsl::link
