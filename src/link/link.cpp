#include "link/link.hpp"

#include <bit>
#include <cmath>

#include "util/trace.hpp"

namespace lsl::link {

const behav::EyeResult& EyeMemo::eye(const behav::ChannelParams& c) {
  static_assert(sizeof(behav::ChannelParams) == 9 * sizeof(double),
                "the key must hold every ChannelParams field");
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::array<std::uint64_t, 9> key = {
      bits(c.ui),           bits(c.tau),           bits(c.swing),
      bits(c.ffe_kick),     static_cast<std::uint32_t>(c.oversample),
      bits(c.noise_rms),    bits(c.drive_scale_p), bits(c.drive_scale_n),
      bits(c.kick_scale)};
  for (const auto& [k, eye] : eyes_) {
    if (k == key) return eye;
  }
  return eyes_.emplace_back(key, behav::analyze_eye(c, kEyeBits)).second;
}

Link::Link(const LinkParams& p) : params_(p) {}

double Link::eye_center() const {
  return eye_center(behav::analyze_eye(params_.channel, kEyeBits));
}

double Link::eye_center(const behav::EyeResult& eye) const {
  // Channel group delay to the eye center, from the healthy waveform
  // model's eye.
  double center = params_.latency + eye.best_phase_frac * params_.channel.ui;
  if (params_.tx_half_cycle_delay) center += 0.5 * params_.channel.ui;
  const double period = params_.sync.dll.clock_period;
  return std::fmod(std::fmod(center, period) + period, period);
}

TrafficResult Link::run_traffic(std::size_t n_bits, util::PrbsOrder order, std::uint64_t seed,
                                EyeMemo* eyes) {
  TrafficResult res;

  // --- acquisition ------------------------------------------------------
  // One eye analysis serves both the acquisition target and the traffic
  // sampling phase.
  EyeMemo fresh;
  const behav::EyeResult& eye = (eyes != nullptr ? *eyes : fresh).eye(params_.channel);
  behav::Synchronizer sync(params_.sync, eye_center(eye), params_.vc0, params_.phase0);
  util::Pcg32 rng(seed);
  res.sync = sync.run(params_.acquisition_ui, rng);
  const double period = params_.sync.dll.clock_period;
  const double sample_offset =
      sync.sampling_offset(res.sync.final_phase, res.sync.final_vc);
  res.crossing = decide_crossing(sample_offset, period);
  if (!res.sync.locked) {
    // Count traffic as failed: every bit is suspect without lock.
    res.bits = n_bits;
    res.errors = n_bits;
    return res;
  }

  // --- traffic ----------------------------------------------------------
  // Sample the waveform at the locked phase. The sampling instant within
  // the UI is (eye_center + residual phase error) in channel coordinates.
  behav::Channel ch(params_.channel, seed ^ 0x9e3779b97f4a7c15ULL);
  util::PrbsGenerator prbs(order, static_cast<std::uint32_t>(seed) | 1u);

  // Phase error of the locked loop: sample = eye_center - err.
  const double err = res.sync.final_phase_error;
  double phase_in_ui = eye.best_phase_frac - err / params_.channel.ui;
  phase_in_ui = phase_in_ui - std::floor(phase_in_ui);
  const auto sample_idx = static_cast<int>(
      std::fmod(phase_in_ui * params_.channel.oversample, params_.channel.oversample));

  // Only one waveform sample per UI is read, and none in the warm-up:
  // the channel computes that sample's noise alone and skips the rest
  // of the stream (Channel::push_bit_sample).
  const std::size_t warmup = 32;
  for (std::size_t i = 0; i < n_bits + warmup; ++i) {
    const bool b = prbs.next_bit();
    const double v = ch.push_bit_sample(b, i < warmup ? -1 : sample_idx);
    if (i < warmup) continue;
    const bool decided = v > params_.slicer_offset;
    ++res.bits;
    if (decided != b) ++res.errors;
  }
  return res;
}

BistVerdict Link::run_bist(std::uint64_t seed, EyeMemo* eyes) {
  util::TraceSpan span("link.run_bist", "link");
  BistVerdict v;
  const TrafficResult t = run_traffic(4096, util::PrbsOrder::kPrbs15, seed, eyes);
  v.locked_in_budget = t.sync.locked && t.sync.lock_time <= 2e-6;
  v.lock_counter_ok = !t.sync.lock_counter_saturated;
  v.cp_bist_ok = !t.sync.cp_bist_flag;
  v.data_ok = t.sync.locked && t.errors == 0;
  return v;
}

}  // namespace lsl::link
