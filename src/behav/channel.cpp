#include "behav/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lsl::behav {

Channel::Channel(const ChannelParams& p, std::uint64_t noise_seed)
    : p_(p),
      alpha_(1.0 - std::exp(-(p.ui / p.oversample) / p.tau)),
      rng_(noise_seed),
      last_ui_(static_cast<std::size_t>(p.oversample), 0.0) {}

double Channel::target_for(bool b) const {
  // Each arm contributes half the differential swing; scaling one arm
  // (weak-driver fault) shrinks the total target symmetrically in this
  // differential view.
  const double amplitude = p_.swing * 0.5 * (p_.drive_scale_p + p_.drive_scale_n);
  return b ? amplitude : -amplitude;
}

double Channel::begin_ui(bool b) {
  // Capacitive FFE: instantaneous kick on a transition.
  if (has_prev_ && b != prev_bit_) {
    const double dir = b ? 1.0 : -1.0;
    v_ += dir * p_.ffe_kick * p_.kick_scale * p_.swing;
  }
  prev_bit_ = b;
  has_prev_ = true;
  return target_for(b);
}

void Channel::push_bit(bool b) {
  const double target = begin_ui(b);
  for (int k = 0; k < p_.oversample; ++k) {
    v_ += (target - v_) * alpha_;
    double sample = v_;
    if (p_.noise_rms > 0.0) sample += p_.noise_rms * rng_.next_gaussian();
    last_ui_[static_cast<std::size_t>(k)] = sample;
  }
}

double Channel::push_bit_sample(bool b, int k) {
  if (k >= p_.oversample) {
    throw std::out_of_range("Channel::push_bit_sample: sample " + std::to_string(k) +
                            " of a " + std::to_string(p_.oversample) + "-sample UI");
  }
  const double target = begin_ui(b);
  double sample = 0.0;
  for (int j = 0; j < p_.oversample; ++j) {
    v_ += (target - v_) * alpha_;
    if (j == k) sample = v_;
  }
  if (k < 0) {
    if (p_.noise_rms > 0.0) rng_.discard_gaussians(static_cast<std::size_t>(p_.oversample));
    return v_;
  }
  if (p_.noise_rms > 0.0) {
    rng_.discard_gaussians(static_cast<std::size_t>(k));
    sample += p_.noise_rms * rng_.next_gaussian();
    rng_.discard_gaussians(static_cast<std::size_t>(p_.oversample - 1 - k));
  }
  return sample;
}

EyeResult analyze_eye(const ChannelParams& params, std::size_t n_bits, util::PrbsOrder order,
                      std::uint32_t seed) {
  Channel ch(params, seed);
  util::PrbsGenerator prbs(order, seed);

  const auto os = static_cast<std::size_t>(params.oversample);
  std::vector<double> min_one(os, 1e9);
  std::vector<double> max_zero(os, -1e9);

  const std::size_t warmup = std::min<std::size_t>(32, n_bits / 4);
  for (std::size_t i = 0; i < n_bits; ++i) {
    const bool b = prbs.next_bit();
    ch.push_bit(b);
    if (i < warmup) continue;
    const auto& wave = ch.last_ui_waveform();
    for (std::size_t k = 0; k < os; ++k) {
      if (b) {
        min_one[k] = std::min(min_one[k], wave[k]);
      } else {
        max_zero[k] = std::max(max_zero[k], wave[k]);
      }
    }
  }

  EyeResult r;
  r.phases.resize(os);
  std::size_t open_count = 0;
  for (std::size_t k = 0; k < os; ++k) {
    EyeAtPhase& e = r.phases[k];
    e.phase_frac = static_cast<double>(k) / static_cast<double>(os);
    e.level_one = min_one[k];
    e.level_zero = max_zero[k];
    e.height = min_one[k] - max_zero[k];
    if (e.height > 0.0) ++open_count;
    if (e.height > r.best_height) {
      r.best_height = e.height;
      r.best_phase_frac = e.phase_frac;
    }
  }
  r.width_frac = static_cast<double>(open_count) / static_cast<double>(os);
  return r;
}

}  // namespace lsl::behav
