// Behavioral differential channel: dominant-pole RC interconnect with
// capacitive feed-forward equalization.
//
// The line is RC-dominated (tau of several UI at 2.5 Gb/s), which is the
// regime that motivates equalization in the paper: without the FFE the
// eye collapses from inter-symbol interference; the series caps inject a
// transition kick that restores the high-frequency content. The model is
// a single-pole response toward the weak-driver DC target plus an
// instantaneous capacitive kick per transition — the same first-order
// behaviour the SPICE-level frontend exhibits, with parameters that the
// fault layer can re-characterize from a faulted netlist.
#pragma once

#include <cstdint>
#include <vector>

#include "util/prbs.hpp"
#include "util/rng.hpp"

namespace lsl::behav {

struct ChannelParams {
  double ui = 400e-12;         // unit interval (2.5 Gb/s)
  double tau = 1.5e-9;         // dominant RC time constant
  double swing = 0.078;        // differential DC swing (weak driver target +-swing/2)
  /// Transition kick as a fraction of the swing. The physical value is
  /// the series-cap divider Cs/(Cs+Cline) * Vdd referred to the swing
  /// (~1.7 for the default geometry); 1.2 gives a well-centred eye.
  double ffe_kick = 1.2;
  int oversample = 16;         // waveform samples per UI
  /// Additive Gaussian noise per recorded sample (V): thermal +
  /// supply-coupled noise at the slicer input. ~2 mV rms against the
  /// ~60 mV-class eye.
  double noise_rms = 2e-3;
  /// Fault hooks: per-arm weak-driver scaling unbalances the swing.
  double drive_scale_p = 1.0;
  double drive_scale_n = 1.0;
  double kick_scale = 1.0;     // FFE cap degradation
};

/// Streaming waveform simulation of the differential line.
class Channel {
 public:
  explicit Channel(const ChannelParams& p = {}, std::uint64_t noise_seed = 1);

  /// Feeds one bit; advances one UI of waveform.
  void push_bit(bool b);

  /// Feeds one bit like push_bit, but computes only sample `k` of the
  /// UI's waveform (0 <= k < oversample) and returns it; k < 0 reads no
  /// sample and returns value(). The noise stream advances exactly as
  /// push_bit's does (Pcg32::discard_gaussians for the samples not
  /// read), so the two calls may be mixed and yield the same values.
  /// last_ui_waveform() is left as it was.
  double push_bit_sample(bool b, int k);

  /// Differential line voltage now (end of the last pushed UI).
  double value() const { return v_; }

  /// The oversampled waveform of the last UI (index 0 = just after the
  /// bit boundary).
  const std::vector<double>& last_ui_waveform() const { return last_ui_; }

  const ChannelParams& params() const { return p_; }

 private:
  double target_for(bool b) const;
  /// Starts the UI of bit `b`: applies the FFE kick if `b` is a
  /// transition and returns the UI's RC target.
  double begin_ui(bool b);

  ChannelParams p_;
  double alpha_;  // RC update factor per sample, 1 − exp(−h/τ)
  util::Pcg32 rng_;
  double v_ = 0.0;
  bool prev_bit_ = false;
  bool has_prev_ = false;
  std::vector<double> last_ui_;
};

/// Eye-diagram analysis result for one sampling phase.
struct EyeAtPhase {
  double phase_frac = 0.0;  // sampling phase within the UI, 0..1
  double height = 0.0;      // min(ones) - max(zeros); negative = closed
  double level_one = 0.0;   // worst-case one level
  double level_zero = 0.0;  // worst-case zero level
};

struct EyeResult {
  std::vector<EyeAtPhase> phases;       // one entry per oversample step
  double best_height = 0.0;
  double best_phase_frac = 0.0;         // the eye center
  double width_frac = 0.0;              // fraction of UI with open eye
};

/// Runs `n_bits` of PRBS through a channel and measures the eye.
EyeResult analyze_eye(const ChannelParams& params, std::size_t n_bits,
                      util::PrbsOrder order = util::PrbsOrder::kPrbs7,
                      std::uint32_t seed = 1);

}  // namespace lsl::behav
