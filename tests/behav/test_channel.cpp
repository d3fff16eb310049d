#include "behav/channel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/prbs.hpp"

namespace lsl::behav {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Channel, SampledPushMatchesFullWaveform) {
  // For every sample index, a channel that computes only that sample
  // (after a warm-up that reads none) returns exactly the twin channel's
  // full-waveform sample, and both lines end at the same voltage.
  ChannelParams p;
  p.drive_scale_p = 0.9;  // an unbalanced swing exercises the target
  for (int k = 0; k < p.oversample; ++k) {
    Channel full(p, 42);
    Channel sampled(p, 42);
    util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15, 3);
    for (int i = 0; i < 1000; ++i) {
      const bool b = prbs.next_bit();
      full.push_bit(b);
      const double v = sampled.push_bit_sample(b, i < 32 ? -1 : k);
      if (i < 32) {
        ASSERT_EQ(bits(v), bits(sampled.value())) << "k=" << k << " bit " << i;
      } else {
        ASSERT_EQ(bits(v), bits(full.last_ui_waveform()[static_cast<std::size_t>(k)]))
            << "k=" << k << " bit " << i;
      }
      ASSERT_EQ(bits(full.value()), bits(sampled.value())) << "k=" << k << " bit " << i;
    }
  }
  Channel ch(p);
  EXPECT_THROW(ch.push_bit_sample(true, p.oversample), std::out_of_range);
}

TEST(Channel, ReachesTargetOnLongRuns) {
  ChannelParams p;
  Channel ch(p);
  for (int i = 0; i < 64; ++i) ch.push_bit(true);
  EXPECT_NEAR(ch.value(), p.swing, 1e-3);
  for (int i = 0; i < 64; ++i) ch.push_bit(false);
  EXPECT_NEAR(ch.value(), -p.swing, 1e-3);
}

TEST(Channel, RcDominatedWithoutFfeShowsIsi) {
  // tau ~ 3.75 UI: after a single opposite bit the line cannot reach the
  // new level.
  ChannelParams p;
  p.ffe_kick = 0.0;
  Channel ch(p);
  for (int i = 0; i < 64; ++i) ch.push_bit(false);
  ch.push_bit(true);  // single 1 after a long run of 0s
  EXPECT_LT(ch.value(), 0.0);  // has not even crossed zero
}

TEST(Channel, FfeKickRestoresTransition) {
  ChannelParams p;  // default kick
  Channel ch(p);
  for (int i = 0; i < 64; ++i) ch.push_bit(false);
  ch.push_bit(true);
  EXPECT_GT(ch.value(), 0.0);  // the capacitive kick crosses the slicer
}

TEST(Channel, WaveformLengthMatchesOversample) {
  ChannelParams p;
  p.oversample = 8;
  Channel ch(p);
  ch.push_bit(true);
  EXPECT_EQ(ch.last_ui_waveform().size(), 8u);
}

TEST(Channel, DriveScaleReducesSwing) {
  ChannelParams weak;
  weak.drive_scale_p = 0.5;
  weak.drive_scale_n = 0.5;
  Channel ch(weak);
  for (int i = 0; i < 64; ++i) ch.push_bit(true);
  EXPECT_NEAR(ch.value(), weak.swing * 0.5, 1e-3);
}

TEST(Eye, OpenWithFfeClosedWithout) {
  ChannelParams with_ffe;
  EyeResult open = analyze_eye(with_ffe, 2000);
  EXPECT_GT(open.best_height, 0.01);
  EXPECT_GT(open.width_frac, 0.3);

  ChannelParams no_ffe = with_ffe;
  no_ffe.ffe_kick = 0.0;
  EyeResult closed = analyze_eye(no_ffe, 2000);
  EXPECT_LT(closed.best_height, open.best_height * 0.5);
}

TEST(Eye, NoiseShrinksEye) {
  ChannelParams clean;
  ChannelParams noisy = clean;
  noisy.noise_rms = 0.01;
  const EyeResult e_clean = analyze_eye(clean, 2000);
  const EyeResult e_noisy = analyze_eye(noisy, 2000);
  EXPECT_LT(e_noisy.best_height, e_clean.best_height);
}

TEST(Eye, PhaseGridCoversUi) {
  ChannelParams p;
  p.oversample = 12;
  const EyeResult e = analyze_eye(p, 500);
  ASSERT_EQ(e.phases.size(), 12u);
  EXPECT_DOUBLE_EQ(e.phases.front().phase_frac, 0.0);
  EXPECT_NEAR(e.phases.back().phase_frac, 11.0 / 12.0, 1e-12);
}

class EyeKickSweep : public ::testing::TestWithParam<double> {};

TEST_P(EyeKickSweep, StrongerKickNeverHurtsThisChannel) {
  // Property over the FFE strength: in this heavily RC-limited channel,
  // kicks up to the optimum monotonically improve the eye.
  ChannelParams base;
  base.ffe_kick = GetParam();
  ChannelParams weaker = base;
  weaker.ffe_kick = GetParam() * 0.5;
  const EyeResult strong = analyze_eye(base, 1500);
  const EyeResult weak = analyze_eye(weaker, 1500);
  EXPECT_GE(strong.best_height, weak.best_height - 1e-6) << "kick=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kicks, EyeKickSweep, ::testing::Values(0.4, 0.7, 1.0, 1.2));

}  // namespace
}  // namespace lsl::behav
