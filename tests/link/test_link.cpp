#include "link/link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

namespace lsl::link {
namespace {

/// Every double of the two eyes has the same bits.
void expect_bitwise_equal(const behav::EyeResult& a, const behav::EyeResult& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.best_height), bits(b.best_height));
  EXPECT_EQ(bits(a.best_phase_frac), bits(b.best_phase_frac));
  EXPECT_EQ(bits(a.width_frac), bits(b.width_frac));
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(bits(a.phases[i].phase_frac), bits(b.phases[i].phase_frac));
    EXPECT_EQ(bits(a.phases[i].height), bits(b.phases[i].height));
    EXPECT_EQ(bits(a.phases[i].level_one), bits(b.phases[i].level_one));
    EXPECT_EQ(bits(a.phases[i].level_zero), bits(b.phases[i].level_zero));
  }
}

TEST(Link, EyeMemoHitEqualsAFreshAnalysis) {
  EyeMemo memo;
  behav::ChannelParams a;
  behav::ChannelParams b = a;
  b.drive_scale_p = 0.5;  // one field apart: its own entry
  const behav::EyeResult first = memo.eye(a);
  expect_bitwise_equal(memo.eye(b), behav::analyze_eye(b, kEyeBits));
  const behav::EyeResult* hit = &memo.eye(a);
  EXPECT_EQ(&memo.eye(a), hit);  // no new analysis between the two calls
  expect_bitwise_equal(*hit, first);
  expect_bitwise_equal(*hit, behav::analyze_eye(a, kEyeBits));
  EXPECT_NE(std::bit_cast<std::uint64_t>(memo.eye(b).best_height),
            std::bit_cast<std::uint64_t>(first.best_height));
}

TEST(Link, EyeMemoLeavesBistVerdictUnchanged) {
  LinkParams p;
  p.phase0 = 5;
  EyeMemo memo;
  for (const double scale : {1.0, 0.3, 1.0}) {  // the third run hits
    p.channel.drive_scale_n = scale;
    const BistVerdict fresh = Link(p).run_bist(7);
    const BistVerdict memoized = Link(p).run_bist(7, &memo);
    EXPECT_EQ(memoized.locked_in_budget, fresh.locked_in_budget);
    EXPECT_EQ(memoized.lock_counter_ok, fresh.lock_counter_ok);
    EXPECT_EQ(memoized.cp_bist_ok, fresh.cp_bist_ok);
    EXPECT_EQ(memoized.data_ok, fresh.data_ok);
  }
}

TEST(Link, HealthyLinkRunsErrorFree) {
  Link link;
  const TrafficResult r = link.run_traffic(2000, util::PrbsOrder::kPrbs7, 42);
  ASSERT_TRUE(r.sync.locked);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.bits, 2000u);
}

TEST(Link, HealthyBistPasses) {
  Link link;
  const BistVerdict v = link.run_bist(7);
  EXPECT_TRUE(v.locked_in_budget);
  EXPECT_TRUE(v.lock_counter_ok);
  EXPECT_TRUE(v.cp_bist_ok);
  EXPECT_TRUE(v.data_ok);
  EXPECT_TRUE(v.pass());
}

TEST(Link, BistFailsWithoutEqualization) {
  LinkParams p;
  p.channel.ffe_kick = 0.0;  // dead FFE caps: the eye closes
  Link link(p);
  const BistVerdict v = link.run_bist(7);
  EXPECT_FALSE(v.data_ok);
  EXPECT_FALSE(v.pass());
}

TEST(Link, BistFailsWithDeadPd) {
  LinkParams p;
  p.sync.faults.pd_dead = true;
  // Preload a far-off coarse phase (the BIST can scan-load the ring
  // counter): with the PD dead, acquisition is impossible. From a lucky
  // initial phase the fault would escape — which is why the DFT
  // procedure forces the preload.
  p.phase0 = 5;
  Link link(p);
  const BistVerdict v = link.run_bist(7);
  EXPECT_FALSE(v.pass());
}

TEST(Link, BistFlagsBrokenChargeBalance) {
  LinkParams p;
  p.sync.pump.balance_broken = true;
  p.sync.pump.vp_drift = 1e6;
  Link link(p);
  const BistVerdict v = link.run_bist(7);
  EXPECT_FALSE(v.cp_bist_ok);
  EXPECT_FALSE(v.pass());
}

TEST(Link, SlicerOffsetFaultCausesErrors) {
  LinkParams p;
  p.slicer_offset = 0.15;  // way beyond the eye amplitude
  Link link(p);
  const TrafficResult r = link.run_traffic(500, util::PrbsOrder::kPrbs7, 11);
  EXPECT_GT(r.errors, 0u);
}

TEST(Link, HalfCycleLatchShiftsEyeCenter) {
  LinkParams base;
  LinkParams delayed = base;
  delayed.tx_half_cycle_delay = true;
  Link a(base);
  Link b(delayed);
  const double period = base.sync.dll.clock_period;
  double diff = b.eye_center() - a.eye_center();
  diff = std::fmod(std::fmod(diff, period) + period, period);
  EXPECT_NEAR(diff, 0.5 * base.channel.ui, 1e-12);
}

TEST(Link, LocksFromEveryInitialPhase) {
  for (std::size_t k = 0; k < 10; ++k) {
    LinkParams p;
    p.phase0 = k;
    Link link(p);
    const TrafficResult r = link.run_traffic(200, util::PrbsOrder::kPrbs7, 100 + k);
    EXPECT_TRUE(r.sync.locked) << "phase0=" << k;
    EXPECT_EQ(r.errors, 0u) << "phase0=" << k;
  }
}

TEST(Link, UnlockedTrafficCountsAllBitsAsErrors) {
  LinkParams p;
  p.sync.faults.switch_matrix_dead = true;
  Link link(p);
  const TrafficResult r = link.run_traffic(100, util::PrbsOrder::kPrbs7, 3);
  EXPECT_FALSE(r.sync.locked);
  EXPECT_EQ(r.errors, 100u);
}

}  // namespace
}  // namespace lsl::link
