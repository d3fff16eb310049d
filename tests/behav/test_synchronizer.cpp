#include "behav/synchronizer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace lsl::behav {
namespace {

constexpr std::size_t kMaxUi = 8000;  // > the paper's 5000-cycle budget

SyncParams default_params() { return SyncParams{}; }

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Synchronizer, SamplingOffsetMatchesFmod) {
  // The fast paths of sampling_offset must return exactly std::fmod's
  // result: offsets below 0 (a negative extra delay), in [0, P), in
  // [P, 2P), beyond 2P (large Vc), a clamped Vc < 0 and a NaN Vc.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double extra : {0.0, 230e-12, -600e-12}) {
    SyncParams p = default_params();
    p.vcdl.extra_delay = extra;
    const Synchronizer sync(p, 100e-12, 0.6);
    const Dll dll(p.dll);
    const Vcdl vcdl(p.vcdl);
    for (std::size_t k = 0; k < dll.n_phases(); ++k) {
      for (double vc = -0.5; vc <= 12.0; vc += 0.0173) {
        const double t = dll.phase_offset(k) + vcdl.delay(vc);
        ASSERT_EQ(bits(sync.sampling_offset(k, vc)), bits(std::fmod(t, dll.clock_period())))
            << "k=" << k << " vc=" << vc << " extra=" << extra;
      }
      const double t_nan = dll.phase_offset(k) + vcdl.delay(nan);
      EXPECT_EQ(bits(sync.sampling_offset(k, nan)), bits(std::fmod(t_nan, dll.clock_period())));
    }
  }
}

TEST(Synchronizer, LocksFromBenignStart) {
  SyncParams p = default_params();
  Synchronizer sync(p, /*eye_center=*/100e-12, /*vc0=*/0.6, /*phase0=*/0);
  util::Pcg32 rng(1);
  const SyncResult r = sync.run(kMaxUi, rng);
  EXPECT_TRUE(r.locked);
  EXPECT_LT(std::fabs(r.final_phase_error), 0.8 * Dll{p.dll}.phase_step());
}

TEST(Synchronizer, LocksWithinPaperBudgetFromAllPhases) {
  // The paper's BIST expectation: lock within 2 us (5000 UI at 2.5 Gb/s)
  // from any initial condition, with at most n_phases/2 coarse steps'
  // worth of corrections recorded by the lock detector.
  SyncParams p = default_params();
  for (std::size_t k0 = 0; k0 < 10; ++k0) {
    Synchronizer sync(p, 180e-12, 0.6, k0);
    util::Pcg32 rng(100 + k0);
    const SyncResult r = sync.run(5000, rng);
    EXPECT_TRUE(r.locked) << "phase0=" << k0;
    EXPECT_LE(r.lock_time, 2e-6) << "phase0=" << k0;
    EXPECT_FALSE(r.lock_counter_saturated) << "phase0=" << k0;
  }
}

TEST(Synchronizer, TraceShowsSawtoothAndPhaseSteps) {
  // Fig 2: Vc ramps between the window thresholds; each crossing causes
  // a coarse phase step.
  SyncParams p = default_params();
  Synchronizer sync(p, 399e-12, 0.6, 5);  // far-away eye forces coarse steps
  util::Pcg32 rng(7);
  const SyncResult r = sync.run(kMaxUi, rng, /*record_trace=*/true);
  EXPECT_TRUE(r.locked);
  EXPECT_GE(r.coarse_corrections, 1);
  ASSERT_FALSE(r.trace.empty());
  int events = 0;
  for (const auto& pt : r.trace) {
    EXPECT_GE(pt.vc, 0.0);
    EXPECT_LE(pt.vc, 1.2);
    if (pt.coarse_event) ++events;
  }
  EXPECT_EQ(events, r.coarse_corrections);
}

TEST(Synchronizer, NoCoarseStepWhenEyeReachableByFineLoop) {
  SyncParams p = default_params();
  // Start with sampling ~ eye center: phase 0 at vc=0.6 samples at
  // 20 + 90 = 110 ps.
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(3);
  const SyncResult r = sync.run(kMaxUi, rng);
  EXPECT_TRUE(r.locked);
  EXPECT_EQ(r.coarse_corrections, 0);
  EXPECT_EQ(r.lock_counter, 0);
}

TEST(Synchronizer, PdStuckUpSaturatesLockDetector) {
  SyncParams p = default_params();
  p.faults.pd_up_stuck = true;
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(5);
  const SyncResult r = sync.run(kMaxUi, rng);
  EXPECT_FALSE(r.locked);
  EXPECT_TRUE(r.lock_counter_saturated);
}

TEST(Synchronizer, WindowDeadPinsVcAtRail) {
  SyncParams p = default_params();
  p.faults.window_dead = true;
  Synchronizer sync(p, 399e-12, 0.6, 5);  // needs coarse steps it can't make
  util::Pcg32 rng(11);
  const SyncResult r = sync.run(kMaxUi, rng);
  EXPECT_FALSE(r.locked);
  EXPECT_EQ(r.coarse_corrections, 0);
  EXPECT_TRUE(r.final_vc <= 0.01 || r.final_vc >= 1.19);
}

TEST(Synchronizer, CounterStuckCycles) {
  SyncParams p = default_params();
  p.faults.counter_stuck = true;
  Synchronizer sync(p, 399e-12, 0.6, 5);
  util::Pcg32 rng(13);
  const SyncResult r = sync.run(kMaxUi, rng);
  EXPECT_FALSE(r.locked);
  EXPECT_TRUE(r.lock_counter_saturated);
}

TEST(Synchronizer, BrokenBalanceTripsCpBist) {
  SyncParams p = default_params();
  p.pump.balance_broken = true;
  p.pump.vp_drift = 0.5e6;
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(17);
  const SyncResult r = sync.run(kMaxUi, rng);
  // Vp rails: the CP-BIST window flags it, and the charge-sharing
  // glitches it induces may even cost the lock — detected either way.
  EXPECT_TRUE(r.cp_bist_flag);
  if (r.locked) {
    EXPECT_GT(r.jitter_rms, 2e-12);  // visibly degraded clock
  }
}

TEST(Synchronizer, SwitchMatrixDeadFreezes) {
  SyncParams p = default_params();
  p.faults.switch_matrix_dead = true;
  Synchronizer sync(p, 200e-12, 0.6, 0);
  util::Pcg32 rng(19);
  const SyncResult r = sync.run(kMaxUi, rng);
  EXPECT_FALSE(r.locked);
  EXPECT_EQ(r.coarse_corrections, 0);
  EXPECT_DOUBLE_EQ(r.final_vc, 0.6);
}

TEST(Synchronizer, WeakPumpCurrentLossSlowsLock) {
  SyncParams healthy = default_params();
  SyncParams weak = default_params();
  weak.pump.i_up *= 0.25;
  weak.pump.i_dn *= 0.25;
  // A start that needs a long fine ramp.
  Synchronizer s1(healthy, 399e-12, 0.6, 5);
  Synchronizer s2(weak, 399e-12, 0.6, 5);
  util::Pcg32 r1(23);
  util::Pcg32 r2(23);
  const SyncResult a = s1.run(20000, r1);
  const SyncResult b = s2.run(20000, r2);
  ASSERT_TRUE(a.locked);
  if (b.locked) {
    EXPECT_GT(b.lock_time, a.lock_time);
  }
}

TEST(Synchronizer, BackgroundLoopTracksDrift) {
  // The paper's motivation (its ref [8]): the background coarse+fine
  // loop follows environmental drift during normal operation. 40 ps of
  // eye drift per microsecond over 40 us sweeps the eye by 4 DLL phase
  // steps; the tracking receiver must stay inside the eye throughout.
  SyncParams p = default_params();
  p.eye_drift_rate = 40e-12 / 1e-6;
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(41);
  const SyncResult r = sync.run(100000, rng);  // 40 us
  EXPECT_TRUE(r.locked);
  EXPECT_GE(r.coarse_corrections, 2);  // it really did hand off phases
  EXPECT_EQ(r.ui_outside_eye_after_lock, 0u);
  EXPECT_LT(r.max_err_after_lock, 100e-12);
}

TEST(Synchronizer, FrozenForegroundCalibrationLosesTheEye) {
  // One-shot (foreground) calibration under the same drift: the frozen
  // receiver walks out of the eye.
  SyncParams p = default_params();
  p.eye_drift_rate = 40e-12 / 1e-6;
  p.freeze_after_lock = true;
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(41);
  const SyncResult r = sync.run(100000, rng);
  EXPECT_GT(r.ui_outside_eye_after_lock, 1000u);
  EXPECT_GT(r.max_err_after_lock, 150e-12);
}

TEST(Synchronizer, JitterStatsPopulatedAfterLock) {
  SyncParams p = default_params();
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(47);
  const SyncResult r = sync.run(20000, rng);
  ASSERT_TRUE(r.locked);
  EXPECT_GT(r.jitter_rms, 0.0);
  EXPECT_LT(r.jitter_rms, 20e-12);  // healthy loop: ps-class dither
  EXPECT_GE(r.jitter_pp, r.jitter_rms);
}

TEST(Synchronizer, BalanceOffsetRaisesJitter) {
  // The paper: a drifted balance node pushes a current source into its
  // linear region and "causes increased jitter in the recovered clock".
  SyncParams healthy = default_params();
  SyncParams sick = default_params();
  sick.pump.vp_offset = 0.4;
  Synchronizer s1(healthy, 110e-12, 0.6, 0);
  Synchronizer s2(sick, 110e-12, 0.6, 0);
  util::Pcg32 r1(53);
  util::Pcg32 r2(53);
  const SyncResult a = s1.run(40000, r1);
  const SyncResult b = s2.run(40000, r2);
  ASSERT_TRUE(a.locked);
  ASSERT_TRUE(b.locked);
  EXPECT_GT(b.jitter_rms, 1.5 * a.jitter_rms);
  EXPECT_TRUE(b.cp_bist_flag);  // and the Fig-9 window catches it
}

TEST(Synchronizer, NoDriftNoCoarseHandoffAfterLock) {
  SyncParams p = default_params();
  Synchronizer sync(p, 110e-12, 0.6, 0);
  util::Pcg32 rng(43);
  const SyncResult r = sync.run(50000, rng);
  EXPECT_TRUE(r.locked);
  EXPECT_EQ(r.coarse_corrections, 0);
  EXPECT_EQ(r.ui_outside_eye_after_lock, 0u);
}

class SyncEyeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SyncEyeSweep, LocksForEyeCentersAcrossThePeriod) {
  // Property: the synchronizer acquires for any eye-center position.
  const double frac = GetParam() / 16.0;
  SyncParams p = default_params();
  Synchronizer sync(p, frac * p.dll.clock_period, 0.6, 3);
  util::Pcg32 rng(31 + GetParam());
  const SyncResult r = sync.run(10000, rng);
  EXPECT_TRUE(r.locked) << "eye frac " << frac;
  EXPECT_LT(std::fabs(r.final_phase_error), 0.8 * Dll{p.dll}.phase_step());
}

INSTANTIATE_TEST_SUITE_P(EyeCenters, SyncEyeSweep, ::testing::Range(0, 16));

}  // namespace
}  // namespace lsl::behav
