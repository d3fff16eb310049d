#include "spice/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "spice/workspace.hpp"
#include "util/metrics.hpp"

namespace lsl::spice {
namespace {

TEST(Waveforms, DcWave) {
  const Waveform w = dc_wave(0.7);
  EXPECT_DOUBLE_EQ(w(0.0), 0.7);
  EXPECT_DOUBLE_EQ(w(1e-3), 0.7);
}

TEST(Waveforms, SquareWave) {
  const Waveform w = square_wave(0.0, 1.2, 10e-9, 1e-9);
  EXPECT_DOUBLE_EQ(w(0.0), 0.0);       // before delay
  EXPECT_DOUBLE_EQ(w(2e-9), 1.2);      // first high phase
  EXPECT_DOUBLE_EQ(w(7e-9), 0.0);      // low phase
  EXPECT_DOUBLE_EQ(w(12e-9), 1.2);     // next period
}

TEST(Waveforms, PwlInterpolatesAndClamps) {
  const Waveform w = pwl_wave({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(w(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w(2.0), 2.0);
  EXPECT_DOUBLE_EQ(w(9.0), 2.0);
}

TEST(Waveforms, PwlDuplicateTimestampsAreAVerticalEdge) {
  // Regression: a repeated timestamp used to divide by zero and poison
  // the waveform with NaN. It must instead snap to the later point.
  const Waveform w = pwl_wave({{0.0, 0.0}, {1.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(w(0.5), 0.0);
  EXPECT_DOUBLE_EQ(w(1.5), 2.0);
  EXPECT_DOUBLE_EQ(w(3.0), 2.0);
  for (double t = -0.5; t <= 3.5; t += 0.01) {
    ASSERT_TRUE(std::isfinite(w(t))) << "t = " << t;
  }
}

/// vin -> R = 1k -> out -> C = 1nF -> ground.
Netlist rc_lowpass() {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("vin", VSource{in, kGround, 0.0});
  nl.add("r1", Resistor{in, out, 1e3});
  nl.add("c1", Capacitor{out, kGround, 1e-9});
  return nl;
}

TEST(Transient, RcChargingMatchesAnalytic) {
  // Step 0 -> 1V at t=0+: v(t) = 1 - exp(-t/RC).
  const Netlist nl = rc_lowpass();

  TransientOptions opts;
  opts.t_stop = 5e-6;
  opts.dt = 5e-9;
  opts.probes = {"out"};
  // Drive: starts at 1V from the first step (t=0 OP uses 1V too, so
  // instead use a PWL that is 0 until 10ns then steps).
  const auto res = run_transient(nl, {{"vin", pwl_wave({{0.0, 0.0}, {9e-9, 0.0}, {10e-9, 1.0}})}},
                                 opts);
  ASSERT_TRUE(res.ok);
  const double tau = 1e3 * 1e-9;
  for (std::size_t i = 0; i < res.time.size(); i += 50) {
    const double t = res.time[i] - 10e-9;
    if (t < 5.0 * opts.dt) continue;  // skip the ramp region
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(res.v.at("out")[i], expected, 0.02) << "t=" << res.time[i];
  }
  // At ~5 tau the analytic residue is e^-5 ~ 0.7%.
  EXPECT_NEAR(res.final_v("out"), 1.0, 0.01);
}

TEST(Transient, NewtonCountersSplitTheOperatingPointFromTheSteps) {
  // The t = 0 operating point is a solve_dc, counted under solver.dc.*;
  // the transient counter holds the time steps only. Together the two
  // deltas are every iteration the run performed, which is what
  // TransientResult::newton_iterations reports.
  const Netlist nl = rc_lowpass();
  TransientOptions opts;
  opts.t_stop = 50e-9;
  opts.dt = 5e-9;
  opts.probes = {"out"};

  auto& m = util::metrics();
  const util::Counter& dc = m.counter("solver.dc.newton_iterations");
  const util::Counter& steps = m.counter("solver.transient.newton_iterations");
  const util::MetricHistogram& per_step = m.histogram("solver.transient.newton_per_step");
  const std::int64_t dc0 = dc.value();
  const std::int64_t steps0 = steps.value();
  const double per_step0 = per_step.snapshot().sum;
  const auto res = run_transient(nl, {{"vin", pwl_wave({{0.0, 0.0}, {9e-9, 0.0}, {10e-9, 1.0}})}},
                                 opts);
  ASSERT_TRUE(res.ok);
  const std::int64_t dc_delta = dc.value() - dc0;
  const std::int64_t steps_delta = steps.value() - steps0;
  EXPECT_GT(dc_delta, 0);
  EXPECT_EQ(steps_delta, static_cast<std::int64_t>(per_step.snapshot().sum - per_step0));
  EXPECT_EQ(dc_delta + steps_delta, res.newton_iterations)
      << "dc " << dc_delta << " + transient " << steps_delta;
}

TEST(Transient, FixedStepRunStampsOneLinearBase) {
  // Every step of a run without halvings takes exactly opts.dt, so the
  // sparse path stamps one transient linear base and reuses it: a step
  // an ulp short of dt (t_grid - t) would re-stamp it.
  const SolverTuning saved = solver_tuning();
  solver_tuning().force_sparse = true;
  const Netlist nl = rc_lowpass();
  TransientOptions opts;
  opts.t_stop = 5e-6;
  opts.dt = 5e-9;
  opts.probes = {"out"};
  auto& m = util::metrics();
  const util::Counter& builds = m.counter("solver.transient.linear_stamp_builds");
  const util::Counter& reuse = m.counter("solver.transient.linear_stamp_reuse");
  const std::int64_t builds0 = builds.value();
  const std::int64_t reuse0 = reuse.value();
  SolverWorkspace ws;
  const auto res = run_transient(
      nl, {{"vin", pwl_wave({{0.0, 0.0}, {9e-9, 0.0}, {10e-9, 1.0}})}}, opts, ws);
  solver_tuning() = saved;
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.step_halvings, 0);
  EXPECT_EQ(builds.value() - builds0, 1);
  EXPECT_GE(reuse.value() - reuse0, res.steps_accepted - 1);
}

TEST(Transient, RcDividerHighPassBehaviour) {
  // A series cap into a resistor passes edges and decays: after a step
  // the output spikes then returns to 0.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("vin", VSource{in, kGround, 0.0});
  nl.add("c1", Capacitor{in, out, 1e-12});
  nl.add("r1", Resistor{out, kGround, 10e3});

  TransientOptions opts;
  opts.t_stop = 500e-9;
  opts.dt = 0.2e-9;
  opts.probes = {"out"};
  const auto res =
      run_transient(nl, {{"vin", pwl_wave({{0.0, 0.0}, {50e-9, 0.0}, {50.2e-9, 1.0}})}}, opts);
  ASSERT_TRUE(res.ok);
  // Peak shortly after the edge, decayed by 5 tau (tau = 10ns).
  double peak = 0.0;
  for (std::size_t i = 0; i < res.time.size(); ++i) peak = std::max(peak, res.v.at("out")[i]);
  EXPECT_GT(peak, 0.5);
  EXPECT_NEAR(res.final_v("out"), 0.0, 0.01);
}

TEST(Transient, CmosInverterDrivesRailToRail) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("vdd", VSource{vdd, kGround, 1.2});
  nl.add("vin", VSource{in, kGround, 0.0});
  nl.add("mp", Mosfet{out, in, vdd, MosType::kPmos, 2e-6, 0.13e-6, 0.0});
  nl.add("mn", Mosfet{out, in, kGround, MosType::kNmos, 1e-6, 0.13e-6, 0.0});
  nl.add("cl", Capacitor{out, kGround, 10e-15});

  TransientOptions opts;
  opts.t_stop = 40e-9;
  opts.dt = 20e-12;
  opts.probes = {"out"};
  const auto res = run_transient(nl, {{"vin", square_wave(0.0, 1.2, 20e-9, 2e-9)}}, opts);
  ASSERT_TRUE(res.ok);
  // Out is inverted: low while in high (2..12ns), high while in low.
  const auto& t = res.time;
  const auto& vout = res.v.at("out");
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] > 6e-9 && t[i] < 11e-9) {
      EXPECT_LT(vout[i], 0.1) << "t=" << t[i];
    }
    if (t[i] > 16e-9 && t[i] < 21e-9) {
      EXPECT_GT(vout[i], 1.1) << "t=" << t[i];
    }
  }
}

TEST(Transient, UnknownDriveThrows) {
  Netlist nl;
  nl.add("v1", VSource{nl.node("a"), kGround, 0.0});
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = 1e-10;
  EXPECT_THROW(run_transient(nl, {{"nope", dc_wave(0.0)}}, opts), std::invalid_argument);
}

TEST(Transient, UnknownProbeThrows) {
  Netlist nl;
  nl.add("v1", VSource{nl.node("a"), kGround, 0.0});
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = 1e-10;
  opts.probes = {"missing"};
  EXPECT_THROW(run_transient(nl, {}, opts), std::invalid_argument);
}

}  // namespace
}  // namespace lsl::spice
