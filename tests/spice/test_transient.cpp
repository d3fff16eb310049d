#include "spice/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "spice/seed.hpp"
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
  // workspace stamps one transient linear base and reuses it: a step
  // an ulp short of dt (t_grid - t) would re-stamp it.
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

/// A CMOS inverter into an RC load: vdd, vin, then "out" and "load",
/// created after `first_nodes` (so a netlist that names extra nodes
/// first holds every shared node at another position).
Netlist inverter_into_rc(const std::vector<std::string>& first_nodes = {}) {
  Netlist nl;
  for (const auto& name : first_nodes) nl.node(name);
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  const NodeId load = nl.node("load");
  nl.add("vdd", VSource{vdd, kGround, 1.2});
  nl.add("vin", VSource{in, kGround, 0.0});
  nl.add("mp", Mosfet{out, in, vdd, MosType::kPmos, 2e-6, 0.13e-6, 0.0});
  nl.add("mn", Mosfet{out, in, kGround, MosType::kNmos, 1e-6, 0.13e-6, 0.0});
  nl.add("cl", Capacitor{out, kGround, 10e-15});
  nl.add("cload", Capacitor{load, kGround, 20e-15});
  return nl;
}

TransientOptions inverter_opts() {
  TransientOptions opts;
  opts.t_stop = 40e-9;
  opts.dt = 0.1e-9;
  opts.probes = {"out", "load"};
  return opts;
}

const std::unordered_map<std::string, Waveform>& inverter_drives() {
  static const std::unordered_map<std::string, Waveform> drives = {
      {"vin", square_wave(0.0, 1.2, 10e-9, 2e-9)}};
  return drives;
}

/// Deltas of the transient step counters over one call of `run`.
struct StepCounts {
  std::int64_t newton = 0;
  std::int64_t predicted = 0;
};

template <class Run>
StepCounts count_steps(Run&& run) {
  auto& m = util::metrics();
  const util::Counter& newton = m.counter("solver.transient.newton_iterations");
  const util::Counter& predicted = m.counter("solver.transient.golden_predicted_steps");
  const std::int64_t newton0 = newton.value();
  const std::int64_t predicted0 = predicted.value();
  run();
  return {newton.value() - newton0, predicted.value() - predicted0};
}

TEST(GoldenTrajectory, FollowingItsOwnTrajectoryTakesOneIterationPerStep) {
  Netlist nl = inverter_into_rc();
  nl.add("rload", Resistor{*nl.find_node("out"), *nl.find_node("load"), 20e3});
  const TransientOptions opts = inverter_opts();
  SolverWorkspace ws;

  SeedBank bank;
  SolveHints record;
  record.capture = &bank;
  TransientResult golden;
  const StepCounts cold = count_steps([&] {
    golden = run_transient(nl, inverter_drives(), opts, ws, &record, "inv.toggle");
  });
  ASSERT_TRUE(golden.ok);
  EXPECT_EQ(cold.predicted, 0);
  const SolutionSeed* trajectory = bank.find("inv.toggle");
  ASSERT_NE(trajectory, nullptr);
  ASSERT_EQ(trajectory->frame_count(), golden.time.size());  // t = 0 and every grid point

  SolveHints follow;
  follow.seeds = &bank;
  TransientResult res;
  const StepCounts warm = count_steps(
      [&] { res = run_transient(nl, inverter_drives(), opts, ws, &follow, "inv.toggle"); });
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.step_halvings, 0);
  EXPECT_EQ(warm.predicted, res.steps_accepted);
  EXPECT_EQ(warm.newton, res.steps_accepted) << "one Newton iteration per step";
  EXPECT_GT(cold.newton, 2 * warm.newton);
  ASSERT_EQ(res.time, golden.time);
  for (const auto& probe : opts.probes) {
    for (std::size_t i = 0; i < res.time.size(); ++i) {
      ASSERT_NEAR(res.probe(probe)[i], golden.probe(probe)[i], opts.newton.abs_tol)
          << probe << " at t=" << res.time[i];
    }
  }

  // Another key, or no seeds, is today's extrapolation, bit for bit.
  const TransientResult plain = run_transient(nl, inverter_drives(), opts, ws);
  const TransientResult other = run_transient(nl, inverter_drives(), opts, ws, &follow, "other");
  EXPECT_EQ(plain.v, golden.v);
  EXPECT_EQ(other.v, golden.v);
  EXPECT_EQ(other.newton_iterations, golden.newton_iterations);
}

TEST(GoldenTrajectory, FaultWithAnAddedNodeMapsTheTrajectoryByName) {
  // The "fault" splits the load resistor at a node the golden lacks,
  // created first, so every shared name sits one position later.
  Netlist golden_nl = inverter_into_rc();
  golden_nl.add("rload",
                Resistor{*golden_nl.find_node("out"), *golden_nl.find_node("load"), 20e3});
  Netlist faulty = inverter_into_rc({"f.split"});
  const NodeId split = *faulty.find_node("f.split");
  faulty.add("rload", Resistor{*faulty.find_node("out"), split, 10e3});
  faulty.add("rload.f", Resistor{split, *faulty.find_node("load"), 10e3});
  const TransientOptions opts = inverter_opts();
  SolverWorkspace ws;

  SeedBank bank;
  SolveHints record;
  record.capture = &bank;
  ASSERT_TRUE(run_transient(golden_nl, inverter_drives(), opts, ws, &record, "inv.toggle").ok);
  const SolutionSeed* trajectory = bank.find("inv.toggle");
  ASSERT_NE(trajectory, nullptr);

  // Every shared node and branch maps to its golden position, by name.
  const std::vector<std::size_t> map = trajectory->index_map(faulty);
  ASSERT_EQ(map.size(), faulty.unknown_count());
  for (NodeId node = 1; node < faulty.node_count(); ++node) {
    const auto at = golden_nl.find_node(faulty.node_name(node));
    EXPECT_EQ(map[faulty.voltage_index(node)],
              at.has_value() ? golden_nl.voltage_index(*at) : SolutionSeed::kUnmapped)
        << faulty.node_name(node);
  }
  for (const char* source : {"vdd", "vin"}) {
    EXPECT_EQ(map[faulty.branch_index(*faulty.find_device(source))],
              golden_nl.branch_index(*golden_nl.find_device(source)))
        << source;
  }

  TransientResult cold;
  const StepCounts plain =
      count_steps([&] { cold = run_transient(faulty, inverter_drives(), opts, ws); });
  SolveHints follow;
  follow.seeds = &bank;
  TransientResult res;
  const StepCounts warm = count_steps(
      [&] { res = run_transient(faulty, inverter_drives(), opts, ws, &follow, "inv.toggle"); });
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(warm.predicted, res.steps_accepted);
  EXPECT_LT(warm.newton, plain.newton);
  for (const auto& probe : opts.probes) {
    for (std::size_t i = 0; i < res.time.size(); ++i) {
      ASSERT_NEAR(res.probe(probe)[i], cold.probe(probe)[i], opts.newton.abs_tol)
          << probe << " at t=" << res.time[i];
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
