// Property tests for the MNA core, on randomized (fixed-seed) netlists:
//
//  1. KCL invariant — at every accepted DC and transient solution the
//     nonlinear residual G(x)·x − b(x) over the node rows is below an
//     absolute tolerance. Newton's own exit check is relative to each
//     row's terms, so this stays an independent check of the stamps (a
//     sign error in a companion model or Jacobian remainder shows up
//     here even when the iteration happily "converges").
//  2. Integrator cross-check — backward Euler and trapezoidal are two
//     independent discretizations; both must track the analytic RC step
//     response within their theoretical error bounds and agree with
//     each other.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "spice/dc.hpp"
#include "spice/stamp.hpp"
#include "spice/transient.hpp"
#include "support/names.hpp"
#include "util/rng.hpp"

namespace lsl::spice {
namespace {

/// KCL tolerance in amperes. Newton stops at |dV| < 1e-6 V, and the
/// residual at the accepted iterate is second order in that last
/// update (zero up to roundoff on linear circuits), so 1e-6 has margin
/// without hiding bugs (a wrong companion model gives residuals of
/// order the branch current, i.e. 1e-3 and up).
constexpr double kKclTol = 1e-6;

/// Random RC ladder: a driven resistor chain with random grounded
/// resistors and capacitors hanging off every node. Always well-posed
/// (every node reaches the source through the chain).
Netlist make_random_rc(util::Pcg32& rng, std::size_t n_nodes) {
  Netlist nl;
  const NodeId vin = nl.node("in");
  nl.add("vin", VSource{vin, kGround, rng.next_range(0.3, 1.2)});
  NodeId prev = vin;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const NodeId cur = nl.node(test::indexed("n", i));
    nl.add(test::indexed("r", i), Resistor{prev, cur, rng.next_range(100.0, 10e3)});
    if (rng.next_bool()) {
      nl.add(test::indexed("rg", i), Resistor{cur, kGround, rng.next_range(1e3, 100e3)});
    }
    nl.add(test::indexed("c", i), Capacitor{cur, kGround, rng.next_range(0.1e-12, 5e-12)});
    prev = cur;
  }
  return nl;
}

/// Random MOSFET chain: alternating common-source stages (NMOS with
/// resistive pull-up / PMOS with resistive pull-down) with random
/// geometry, each gate driven by the previous stage's output.
Netlist make_random_mos(util::Pcg32& rng, std::size_t n_stages) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  nl.add("v_vdd", VSource{vdd, kGround, 1.2});
  const NodeId in = nl.node("g0");
  nl.add("v_in", VSource{in, kGround, rng.next_range(0.0, 1.2)});
  NodeId gate = in;
  for (std::size_t s = 0; s < n_stages; ++s) {
    const NodeId out = nl.node(test::indexed("o", s));
    const double w = rng.next_range(0.2e-6, 2.0e-6);
    const double l = rng.next_range(0.2e-6, 1.0e-6);
    const double r_load = rng.next_range(1e3, 50e3);
    if (rng.next_bool()) {
      nl.add(test::indexed("mn", s), Mosfet{out, gate, kGround, MosType::kNmos, w, l, 0.0});
      nl.add(test::indexed("rl", s), Resistor{out, vdd, r_load});
    } else {
      nl.add(test::indexed("mp", s), Mosfet{out, gate, vdd, MosType::kPmos, w, l, 0.0});
      nl.add(test::indexed("rl", s), Resistor{out, kGround, r_load});
    }
    gate = out;
  }
  return nl;
}

/// Residual of solve_dc's final system: gmin_final to ground, sources
/// at full scale.
double dc_residual(const Netlist& nl, const DcResult& r, const DcOptions& opts) {
  StampContext ctx;
  ctx.nl = &nl;
  ctx.gmin = opts.gmin_final;
  return kcl_residual_norm(ctx, r.x);
}

TEST(KclInvariant, RandomRcLaddersAtDc) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Pcg32 rng(seed);
    const Netlist nl = make_random_rc(rng, 3 + seed % 6);
    const DcOptions opts;
    const DcResult r = solve_dc(nl, opts);
    ASSERT_TRUE(r.converged) << "seed " << seed;
    EXPECT_LT(dc_residual(nl, r, opts), kKclTol) << "seed " << seed;
  }
}

TEST(KclInvariant, RandomMosfetChainsAtDc) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    util::Pcg32 rng(seed);
    const Netlist nl = make_random_mos(rng, 2 + seed % 4);
    const DcOptions opts;
    const DcResult r = solve_dc(nl, opts);
    ASSERT_TRUE(r.converged) << "seed " << seed;
    EXPECT_LT(dc_residual(nl, r, opts), kKclTol) << "seed " << seed;
  }
}

TEST(KclInvariant, RandomRcTransientEveryAcceptedStep) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    util::Pcg32 rng(seed);
    const Netlist nl = make_random_rc(rng, 4);
    for (const Integrator method : {Integrator::kBackwardEuler, Integrator::kTrapezoidal}) {
      TransientOptions opts;
      opts.t_stop = 50e-9;
      opts.dt = 0.5e-9;
      opts.integrator = method;
      opts.record_kcl_residual = true;
      const TransientResult r =
          run_transient(nl, {{"vin", square_wave(0.0, 1.0, 20e-9)}}, opts);
      ASSERT_TRUE(r.ok) << "seed " << seed;
      EXPECT_GT(r.steps_accepted, 0);
      EXPECT_LT(r.max_kcl_residual, kKclTol)
          << "seed " << seed << (method == Integrator::kTrapezoidal ? " trap" : " be");
    }
  }
}

TEST(KclInvariant, MosfetTransientEveryAcceptedStep) {
  util::Pcg32 rng(4242);
  Netlist nl = make_random_mos(rng, 3);
  // Capacitive load on the last stage output so both companions engage.
  nl.add("cl", Capacitor{*nl.find_node("o2"), kGround, 50e-15});
  for (const Integrator method : {Integrator::kBackwardEuler, Integrator::kTrapezoidal}) {
    TransientOptions opts;
    opts.t_stop = 20e-9;
    opts.dt = 0.1e-9;
    opts.integrator = method;
    opts.record_kcl_residual = true;
    const TransientResult r =
        run_transient(nl, {{"v_in", square_wave(0.1, 1.1, 10e-9)}}, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(r.max_kcl_residual, kKclTol);
  }
}

/// Analytic cross-check: series R into grounded C, input ramping
/// 0 -> 1 V over t_r (corner on the output grid), then flat:
///   t <= t_r:  v = (t - tau(1 - e^{-t/tau})) / t_r
///   t >= t_r:  v = 1 - (tau/t_r)(1 - e^{-t_r/tau}) e^{-(t-t_r)/tau}
/// A hard step at t=0 would be unfair to trapezoidal: its current
/// history i_0 = 0 is consistent with the pre-step input, so the
/// discontinuity costs it an O(dt/2tau) startup offset no matter how
/// correct the companion model is. A piecewise-linear input with the
/// corner on a grid point keeps both methods at their theoretical
/// orders.
TEST(IntegratorCrossCheck, RcRampResponseMatchesAnalyticSolution) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("vin", VSource{in, kGround, 0.0});
  nl.add("r", Resistor{in, out, 1e3});
  nl.add("c", Capacitor{out, kGround, 1e-9});  // tau = 1 us

  constexpr double t_r = 100e-9;  // ramp end: 2 output steps
  TransientOptions base;
  base.t_stop = 3e-6;
  base.dt = 50e-9;  // tau / 20
  base.probes = {"out"};
  const auto step = pwl_wave({{0.0, 0.0}, {t_r, 1.0}});

  base.integrator = Integrator::kBackwardEuler;
  const TransientResult be = run_transient(nl, {{"vin", step}}, base);
  base.integrator = Integrator::kTrapezoidal;
  const TransientResult tr = run_transient(nl, {{"vin", step}}, base);
  ASSERT_TRUE(be.ok);
  ASSERT_TRUE(tr.ok);
  ASSERT_EQ(be.time.size(), tr.time.size());

  const double tau = 1e3 * 1e-9;
  double be_err = 0.0;
  double tr_err = 0.0;
  double diff = 0.0;
  for (std::size_t k = 1; k < be.time.size(); ++k) {
    const double t = be.time[k];
    const double analytic =
        t <= t_r ? (t - tau * (1.0 - std::exp(-t / tau))) / t_r
                 : 1.0 - (tau / t_r) * (1.0 - std::exp(-t_r / tau)) * std::exp(-(t - t_r) / tau);
    be_err = std::max(be_err, std::fabs(be.probe("out")[k] - analytic));
    tr_err = std::max(tr_err, std::fabs(tr.probe("out")[k] - analytic));
    diff = std::max(diff, std::fabs(be.probe("out")[k] - tr.probe("out")[k]));
  }
  // First-order method at h = tau/20: O(h/2tau) ~ 2%. Second-order:
  // O(h^2/12tau^2) ~ 0.02%.
  EXPECT_LT(be_err, 0.03);
  EXPECT_LT(tr_err, 1e-3);
  EXPECT_LT(tr_err, be_err);  // trapezoidal is strictly more accurate here
  EXPECT_LT(diff, 0.03);      // the two discretizations agree within BE's bound
}

}  // namespace
}  // namespace lsl::spice
