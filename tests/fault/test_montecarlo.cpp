#include "fault/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cells/comparator.hpp"
#include "spice/dc.hpp"
#include "support/names.hpp"

namespace lsl::fault {
namespace {

TEST(VtSigma, PelgromScaling) {
  spice::Mosfet small{0, 0, 0, spice::MosType::kNmos, 0.5e-6, 0.5e-6, 0.0};
  spice::Mosfet big{0, 0, 0, spice::MosType::kNmos, 2.0e-6, 2.0e-6, 0.0};
  const MismatchSpec spec;
  // sigma = 3.5 mV*um / 0.5 um = 7 mV for the minimum device.
  EXPECT_NEAR(vt_sigma(small, spec), 7e-3, 1e-4);
  // 4x the area halves sigma... 16x here: quarter.
  EXPECT_NEAR(vt_sigma(big, spec), 7e-3 / 4.0, 1e-4);
}

TEST(ApplyMismatch, PerturbsOnlyMatchingMosfets) {
  spice::Netlist nl;
  nl.add("a.m1", spice::Mosfet{nl.node("x"), nl.node("y"), spice::kGround,
                               spice::MosType::kNmos, 1e-6, 0.5e-6, 0.0});
  nl.add("b.m1", spice::Mosfet{nl.node("x"), nl.node("y"), spice::kGround,
                               spice::MosType::kNmos, 1e-6, 0.5e-6, 0.0});
  nl.add("a.r1", spice::Resistor{nl.node("x"), spice::kGround, 1e3});
  util::Pcg32 rng(7);
  const std::size_t n = apply_vt_mismatch(nl, {"a."}, {}, rng);
  EXPECT_EQ(n, 1u);
  EXPECT_NE(std::get<spice::Mosfet>(nl.device(0).impl).vt_delta, 0.0);
  EXPECT_EQ(std::get<spice::Mosfet>(nl.device(1).impl).vt_delta, 0.0);
}

TEST(ApplyMismatch, DeltasAreZeroMeanAndScaled) {
  spice::Netlist nl;
  for (int i = 0; i < 400; ++i) {
    nl.add(test::indexed("m", i),
           spice::Mosfet{nl.node("x"), nl.node("y"), spice::kGround, spice::MosType::kNmos,
                         0.5e-6, 0.5e-6, 0.0});
  }
  util::Pcg32 rng(11);
  apply_vt_mismatch(nl, {}, {}, rng);
  double sum = 0.0;
  double sq = 0.0;
  for (const auto& d : nl.devices()) {
    const double v = std::get<spice::Mosfet>(d.impl).vt_delta;
    sum += v;
    sq += v * v;
  }
  const double mean = sum / 400.0;
  const double rms = std::sqrt(sq / 400.0);
  EXPECT_NEAR(mean, 0.0, 1.5e-3);
  EXPECT_NEAR(rms, 7e-3, 1.5e-3);
}

TEST(McTrials, ResultsIdenticalAtAnyThreadCount) {
  // Per-trial PCG32 streams make the draw sequence a function of
  // (seed, trial) only, so the tally and every per-trial measurement
  // must be bit-identical whether run serially or on four workers.
  const auto run = [](std::size_t threads, std::vector<double>& out) {
    McRunOptions opts;
    opts.num_threads = threads;
    opts.seed = 77;
    out.assign(40, 0.0);
    return run_mc_trials(40, opts, [&out](std::size_t t, util::Pcg32& rng) {
      spice::Netlist nl;
      const auto n = nl.node("x");
      nl.add("v", spice::VSource{nl.node("in"), spice::kGround, 1.0});
      nl.add("r", spice::Resistor{nl.node("in"), n, 1e3});
      nl.add("m", spice::Mosfet{n, nl.node("in"), spice::kGround,
                                spice::MosType::kNmos, 1e-6, 0.5e-6, 0.0});
      apply_vt_mismatch(nl, {}, {}, rng);
      const auto r = spice::solve_dc(nl);
      out[t] = r.converged ? r.v(nl, n) : -1.0;
      return r.status;
    });
  };
  std::vector<double> serial_v;
  std::vector<double> parallel_v;
  const McTally serial = run(1, serial_v);
  const McTally parallel = run(4, parallel_v);
  EXPECT_EQ(serial.ok, parallel.ok);
  EXPECT_EQ(serial.failed, parallel.failed);
  EXPECT_EQ(serial_v, parallel_v);  // bit-exact, not just statistically close
  EXPECT_EQ(serial.trials(), 40u);
}

TEST(ApplyMismatch, ComparatorOffsetPolaritySurvivesMismatch) {
  // The paper's design rule, on a sample of Monte-Carlo instances: the
  // deliberate 0.65u-vs-0.5u skew keeps the comparator decision at zero
  // differential on the intended side despite random VT mismatch.
  util::Pcg32 rng(2024);
  int correct = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    spice::Netlist nl;
    const auto vdd = nl.node("vdd");
    nl.add("v_vdd", spice::VSource{vdd, spice::kGround, 1.2});
    const auto in = nl.node("in");
    nl.add("v_in", spice::VSource{in, spice::kGround, 0.75});
    const auto vbn = cells::build_nbias(nl, "bias", vdd, 130e3);
    cells::ComparatorSpec spec;
    spec.w_offset = 0.65e-6;
    const auto c = cells::build_offset_comparator(nl, "cmp", vdd, vbn, in, in, spec);
    apply_vt_mismatch(nl, {"cmp."}, {}, rng);
    const auto r = spice::solve_dc(nl);
    if (!r.converged) continue;
    // Zero differential: the deliberate offset must hold the output low.
    if (r.v(nl, c.out) < 0.6) ++correct;
  }
  EXPECT_GE(correct, trials - 2);  // a rare 3-sigma escape is acceptable
}

}  // namespace
}  // namespace lsl::fault
