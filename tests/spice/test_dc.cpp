#include "spice/dc.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/names.hpp"

namespace lsl::spice {
namespace {

TEST(Dc, VoltageDivider) {
  Netlist nl;
  const NodeId vin = nl.node("vin");
  const NodeId mid = nl.node("mid");
  nl.add("v1", VSource{vin, kGround, 1.2});
  nl.add("r1", Resistor{vin, mid, 10e3});
  nl.add("r2", Resistor{mid, kGround, 30e3});
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.v(nl, "mid"), 0.9, 1e-6);
  // Branch current through v1: 1.2V over 40k = 30uA flowing out of the
  // source's + terminal, i.e. -30uA p->n through the source.
  EXPECT_NEAR(r.i(nl, "v1"), -30e-6, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Netlist nl;
  const NodeId out = nl.node("out");
  // 10uA pulled from ground through the source into node out.
  nl.add("i1", ISource{kGround, out, 10e-6});
  nl.add("r1", Resistor{out, kGround, 50e3});
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.v(nl, "out"), 0.5, 1e-6);
}

TEST(Dc, VcvsGain) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("v1", VSource{in, kGround, 0.25});
  nl.add("e1", Vcvs{out, kGround, in, kGround, 4.0});
  nl.add("rl", Resistor{out, kGround, 1e3});
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.v(nl, "out"), 1.0, 1e-6);
}

TEST(Dc, CapacitorIsOpenAtDc) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add("v1", VSource{a, kGround, 1.2});
  nl.add("c1", Capacitor{a, b, 1e-12});
  nl.add("r1", Resistor{b, kGround, 1e3});
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  // No DC path through the cap: b sits at ground.
  EXPECT_NEAR(r.v(nl, "b"), 0.0, 1e-6);
}

TEST(Dc, FloatingNodeSettlesViaGmin) {
  Netlist nl;
  nl.node("orphan");
  nl.add("v1", VSource{nl.node("a"), kGround, 1.0});
  nl.add("r1", Resistor{nl.node("a"), kGround, 1e3});
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.v(nl, "orphan"), 0.0, 1e-6);
}

TEST(Dc, SeriesResistorLadder) {
  // 12 equal resistors from 1.2V to ground: node k sits at 1.2*(12-k)/12.
  Netlist nl;
  nl.add("v1", VSource{nl.node("n0"), kGround, 1.2});
  for (int k = 0; k < 12; ++k) {
    const NodeId a = nl.node(test::indexed("n", k));
    const NodeId b = (k == 11) ? kGround : nl.node(test::indexed("n", k + 1));
    nl.add(test::indexed("r", k), Resistor{a, b, 1e3});
  }
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  for (int k = 0; k < 12; ++k) {
    EXPECT_NEAR(r.v(nl, test::indexed("n", k)), 1.2 * (12 - k) / 12.0, 1e-6) << "node " << k;
  }
}

TEST(Dc, SweepWarmStarts) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("vin", VSource{in, kGround, 0.0});
  nl.add("r1", Resistor{in, out, 1e3});
  nl.add("r2", Resistor{out, kGround, 1e3});
  std::vector<double> values;
  for (int i = 0; i <= 12; ++i) values.push_back(0.1 * i);
  const auto results = dc_sweep(nl, "vin", values);
  ASSERT_EQ(results.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(results[i].converged) << "point " << i;
    EXPECT_NEAR(results[i].v(nl, "out"), values[i] / 2.0, 1e-6);
  }
}

TEST(Dc, NonPositiveResistanceThrows) {
  Netlist nl;
  nl.add("r1", Resistor{nl.node("a"), kGround, 0.0});
  nl.add("v1", VSource{nl.node("a"), kGround, 1.0});
  EXPECT_THROW(solve_dc(nl), std::invalid_argument);
}

}  // namespace
}  // namespace lsl::spice
