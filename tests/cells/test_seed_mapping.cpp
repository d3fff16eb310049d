// SolutionSeed keeps a captured solution in the captured netlist's
// order and maps it onto a target by position where the name matches,
// by name elsewhere. Referee: the plain by-name mapping (node voltages
// keyed by node name, branch currents by device name), which must give
// the same vector bit for bit — on fault copies that insert nodes and
// devices, on a netlist whose names sit at other positions, and on
// hand-built netlists with reordered and disabled sources.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "cells/link_frontend.hpp"
#include "fault/structural.hpp"
#include "spice/dc.hpp"
#include "spice/seed.hpp"

namespace lsl::spice {
namespace {

bool is_branch(const Device& dev) {
  return dev.enabled &&
         (std::holds_alternative<VSource>(dev.impl) || std::holds_alternative<Vcvs>(dev.impl));
}

/// The by-name mapping of solution `x` of `from` onto `target`.
std::vector<double> by_name(const Netlist& from, const std::vector<double>& x,
                            const Netlist& target) {
  from.reindex();
  target.reindex();
  std::unordered_map<std::string, double> node_v;
  std::unordered_map<std::string, double> branch_i;
  for (NodeId node = 1; node < from.node_count(); ++node) {
    node_v.emplace(from.node_name(node), x[from.voltage_index(node)]);
  }
  for (std::size_t di = 0; di < from.devices().size(); ++di) {
    if (is_branch(from.devices()[di])) {
      branch_i.emplace(from.devices()[di].name, x[from.branch_index(di)]);
    }
  }
  std::vector<double> out(target.unknown_count(), 0.0);
  for (NodeId node = 1; node < target.node_count(); ++node) {
    const auto it = node_v.find(target.node_name(node));
    if (it != node_v.end()) out[target.voltage_index(node)] = it->second;
  }
  for (std::size_t di = 0; di < target.devices().size(); ++di) {
    if (!is_branch(target.devices()[di])) continue;
    const auto it = branch_i.find(target.devices()[di].name);
    if (it != branch_i.end()) out[target.branch_index(di)] = it->second;
  }
  return out;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << where;
}

TEST(SeedMapping, PositionalMappingEqualsByNameOnOpenFaultCopies) {
  const cells::LinkFrontend golden;
  const Netlist& gnl = golden.netlist();
  const DcResult op = solve_dc(gnl);
  ASSERT_TRUE(op.converged);
  const SolutionSeed seed = SolutionSeed::capture(gnl, op.x);
  ASSERT_FALSE(seed.empty());
  expect_same_bits(seed.initial_guess_for(gnl), op.x, "golden");

  const auto vdd = *gnl.find_node("vdd");
  int opens_with_new_nodes = 0;
  int targets = 0;
  for (const auto& f : fault::enumerate_structural_faults(gnl, {},
                                                          fault::test_circuitry_prefixes())) {
    for (const auto leak : {fault::OpenLeak::kToGround, fault::OpenLeak::kToVdd}) {
      if (leak == fault::OpenLeak::kToVdd && !f.needs_leak_variants()) continue;
      Netlist faulty = gnl;
      ASSERT_TRUE(fault::inject(faulty, f, leak, vdd)) << f.describe();
      if (faulty.node_count() > gnl.node_count()) ++opens_with_new_nodes;
      expect_same_bits(seed.initial_guess_for(faulty), by_name(gnl, op.x, faulty),
                       f.describe());
      ++targets;
    }
  }
  EXPECT_GT(opens_with_new_nodes, 50);
  EXPECT_GT(targets, 300);
}

TEST(SeedMapping, NamesAtOtherPositionsAreFoundByName) {
  // The closed-loop frontend drops two drive rails, so most of its
  // names sit at other positions than in the open loop's seed.
  const cells::LinkFrontend open_loop;
  cells::LinkFrontendSpec closed_spec;
  closed_spec.close_coarse_loop = true;
  const cells::LinkFrontend closed_loop(closed_spec);
  const DcResult op = solve_dc(open_loop.netlist());
  ASSERT_TRUE(op.converged);
  const SolutionSeed seed = SolutionSeed::capture(open_loop.netlist(), op.x);
  expect_same_bits(seed.initial_guess_for(closed_loop.netlist()),
                   by_name(open_loop.netlist(), op.x, closed_loop.netlist()), "closed loop");

  // Hand-built: reordered nodes and sources, a disabled source in the
  // seed, a new source in the target, and a node present only there.
  Netlist from;
  const std::size_t v1 = from.add("v1", VSource{from.node("a"), kGround, 1.0});
  from.add("r1", Resistor{from.node("a"), from.node("b"), 1e3});
  const std::size_t v_off = from.add("v_off", VSource{from.node("b"), kGround, 0.5});
  from.add("e1", Vcvs{from.node("c"), kGround, from.node("b"), kGround, 2.0});
  from.device(v_off).enabled = false;
  from.reindex();
  std::vector<double> x(from.unknown_count());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.25 * static_cast<double>(i + 1);
  const SolutionSeed small = SolutionSeed::capture(from, x);
  (void)v1;

  Netlist to;
  to.add("e1", Vcvs{to.node("c"), kGround, to.node("b"), kGround, 2.0});
  to.add("v_off", VSource{to.node("b"), kGround, 0.5});
  to.add("v_new", VSource{to.node("d"), kGround, 0.1});
  to.add("v1", VSource{to.node("a"), kGround, 1.0});
  to.add("r1", Resistor{to.node("a"), to.node("b"), 1e3});
  expect_same_bits(small.initial_guess_for(to), by_name(from, x, to), "hand-built");
  // The same names at the same positions take their values directly.
  Netlist same = from;
  expect_same_bits(small.initial_guess_for(same), x, "copy");
}

}  // namespace
}  // namespace lsl::spice
