#include "spice/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace lsl::spice {
namespace {

TEST(Netlist, GroundIsNodeZero) {
  Netlist nl;
  EXPECT_EQ(nl.node("0"), kGround);
  EXPECT_EQ(nl.node_count(), 1u);
}

TEST(Netlist, NodeCreationIsIdempotent) {
  Netlist nl;
  const NodeId a = nl.node("a");
  EXPECT_EQ(nl.node("a"), a);
  EXPECT_EQ(nl.node_count(), 2u);
  EXPECT_EQ(nl.node_name(a), "a");
}

TEST(Netlist, FindNodeMissing) {
  Netlist nl;
  EXPECT_FALSE(nl.find_node("nope").has_value());
}

TEST(Netlist, FreshNodesAreUnique) {
  Netlist nl;
  const NodeId a = nl.fresh_node("x");
  const NodeId b = nl.fresh_node("x");
  EXPECT_NE(a, b);
  EXPECT_NE(nl.node_name(a), nl.node_name(b));
}

TEST(Netlist, DuplicateDeviceNameThrows) {
  Netlist nl;
  nl.add("r1", Resistor{nl.node("a"), kGround, 1e3});
  EXPECT_THROW(nl.add("r1", Resistor{nl.node("b"), kGround, 1e3}), std::invalid_argument);
}

TEST(Netlist, UnknownCountCountsBranches) {
  Netlist nl;
  nl.add("v1", VSource{nl.node("a"), kGround, 1.0});
  nl.add("r1", Resistor{nl.node("a"), nl.node("b"), 1e3});
  nl.add("e1", Vcvs{nl.node("c"), kGround, nl.node("b"), kGround, 2.0});
  // Nodes a,b,c => 3 voltage unknowns; v1 and e1 => 2 branch currents.
  EXPECT_EQ(nl.unknown_count(), 5u);
}

TEST(Netlist, DisabledDeviceHasNoBranch) {
  Netlist nl;
  const std::size_t vi = nl.add("v1", VSource{nl.node("a"), kGround, 1.0});
  EXPECT_EQ(nl.unknown_count(), 2u);
  nl.device(vi).enabled = false;
  nl.reindex();
  EXPECT_EQ(nl.unknown_count(), 1u);
  EXPECT_THROW(nl.branch_index(vi), std::invalid_argument);
}

TEST(Netlist, MutableAccessMarksTheBranchIndexStale) {
  // Edits through the mutating accessors, and new nodes, are seen by
  // the next unknown_count() / branch_index() without a reindex() call.
  Netlist nl;
  const std::size_t v1 = nl.add("v1", VSource{nl.node("a"), kGround, 1.0});
  const std::size_t v2 = nl.add("v2", VSource{nl.node("b"), kGround, 1.0});
  EXPECT_EQ(nl.unknown_count(), 4u);
  EXPECT_EQ(nl.branch_index(v2), 3u);
  nl.device(v1).enabled = false;
  EXPECT_EQ(nl.unknown_count(), 3u);
  EXPECT_EQ(nl.branch_index(v2), 2u);
  nl.node("c");
  EXPECT_EQ(nl.unknown_count(), 4u);
  EXPECT_EQ(nl.branch_index(v2), 3u);
  nl.devices()[v1].enabled = true;
  EXPECT_EQ(nl.unknown_count(), 5u);
  EXPECT_EQ(nl.branch_index(v1), 3u);
}

TEST(Netlist, ValueCopyIsIndependent) {
  Netlist a;
  a.add("r1", Resistor{a.node("n"), kGround, 100.0});
  Netlist b = a;
  std::get<Resistor>(b.device(0).impl).ohms = 999.0;
  EXPECT_DOUBLE_EQ(std::get<Resistor>(a.device(0).impl).ohms, 100.0);
  EXPECT_DOUBLE_EQ(std::get<Resistor>(b.device(0).impl).ohms, 999.0);
}

TEST(Netlist, CopyLookupsStayIndependentWhileTheCopysTablesGrow) {
  // Name lookups go through position-only hash tables, copied with the
  // netlist: 200 names added to a copy regrow its tables several times
  // and must leave the original's lookups as they were.
  Netlist a;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    const std::string name = "n" + std::to_string(i);
    nodes.push_back(a.node(name));
    a.add("r" + std::to_string(i), Resistor{nodes.back(), kGround, 1e3});
  }
  const NodeId fresh_a = a.fresh_node("x");
  Netlist b = a;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "grown" + std::to_string(i);
    b.add("r_" + name, Resistor{b.node(name), kGround, 1e3});
  }
  for (int i = 0; i < 200; ++i) {
    const std::string name = "grown" + std::to_string(i);
    EXPECT_FALSE(a.find_node(name).has_value()) << name;
    EXPECT_FALSE(a.find_device("r_" + name).has_value()) << name;
    ASSERT_TRUE(b.find_node(name).has_value()) << name;
    EXPECT_EQ(b.node_name(*b.find_node(name)), name);
    ASSERT_TRUE(b.find_device("r_" + name).has_value()) << name;
    EXPECT_EQ(b.device(*b.find_device("r_" + name)).name, "r_" + name);
  }
  for (int i = 0; i < 10; ++i) {
    const std::string name = "n" + std::to_string(i);
    for (const Netlist* nl : {&a, &b}) {
      ASSERT_TRUE(nl->find_node(name).has_value());
      EXPECT_EQ(*nl->find_node(name), nodes[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(nl->find_device("r" + std::to_string(i)).has_value());
      EXPECT_EQ(*nl->find_device("r" + std::to_string(i)), static_cast<std::size_t>(i));
    }
  }
  EXPECT_EQ(a.node_count(), 12u);
  EXPECT_EQ(a.devices().size(), 10u);
  EXPECT_EQ(*a.find_node("0"), kGround);
  EXPECT_EQ(*b.find_node("0"), kGround);
  // fresh_node stays unique on both sides: the copy carries the counter
  // and sees its own grown names.
  const std::string taken = a.node_name(fresh_a);
  for (Netlist* nl : {&a, &b}) {
    std::vector<std::string> names = {taken};
    for (int i = 0; i < 20; ++i) {
      const NodeId id = nl->fresh_node("x");
      names.push_back(nl->node_name(id));
      EXPECT_EQ(*nl->find_node(names.back()), id);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  }
  // A name a copy created that collides with the hint pattern is
  // skipped, not reused.
  Netlist c = a;
  const std::string next = "x#" + std::to_string(21);
  const NodeId squatter = c.node(next);
  EXPECT_NE(c.fresh_node("x"), squatter);
}

TEST(Netlist, FindDeviceByName) {
  Netlist nl;
  nl.add("m1", Mosfet{nl.node("d"), nl.node("g"), kGround, MosType::kNmos, 1e-6, 0.5e-6, 0.0});
  ASSERT_TRUE(nl.find_device("m1").has_value());
  EXPECT_EQ(*nl.find_device("m1"), 0u);
  EXPECT_FALSE(nl.find_device("m2").has_value());
}

TEST(Netlist, VoltageIndexOfGroundThrows) {
  Netlist nl;
  EXPECT_THROW(nl.voltage_index(kGround), std::invalid_argument);
}

}  // namespace
}  // namespace lsl::spice
