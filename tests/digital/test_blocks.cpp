#include "digital/blocks.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/names.hpp"

namespace lsl::digital {
namespace {

std::string onehot_state(const Circuit& c, const RingCounterBlock& b) {
  std::string s;
  for (const NetId q : b.q) s.push_back(logic_char(c.value(q)));
  return s;
}

struct RingFixture {
  Circuit c;
  NetId en;
  NetId dir;
  RingCounterBlock ring;

  explicit RingFixture(std::size_t n = 4) {
    en = c.net("en");
    dir = c.net("dir");
    c.make_input(en);
    c.make_input(dir);
    ring = build_ring_counter(c, "rc", n, en, dir);
  }

  void preload(const std::string& bits) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      c.set_ff_state(ring.flops[i], bits[i] == '1' ? Logic::k1 : Logic::k0);
    }
    c.settle();
  }
};

TEST(RingCounter, HoldsWhenDisabled) {
  RingFixture f;
  f.c.power_on();
  f.c.set_input(f.en, false);
  f.c.set_input(f.dir, true);
  f.preload("0100");
  f.c.step();
  EXPECT_EQ(onehot_state(f.c, f.ring), "0100");
}

TEST(RingCounter, ShiftsUp) {
  RingFixture f;
  f.c.power_on();
  f.c.set_input(f.en, true);
  f.c.set_input(f.dir, true);
  f.preload("1000");
  f.c.step();
  EXPECT_EQ(onehot_state(f.c, f.ring), "0100");
  f.c.step();
  EXPECT_EQ(onehot_state(f.c, f.ring), "0010");
}

TEST(RingCounter, ShiftsDownAndWraps) {
  RingFixture f;
  f.c.power_on();
  f.c.set_input(f.en, true);
  f.c.set_input(f.dir, false);
  f.preload("1000");
  f.c.step();
  EXPECT_EQ(onehot_state(f.c, f.ring), "0001");
  f.c.step();
  EXPECT_EQ(onehot_state(f.c, f.ring), "0010");
}

TEST(RingCounter, AllZeroStaysAllZero) {
  // The switch-matrix test preloads all zeroes: no phase selected, and
  // shifting keeps it that way.
  RingFixture f;
  f.c.power_on();
  f.c.set_input(f.en, true);
  f.c.set_input(f.dir, true);
  f.preload("0000");
  f.c.step();
  EXPECT_EQ(onehot_state(f.c, f.ring), "0000");
}

TEST(SaturatingCounter, CountsAndSaturates) {
  Circuit c;
  const NetId inc = c.net("inc");
  const NetId rst = c.net("rst");
  c.make_input(inc);
  c.make_input(rst);
  const auto ctr = build_saturating_counter(c, "lk", 3, inc, rst);
  c.power_on();
  c.set_input(rst, true);
  c.apply_reset();
  c.set_input(rst, false);
  c.set_input(inc, true);
  for (int expected = 1; expected <= 7; ++expected) {
    c.step();
    int value = 0;
    for (std::size_t b = 0; b < 3; ++b) {
      if (c.value(ctr.q[b]) == Logic::k1) value |= 1 << b;
    }
    EXPECT_EQ(value, expected);
  }
  EXPECT_EQ(c.value(ctr.saturated), Logic::k1);
  c.step();  // must hold at 7
  int value = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    if (c.value(ctr.q[b]) == Logic::k1) value |= 1 << b;
  }
  EXPECT_EQ(value, 7);
}

TEST(SaturatingCounter, HoldsWithoutInc) {
  Circuit c;
  const NetId inc = c.net("inc");
  const NetId rst = c.net("rst");
  c.make_input(inc);
  c.make_input(rst);
  const auto ctr = build_saturating_counter(c, "lk", 3, inc, rst);
  c.power_on();
  c.set_input(rst, true);
  c.apply_reset();
  c.set_input(rst, false);
  c.set_input(inc, false);
  c.step();
  c.step();
  for (std::size_t b = 0; b < 3; ++b) EXPECT_EQ(c.value(ctr.q[b]), Logic::k0);
}

TEST(CoarseFsm, DecodesWindowComparator) {
  Circuit c;
  const NetId hi = c.net("hi");
  const NetId lo = c.net("lo");
  c.make_input(hi);
  c.make_input(lo);
  const auto fsm = build_coarse_fsm(c, "fsm", hi, lo);
  c.power_on();
  // Vc above VH: coarse step up + strong discharge.
  c.set_input(hi, true);
  c.set_input(lo, false);
  c.step();
  EXPECT_EQ(c.value(fsm.enable), Logic::k1);
  EXPECT_EQ(c.value(fsm.dir), Logic::k1);
  EXPECT_EQ(c.value(fsm.dnst), Logic::k1);
  EXPECT_EQ(c.value(fsm.upst), Logic::k0);
  // Inside window: idle.
  c.set_input(hi, false);
  c.step();
  EXPECT_EQ(c.value(fsm.enable), Logic::k0);
  EXPECT_EQ(c.value(fsm.upst), Logic::k0);
  EXPECT_EQ(c.value(fsm.dnst), Logic::k0);
  // Below VL: coarse step down + strong charge.
  c.set_input(lo, true);
  c.step();
  EXPECT_EQ(c.value(fsm.enable), Logic::k1);
  EXPECT_EQ(c.value(fsm.dir), Logic::k0);
  EXPECT_EQ(c.value(fsm.upst), Logic::k1);
}

TEST(SwitchMatrix, RoutesSelectedPhase) {
  Circuit c;
  std::vector<NetId> phases;
  std::vector<NetId> sel;
  for (int i = 0; i < 4; ++i) {
    phases.push_back(c.net(test::indexed("ph", i)));
    sel.push_back(c.net(test::indexed("s", i)));
    c.make_input(phases.back());
    c.make_input(sel.back());
  }
  const auto sm = build_switch_matrix(c, "sm", phases, sel);
  c.power_on();
  for (int i = 0; i < 4; ++i) {
    c.set_input(phases[i], i == 2);  // only phase 2 is high
    c.set_input(sel[i], false);
  }
  c.set_input(sel[2], true);
  c.settle();
  EXPECT_EQ(c.value(sm.out), Logic::k1);
  c.set_input(sel[2], false);
  c.set_input(sel[1], true);
  c.settle();
  EXPECT_EQ(c.value(sm.out), Logic::k0);
}

TEST(SwitchMatrix, NoSelectionNoClock) {
  Circuit c;
  std::vector<NetId> phases;
  std::vector<NetId> sel;
  for (int i = 0; i < 3; ++i) {
    phases.push_back(c.net(test::indexed("ph", i)));
    sel.push_back(c.net(test::indexed("s", i)));
    c.make_input(phases.back());
    c.make_input(sel.back());
    }
  const auto sm = build_switch_matrix(c, "sm", phases, sel);
  c.power_on();
  for (int i = 0; i < 3; ++i) {
    c.set_input(phases[i], true);
    c.set_input(sel[i], false);
  }
  c.settle();
  EXPECT_EQ(c.value(sm.out), Logic::k0);
}

TEST(Divider, BinaryCountSequence) {
  Circuit c;
  const auto div = build_divider(c, "dv", 3);
  c.power_on();
  for (const std::size_t f : div.flops) c.set_ff_state(f, Logic::k0);
  c.settle();
  // The MSB toggles every 4 cycles (divide by 8 overall).
  std::vector<Logic> msb;
  for (int k = 0; k < 16; ++k) {
    c.step();
    msb.push_back(c.value(div.tick));
  }
  // Counting from 0: MSB=1 for counts 4..7 and 12..15.
  for (int k = 0; k < 16; ++k) {
    const int count = k + 1;
    const bool expect_hi = (count % 8) >= 4;
    EXPECT_EQ(msb[k], from_bool(expect_hi)) << "cycle " << k;
  }
}

TEST(AlexanderPd, UpDnDecode) {
  Circuit c;
  const NetId data = c.net("data");
  const NetId edge = c.net("edge");
  c.make_input(data);
  c.make_input(edge);
  const auto pd = build_alexander_pd(c, "pd", data, edge);
  c.power_on();
  // Sequence: prev=0, cur=1 (rising data), edge sample = 0 (early clock):
  // expect UP.
  c.set_input(data, false);
  c.set_input(edge, false);
  c.step();  // cur=0
  c.step();  // prev=0
  c.set_input(data, true);
  c.set_input(edge, false);  // edge sample equals prev -> early
  c.step();
  c.settle();
  EXPECT_EQ(c.value(pd.up), Logic::k1);
  EXPECT_EQ(c.value(pd.dn), Logic::k0);
  // Late clock: edge sample equals the new symbol.
  c.power_on();
  c.set_input(data, false);
  c.set_input(edge, false);
  c.step();
  c.step();
  c.set_input(data, true);
  c.set_input(edge, true);
  c.step();
  c.settle();
  EXPECT_EQ(c.value(pd.up), Logic::k0);
  EXPECT_EQ(c.value(pd.dn), Logic::k1);
}

TEST(AlexanderPd, NoTransitionNoPump) {
  Circuit c;
  const NetId data = c.net("data");
  const NetId edge = c.net("edge");
  c.make_input(data);
  c.make_input(edge);
  const auto pd = build_alexander_pd(c, "pd", data, edge);
  c.power_on();
  c.set_input(data, true);
  c.set_input(edge, true);
  for (int k = 0; k < 4; ++k) c.step();
  EXPECT_EQ(c.value(pd.up), Logic::k0);
  EXPECT_EQ(c.value(pd.dn), Logic::k0);
}

}  // namespace
}  // namespace lsl::digital
