// Sparse-engine tests: CSR/symbolic-LU units, checks against the dense
// referee (tests/support) on randomized fixed-seed netlists,
// symbolic-cache invalidation across every supported mutation path,
// and the zero-allocation guarantee of the warm Newton inner loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/dc.hpp"
#include "spice/sparse.hpp"
#include "spice/stamp.hpp"
#include "spice/transient.hpp"
#include "spice/workspace.hpp"
#include "support/dense_referee.hpp"
#include "util/rng.hpp"

// Global allocation counter: every operator new in this test binary
// funnels through here, so a warm Newton loop can be asserted
// allocation-free without any instrumentation in the solver itself.
namespace {
std::atomic<long> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
// Out of line, so GCC cannot inline free() into a delete that it then
// pairs with an inlined new and flags as -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lsl::spice {
namespace {

/// Same generators as test_invariants.cpp: fixed-seed random RC ladder.
Netlist make_random_rc(util::Pcg32& rng, std::size_t n_nodes) {
  Netlist nl;
  const NodeId vin = nl.node("in");
  nl.add("vin", VSource{vin, kGround, rng.next_range(0.3, 1.2)});
  NodeId prev = vin;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const NodeId cur = nl.node("n" + std::to_string(i));
    nl.add("r" + std::to_string(i), Resistor{prev, cur, rng.next_range(100.0, 10e3)});
    if (rng.next_bool()) {
      nl.add("rg" + std::to_string(i), Resistor{cur, kGround, rng.next_range(1e3, 100e3)});
    }
    nl.add("c" + std::to_string(i), Capacitor{cur, kGround, rng.next_range(0.1e-12, 5e-12)});
    prev = cur;
  }
  return nl;
}

/// Fixed-seed random MOSFET chain (nonlinear: exercises the split
/// linear/nonlinear stamping, not just the linear base).
Netlist make_random_mos(util::Pcg32& rng, std::size_t n_stages) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  nl.add("v_vdd", VSource{vdd, kGround, 1.2});
  const NodeId in = nl.node("g0");
  nl.add("v_in", VSource{in, kGround, rng.next_range(0.0, 1.2)});
  NodeId gate = in;
  for (std::size_t s = 0; s < n_stages; ++s) {
    const NodeId out = nl.node("o" + std::to_string(s));
    const double w = rng.next_range(0.2e-6, 2.0e-6);
    const double l = rng.next_range(0.2e-6, 1.0e-6);
    const double r_load = rng.next_range(1e3, 50e3);
    if (rng.next_bool()) {
      nl.add("mn" + std::to_string(s), Mosfet{out, gate, kGround, MosType::kNmos, w, l, 0.0});
      nl.add("rl" + std::to_string(s), Resistor{out, vdd, r_load});
    } else {
      nl.add("mp" + std::to_string(s), Mosfet{out, gate, vdd, MosType::kPmos, w, l, 0.0});
      nl.add("rl" + std::to_string(s), Resistor{out, kGround, r_load});
    }
    gate = out;
  }
  return nl;
}

/// Fixed-seed netlist covering every case of the branch/terminal
/// pairing (sparse.hpp): a grounded source (pairs p), two sources on
/// one node (the second pairs n), floating sources (neither terminal
/// ground), a source whose terminals are both already paired (stays
/// in the branch block), and a Vcvs driving a MOSFET gate. The source
/// graph is a forest, so the system is nonsingular.
Netlist make_random_sources(util::Pcg32& rng) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId x = nl.node("x");
  const NodeId u = nl.node("u");
  const NodeId y = nl.node("y");
  const NodeId w = nl.node("w");
  const NodeId e = nl.node("e");
  const NodeId z = nl.node("z");
  const NodeId o = nl.node("o");
  const NodeId out = nl.node("out");
  nl.add("v_vdd", VSource{vdd, kGround, 1.2});
  nl.add("v_xu", VSource{x, u, rng.next_range(-0.5, 0.5)});   // floating, pairs x
  nl.add("v_yw", VSource{y, w, rng.next_range(-0.5, 0.5)});   // floating, pairs y
  nl.add("v_xy", VSource{x, y, rng.next_range(-0.5, 0.5)});   // both taken: unpaired
  nl.add("v_e", VSource{e, kGround, rng.next_range(0.0, 1.2)});
  nl.add("v_ez", VSource{e, z, rng.next_range(-0.3, 0.3)});   // p taken: pairs n
  nl.add("e_amp", Vcvs{o, kGround, u, kGround, rng.next_range(0.5, 2.0)});
  nl.add("r_x", Resistor{x, vdd, rng.next_range(1e3, 100e3)});
  nl.add("r_u", Resistor{u, kGround, rng.next_range(1e3, 100e3)});
  nl.add("r_w", Resistor{w, kGround, rng.next_range(1e3, 100e3)});
  nl.add("r_z", Resistor{z, kGround, rng.next_range(1e3, 100e3)});
  nl.add("mn", Mosfet{out, o, kGround, MosType::kNmos, rng.next_range(0.2e-6, 2.0e-6),
                      rng.next_range(0.2e-6, 1.0e-6), 0.0});
  nl.add("r_load", Resistor{out, vdd, rng.next_range(1e3, 50e3)});
  return nl;
}

// --- SparseMatrix / SparseLu units ------------------------------------

TEST(SparseEngine, PatternDedupesAndSortsSlots) {
  SparseMatrix m;
  m.begin_pattern(3);
  m.note(0, 2);
  m.note(0, 2);  // duplicate folds into one slot
  m.note(2, 0);
  m.finalize_pattern();
  // 3 diagonal slots + (0,2) + (2,0).
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_NE(m.slot(0, 2), kNoSlot);
  EXPECT_NE(m.slot(2, 0), kNoSlot);
  EXPECT_EQ(m.slot(1, 2), kNoSlot);
  // Row 0 slots are column-sorted: diagonal before (0,2).
  EXPECT_LT(m.slot(0, 0), m.slot(0, 2));
}

TEST(SparseEngine, LuMatchesDenseOnCraftedSystem) {
  // 4x4 with an MNA-like shape: SPD-ish node block plus a voltage-source
  // branch row/column whose diagonal is a structural zero.
  //   [ 2  -1   0   1 ] [x0]   [ 0]
  //   [-1   3  -1   0 ] [x1] = [ 1]
  //   [ 0  -1   2   0 ] [x2]   [ 0]
  //   [ 1   0   0   0 ] [x3]   [ 2]
  SparseMatrix m;
  m.begin_pattern(4);
  m.note(0, 1);
  m.note(1, 0);
  m.note(1, 2);
  m.note(2, 1);
  m.note(0, 3);
  m.note(3, 0);
  m.finalize_pattern();
  m.zero();
  m.add(m.slot(0, 0), 2.0);
  m.add(m.slot(0, 1), -1.0);
  m.add(m.slot(0, 3), 1.0);
  m.add(m.slot(1, 0), -1.0);
  m.add(m.slot(1, 1), 3.0);
  m.add(m.slot(1, 2), -1.0);
  m.add(m.slot(2, 1), -1.0);
  m.add(m.slot(2, 2), 2.0);
  m.add(m.slot(3, 0), 1.0);
  const std::vector<double> b = {0.0, 1.0, 0.0, 2.0};

  Matrix d(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t s = m.slot(r, c);
      d.at(r, c) = s == kNoSlot ? 0.0 : m.values()[s];
    }
  }
  std::vector<double> x_ref;
  ASSERT_TRUE(lu_solve(d, b, x_ref));

  // Unknowns 0..2 are "node voltages", 3 is a branch. Solve with the
  // natural row order and with branch row 3 paired with node 0.
  const std::vector<std::vector<std::size_t>> row_maps = {{0, 1, 2, 3}, {3, 1, 2, 0}};
  for (const auto& row_map : row_maps) {
    SparseLu lu;
    lu.analyze(m, 3, row_map);
    ASSERT_TRUE(lu.factor(m, 1e-18));
    std::vector<double> x(4, 0.0);
    lu.solve(b, x);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-12) << "unknown " << i << ", row 0 from " << row_map[0];
    }
  }
}

TEST(SparseEngine, FactorRejectsSingularMatrix) {
  // Two identical rows -> exactly singular.
  SparseMatrix m;
  m.begin_pattern(2);
  m.note(0, 1);
  m.note(1, 0);
  m.finalize_pattern();
  m.zero();
  m.add(m.slot(0, 0), 1.0);
  m.add(m.slot(0, 1), 1.0);
  m.add(m.slot(1, 0), 1.0);
  m.add(m.slot(1, 1), 1.0);
  SparseLu lu;
  lu.analyze(m, 2, {0, 1});
  EXPECT_FALSE(lu.factor(m, 1e-18));
}

TEST(SparseEngine, ResidualWalkMatchesDenseDefinition) {
  util::Pcg32 rng(7);
  const Netlist nl = make_random_mos(rng, 3);
  StampContext ctx;
  ctx.nl = &nl;
  std::vector<double> x(nl.unknown_count());
  for (auto& v : x) v = rng.next_range(-0.5, 1.5);

  // Reference: dense stamp + full row sweep (the pre-sparse definition).
  Matrix g;
  std::vector<double> b;
  stamp_system(ctx, x, g, b);
  const std::size_t n = nl.unknown_count();
  const std::vector<double> r = mna_residual(ctx, x);
  ASSERT_EQ(r.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -b[i];
    for (std::size_t j = 0; j < n; ++j) acc += g.at(i, j) * x[j];
    EXPECT_NEAR(r[i], acc, 1e-12 + 1e-9 * std::fabs(acc)) << "row " << i;
  }
}

// --- the dense referee -------------------------------------------------

TEST(SparseEngine, DcSolutionsMatchDenseOnRandomNetlists) {
  // From solve_dc's answer, one Newton step on the dense referee's own
  // stamp and LU moves no unknown by more than 1 µV (Newton's stop), and
  // the referee's KCL rows balance.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Pcg32 rng_a(seed);
    util::Pcg32 rng_b(seed);
    const Netlist nl_rc = make_random_rc(rng_a, 4 + seed % 8);
    const Netlist nl_mos = make_random_mos(rng_b, 2 + seed % 4);
    util::Pcg32 rng_c(seed);
    const Netlist nl_src = make_random_sources(rng_c);
    for (const Netlist* nl : {&nl_rc, &nl_mos, &nl_src}) {
      SolverWorkspace ws;
      const DcResult r = solve_dc(*nl, {}, ws);
      ASSERT_TRUE(r.converged) << "seed " << seed;
      EXPECT_EQ(ws.stats().sparse_solves, static_cast<std::uint64_t>(r.iterations));
      EXPECT_EQ(ws.stats().pivot_rejects, 0u) << "seed " << seed;
      EXPECT_EQ(ws.stats().kcl_rejects, 0u) << "seed " << seed;
      StampContext ctx;  // solve_dc's final system: gmin_final, full scale
      ctx.nl = nl;
      ctx.gmin = DcOptions{}.gmin_final;
      EXPECT_LE(dense_newton_step(ctx, r.x), 1e-6) << "seed " << seed;
      EXPECT_TRUE(kcl_balanced(ctx, r.x)) << "seed " << seed;
    }
  }
}

TEST(SparseEngine, ZeroVoltSourceSolvesExactlyWithoutRejects) {
  // A 0-V source to ground drives a resistor and a MOSFET gate. Its
  // branch row reads x_g = 0; unless the LU pivots x_g on that row, the
  // gate voltage comes out as ±1e-16 V of roundoff, a relative residual
  // of 1.0 on the branch row.
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId g = nl.node("g");
  const NodeId a = nl.node("a");
  const NodeId out = nl.node("out");
  nl.add("v_vdd", VSource{vdd, kGround, 1.2});
  nl.add("v_g", VSource{g, kGround, 0.0});
  nl.add("r_ga", Resistor{g, a, 10e3});
  nl.add("r_a", Resistor{a, vdd, 10e3});
  nl.add("c_a", Capacitor{a, kGround, 5e-15});
  nl.add("mn", Mosfet{out, g, kGround, MosType::kNmos, 1e-6, 0.2e-6, 0.0});
  nl.add("mp", Mosfet{out, g, vdd, MosType::kPmos, 2e-6, 0.2e-6, 0.0});
  nl.add("r_load", Resistor{out, kGround, 20e3});
  nl.add("c_out", Capacitor{out, kGround, 10e-15});

  SolverWorkspace ws;
  const DcResult dc = solve_dc(nl, {}, ws);
  ASSERT_TRUE(dc.converged);
  EXPECT_EQ(dc.v(nl, "g"), 0.0);
  EXPECT_GT(ws.stats().sparse_solves, 0u);
  EXPECT_EQ(ws.stats().pivot_rejects, 0u);
  EXPECT_EQ(ws.stats().kcl_rejects, 0u);

  TransientOptions topts;
  topts.t_stop = 2e-9;
  topts.dt = 0.1e-9;
  const TransientResult tr = run_transient(
      nl, {{"v_vdd", pwl_wave({{0.0, 0.0}, {1e-9, 1.2}})}}, topts, ws);
  ASSERT_TRUE(tr.ok);
  EXPECT_GT(tr.steps_accepted, 0u);
  EXPECT_EQ(ws.stats().pivot_rejects, 0u);
  EXPECT_EQ(ws.stats().kcl_rejects, 0u);
}

TEST(SparseEngine, WarmSolveBitIdenticalToCold) {
  util::Pcg32 rng(42);
  const Netlist nl = make_random_mos(rng, 4);

  SolverWorkspace cold;
  const DcResult first = solve_dc(nl, {}, cold);
  ASSERT_TRUE(first.converged);

  // Same workspace, now warm: every cache hits, and the numbers must be
  // EXACTLY the bits of the cold solve (caches only skip work that
  // would have produced identical values).
  const DcResult warm = solve_dc(nl, {}, cold);
  ASSERT_TRUE(warm.converged);
  EXPECT_GT(cold.stats().symbolic_reuse, 0u);
  ASSERT_EQ(first.x.size(), warm.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i) {
    EXPECT_EQ(first.x[i], warm.x[i]) << "unknown " << i;
  }
  EXPECT_EQ(first.iterations, warm.iterations);
}

/// True when `a` and `b` hold exactly the same bits.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A MOSFET chain with a current source on one output: every RHS kind
/// the device tables carry (capacitor companions, V and I sources).
Netlist make_sourced_mos(double amps, double vin) {
  util::Pcg32 rng(21);
  Netlist nl = make_random_mos(rng, 4);
  nl.set_vsource_volts(*nl.find_device("v_in"), vin);
  nl.add("i_o1", ISource{nl.node("o1"), kGround, amps});
  nl.add("c_o2", Capacitor{nl.node("o2"), kGround, 20e-15});
  return nl;
}

TEST(SparseEngine, HashEqualNetlistsShareAnEntryButNotTheirSourceValues) {
  // Source values are not part of the structural key, so these two
  // netlists share one cache entry; each must still solve with its own
  // values, exactly as a cold workspace does.
  const Netlist a = make_sourced_mos(20e-6, 0.3);
  const Netlist b = make_sourced_mos(-35e-6, 0.9);
  SolverWorkspace warm;
  const DcResult ra = solve_dc(a, {}, warm);
  const DcResult rb = solve_dc(b, {}, warm);
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  EXPECT_EQ(warm.stats().symbolic_builds, 1u);

  SolverWorkspace cold;
  const DcResult rb_cold = solve_dc(b, {}, cold);
  EXPECT_TRUE(same_bits(rb.x, rb_cold.x));
  EXPECT_EQ(rb.iterations, rb_cold.iterations);
  EXPECT_FALSE(same_bits(ra.x, rb.x));
}

TEST(SparseEngine, SetVsourceVoltsBetweenSolvesIsSeenByTheWarmEntry) {
  Netlist nl = make_sourced_mos(10e-6, 0.2);
  SolverWorkspace warm;
  ASSERT_TRUE(solve_dc(nl, {}, warm).converged);
  nl.set_vsource_volts(*nl.find_device("v_in"), 1.1);  // keeps the generation
  const DcResult after = solve_dc(nl, {}, warm);
  ASSERT_TRUE(after.converged);
  EXPECT_EQ(warm.stats().symbolic_builds, 1u);

  SolverWorkspace cold;
  const DcResult after_cold = solve_dc(nl, {}, cold);
  EXPECT_TRUE(same_bits(after.x, after_cold.x));
  EXPECT_EQ(after.iterations, after_cold.iterations);
}

TEST(SparseEngine, CacheInvalidatedByMosfetWidthEdit) {
  // MOSFET parameters live in the entry's device table, so a width edit
  // through device() must reach a fresh entry.
  Netlist nl = make_sourced_mos(10e-6, 0.7);
  SolverWorkspace warm;
  const DcResult before = solve_dc(nl, {}, warm);
  ASSERT_TRUE(before.converged);
  const auto di = nl.find_device("mn1") ? nl.find_device("mn1") : nl.find_device("mp1");
  std::get<Mosfet>(nl.device(*di).impl).w *= 3.0;
  const DcResult after = solve_dc(nl, {}, warm);
  ASSERT_TRUE(after.converged);
  EXPECT_EQ(warm.stats().symbolic_builds, 2u);
  EXPECT_FALSE(same_bits(before.x, after.x));

  SolverWorkspace cold;
  const DcResult after_cold = solve_dc(nl, {}, cold);
  EXPECT_TRUE(same_bits(after.x, after_cold.x));
  EXPECT_EQ(after.iterations, after_cold.iterations);
}

TEST(SparseEngine, WarmTrapezoidalTransientBitIdenticalToCold) {
  // Drive overrides, capacitor history currents and the MOSFET tables
  // together, on a workspace warmed by a backward-Euler run.
  const Netlist nl = make_sourced_mos(5e-6, 0.0);
  TransientOptions topts;
  topts.t_stop = 3e-9;
  topts.dt = 0.05e-9;
  const std::unordered_map<std::string, Waveform> drives = {
      {"v_in", pwl_wave({{0.0, 0.0}, {1e-9, 1.2}, {2e-9, 0.3}})},
      {"v_vdd", pwl_wave({{0.0, 1.0}, {0.5e-9, 1.2}})}};

  SolverWorkspace warm;
  ASSERT_TRUE(run_transient(nl, drives, topts, warm).ok);
  topts.integrator = Integrator::kTrapezoidal;
  const TransientResult warm_run = run_transient(nl, drives, topts, warm);
  SolverWorkspace cold;
  const TransientResult cold_run = run_transient(nl, drives, topts, cold);
  ASSERT_TRUE(warm_run.ok);
  ASSERT_TRUE(cold_run.ok);
  EXPECT_EQ(warm_run.newton_iterations, cold_run.newton_iterations);
  for (const auto& [name, samples] : cold_run.v) {
    EXPECT_TRUE(same_bits(warm_run.probe(name), samples)) << name;
  }
}

// --- symbolic cache invalidation --------------------------------------

TEST(SparseEngine, CacheInvalidatedByAddDevice) {
  util::Pcg32 rng(5);
  Netlist nl = make_random_rc(rng, 5);
  SolverWorkspace ws;

  ASSERT_TRUE(solve_dc(nl, {}, ws).converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);
  ASSERT_TRUE(solve_dc(nl, {}, ws).converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);  // reused
  EXPECT_GT(ws.stats().symbolic_reuse, 0u);

  nl.add("r_extra", Resistor{nl.node("n0"), nl.node("n3"), 2e3});
  ASSERT_TRUE(solve_dc(nl, {}, ws).converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 2u);
}

TEST(SparseEngine, CacheInvalidatedByEnabledToggle) {
  util::Pcg32 rng(6);
  Netlist nl = make_random_rc(rng, 5);
  SolverWorkspace ws;

  const DcResult before = solve_dc(nl, {}, ws);
  ASSERT_TRUE(before.converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);

  const auto di = nl.find_device("c2");
  ASSERT_TRUE(di.has_value());
  nl.device(*di).enabled = false;  // non-const access refreshes generation
  const DcResult after = solve_dc(nl, {}, ws);
  ASSERT_TRUE(after.converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 2u);
}

TEST(SparseEngine, CacheInvalidatedByFaultStyleFreshNodeEdit) {
  util::Pcg32 rng(8);
  Netlist nl = make_random_rc(rng, 6);
  SolverWorkspace ws;
  ASSERT_TRUE(solve_dc(nl, {}, ws).converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);

  // Series-open style fault edit: splice a fresh node into a resistor.
  const auto di = nl.find_device("r2");
  ASSERT_TRUE(di.has_value());
  const NodeId mid = nl.fresh_node("open_r2");
  auto& r2 = std::get<Resistor>(nl.device(*di).impl);
  const NodeId old_b = r2.b;
  r2.b = mid;
  nl.add("r2_open", Resistor{mid, old_b, 1e9});

  const DcResult after = solve_dc(nl, {}, ws);
  ASSERT_TRUE(after.converged);
  EXPECT_EQ(ws.stats().symbolic_builds, 2u);
}

TEST(SparseEngine, DcSweepSharesOneSymbolicFactorization) {
  util::Pcg32 rng(9);
  const Netlist nl = make_random_rc(rng, 6);
  SolverWorkspace ws;

  std::vector<double> points;
  for (int i = 0; i <= 20; ++i) points.push_back(0.05 * i);
  const auto sweep = dc_sweep(nl, "vin", points, {}, ws);
  ASSERT_EQ(sweep.size(), points.size());
  for (const auto& r : sweep) ASSERT_TRUE(r.converged);
  // dc_sweep copies the netlist once; every point mutates the source
  // value through the generation-preserving setter, so the whole sweep
  // is served by a single symbolic analysis.
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);
  EXPECT_GT(ws.stats().symbolic_reuse, 0u);
  EXPECT_EQ(ws.stats().pivot_rejects, 0u);
}

TEST(SparseEngine, ContinuationsEndOnTheRequestedSystem) {
  // A 10-V divider from a flat start: the ladder's first rung is gmin
  // stepping, which reaches 10 V at 0.4 V per iteration in one go when
  // the budget allows (27 iterations), else source stepping takes ten
  // 1-V steps (6 iterations each). Either continuation must end on the
  // requested system, gmin_final at full scale: the result is a fixed
  // point of a plain Newton re-solve, the pivoted source node reads
  // 10 V exactly, and the re-solve reuses the linear base the last
  // continuation level left (a level off gmin_final would rebuild it).
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId m = nl.node("m");
  nl.add("v", VSource{a, kGround, 10.0});
  nl.add("r1", Resistor{a, m, 1e3});
  nl.add("r2", Resistor{m, kGround, 3e3});
  for (const auto& [max_iterations, rung] :
       {std::pair{27, "gmin-step"}, std::pair{6, "source-step"}}) {
    SCOPED_TRACE(rung);
    SolverWorkspace ws;
    DcOptions opts;
    opts.max_iterations = max_iterations;
    const DcResult r = solve_dc(nl, opts, ws);
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(r.diag.fallback, rung);
    EXPECT_EQ(r.v(nl, "a"), 10.0);

    const auto base_builds = ws.stats().linear_stamp_builds;
    opts.initial_guess = r.x;
    const DcResult again = solve_dc(nl, opts, ws);
    ASSERT_TRUE(again.converged);
    EXPECT_EQ(again.diag.fallback, "newton");
    EXPECT_TRUE(same_bits(again.x, r.x));
    EXPECT_EQ(ws.stats().linear_stamp_builds, base_builds);
  }
}

// --- zero allocations in the warm Newton loop -------------------------

// Separate suite name: the sanitizer CI job runs the SparseEngine suite
// but skips these — allocation counts under ASan/TSan interceptors are
// not meaningful.
TEST(NewtonAllocation, WarmNewtonSolveIsAllocationFree) {
  util::Pcg32 rng(11);
  const Netlist nl = make_random_mos(rng, 4);
  SolverWorkspace ws;

  StampContext ctx;
  ctx.nl = &nl;
  std::vector<double> x(nl.unknown_count(), 0.0);
  std::vector<double> x_new;

  // Warm-up: builds the pattern, symbolic LU, linear base, and buffers.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ws.solve_newton_system(ctx, x, x_new));

  const long before = g_alloc_count.load();
  for (int i = 0; i < 50; ++i) {
    SolverWorkspace::NewtonBinding binding;
    if (!ws.solve_newton_system(ctx, binding, x, x_new)) {
      ASSERT_TRUE(false) << "solve failed on warm iteration " << i;
    }
    // Nudge the iterate so the nonlinear restamp sees fresh voltages.
    for (std::size_t k = 0; k + 1 < x.size(); ++k) x[k] = 0.9 * x[k] + 0.1 * x_new[k];
    (void)ws.kcl_satisfied(ctx, binding, x);  // Newton's exit check
  }
  const long after = g_alloc_count.load();
  EXPECT_EQ(after, before) << "warm sparse Newton iterations allocated";
  EXPECT_EQ(ws.stats().pivot_rejects, 0u);
}

// A small linear RC ladder: the size class that a separate dense path
// once handled. It now takes the same sparse workspace, which must stay
// allocation-free there too.
TEST(NewtonAllocation, WarmDensePathIsAllocationFreeToo) {
  util::Pcg32 rng(12);
  const Netlist nl = make_random_rc(rng, 5);
  SolverWorkspace ws;

  StampContext ctx;
  ctx.nl = &nl;
  std::vector<double> x(nl.unknown_count(), 0.0);
  std::vector<double> x_new;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ws.solve_newton_system(ctx, x, x_new));

  const long before = g_alloc_count.load();
  for (int i = 0; i < 50; ++i) {
    SolverWorkspace::NewtonBinding binding;
    if (!ws.solve_newton_system(ctx, binding, x, x_new)) {
      ASSERT_TRUE(false) << "solve failed on warm iteration " << i;
    }
    (void)ws.kcl_satisfied(ctx, binding, x_new);  // Newton's exit check
  }
  const long after = g_alloc_count.load();
  EXPECT_EQ(after, before) << "warm small-netlist Newton iterations allocated";
  EXPECT_GT(ws.stats().sparse_solves, 0u);
}

}  // namespace
}  // namespace lsl::spice
