// Fallback-ladder and failure-taxonomy tests: deliberately pathological
// netlists must come back with the right SolveStatus — never a throw, a
// hang, or a silent `false`.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "spice/dc.hpp"
#include "spice/matrix.hpp"
#include "spice/stamp.hpp"
#include "spice/transient.hpp"
#include "spice/workspace.hpp"

namespace lsl::spice {
namespace {

/// Three-stage CMOS inverter chain: a well-posed nonlinear circuit the
/// solver handles easily at default settings.
Netlist inverter_chain(int stages = 3) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  nl.add("v_vdd", VSource{vdd, kGround, 1.2});
  const NodeId in = nl.node("in");
  nl.add("v_in", VSource{in, kGround, 0.0});
  NodeId prev = in;
  for (int k = 0; k < stages; ++k) {
    const NodeId out = nl.node("out" + std::to_string(k));
    nl.add("mp" + std::to_string(k), Mosfet{out, prev, vdd, MosType::kPmos, 1.0e-6, 0.5e-6});
    nl.add("mn" + std::to_string(k), Mosfet{out, prev, kGround, MosType::kNmos, 0.5e-6, 0.5e-6});
    prev = out;
  }
  return nl;
}

TEST(SolverRobustness, HealthyCircuitReportsConvergedWithDiagnostics) {
  const Netlist nl = inverter_chain();
  const DcResult r = solve_dc(nl);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.status, SolveStatus::kConverged);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_GT(r.diag.iterations, 0);
  EXPECT_EQ(r.iterations, r.diag.iterations);
  // No initial guess: the ladder starts at the gmin-stepping rung.
  EXPECT_EQ(r.diag.fallback, "gmin-step");
  EXPECT_EQ(r.diag.fallback_depth, 1);
  EXPECT_LT(r.diag.final_max_dv, DcOptions{}.abs_tol);
  EXPECT_FALSE(r.diag.worst_node.empty());
}

TEST(SolverRobustness, ContradictorySourcesReportSingularMatrix) {
  // Two parallel voltage sources demanding different voltages on the
  // same node: the MNA branch rows are linearly dependent, so every
  // ladder rung hits a zero pivot. Must classify, not throw.
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add("v1", VSource{a, kGround, 1.0});
  nl.add("v2", VSource{a, kGround, 2.0});
  nl.add("r1", Resistor{a, kGround, 1e3});
  const DcResult r = solve_dc(nl);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.status, SolveStatus::kSingularMatrix);
  EXPECT_FALSE(solve_ok(r.status));
}

TEST(SolverRobustness, TightIterationBudgetReportsMaxIterations) {
  // With 2 iterations and damped steps the solver cannot move the rails
  // up to 1.2 V on any rung (heavy damping gets 6 iterations of at most
  // 0.05 V each). The ladder must exhaust and say why.
  const Netlist nl = inverter_chain();
  DcOptions opts;
  opts.max_iterations = 2;
  const DcResult r = solve_dc(nl, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(r.diag.fallback, "exhausted");
  EXPECT_GT(r.diag.iterations, 0);
}

/// Node rows of the system `ctx` stamped densely about `x` (an oracle
/// independent of the sparse workspace): true when every row balances
/// to Newton's exit bound, |r_i| <= 1e-3·Σ|terms_i| + 1e-12 A.
bool kcl_balanced(const StampContext& ctx, const std::vector<double>& x) {
  Matrix g;
  std::vector<double> b;
  stamp_system(ctx, x, g, b);
  for (std::size_t i = 0; i + 1 < ctx.nl->node_count(); ++i) {
    double r = -b[i];
    double scale = std::fabs(b[i]);
    for (std::size_t j = 0; j < x.size(); ++j) {
      r += g.at(i, j) * x[j];
      scale += std::fabs(g.at(i, j) * x[j]);
    }
    if (!(std::fabs(r) <= 1e-3 * scale + 1e-12)) return false;
  }
  return true;
}

TEST(SolverRobustness, ConvergedMeansTheRequestedToleranceWasMet) {
  // No rung may report "converged" at a looser tolerance than the caller
  // asked for: either the last Newton update is below abs_tol and the
  // result balances KCL, or the ladder ran out. Tolerances down at the
  // double-precision floor with a short budget drive the solve through
  // every rung to exhaustion.
  const Netlist nl = inverter_chain();
  StampContext ctx;  // solve_dc's final system: gmin_final, full scale
  ctx.nl = &nl;
  ctx.gmin = DcOptions{}.gmin_final;
  for (const double abs_tol : {1e-16, 3e-17, 1e-17}) {
    for (const int max_iterations : {20, 200}) {
      DcOptions opts;
      opts.abs_tol = abs_tol;
      opts.max_iterations = max_iterations;
      const DcResult r = solve_dc(nl, opts);
      SCOPED_TRACE(testing::Message() << "abs_tol " << abs_tol << ", max_iterations "
                                      << max_iterations << ", rung " << r.diag.fallback);
      if (r.converged) {
        EXPECT_LT(r.diag.final_max_dv, abs_tol);
        EXPECT_TRUE(kcl_balanced(ctx, r.x));
      } else {
        EXPECT_EQ(r.diag.fallback, "exhausted");
      }
    }
  }
}

TEST(SolverRobustness, KclExitCheckRefusesAnUnbalancedIterate) {
  // With a 10-V abs_tol the first damped update (at most 0.4 V) already
  // passes the voltage test, from a flat start far from the solution.
  // The KCL check must refuse those iterates and keep the loop going
  // until the result balances, on the dense path and the sparse one.
  const Netlist nl = inverter_chain();
  StampContext ctx;
  ctx.nl = &nl;
  const SolverTuning saved = solver_tuning();
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    solver_tuning().force_sparse = sparse;
    SolverWorkspace ws;
    DcOptions opts;
    opts.abs_tol = 10.0;
    std::vector<double> x(nl.unknown_count(), 0.0);
    SolveDiagnostics diag;
    EXPECT_EQ(newton_loop(ctx, opts, ws, x, diag), SolveStatus::kConverged);
    EXPECT_EQ(ws.stats().sparse_solves > 0, sparse);
    EXPECT_GT(ws.stats().kcl_rejects, 0u);
    EXPECT_GT(diag.iterations, 1);
    EXPECT_TRUE(kcl_balanced(ctx, x));
  }
  solver_tuning() = saved;
}

TEST(SolverRobustness, TransientStepConvergedMeansTheRequestedToleranceWasMet) {
  // The same contract for one transient step, the loop run_transient
  // runs per sub-step: from the t = 0 operating point, the input jumps
  // to 1.2 V across one 0.1 ns backward-Euler step into capacitive
  // loads. A converged step met abs_tol and balances KCL; otherwise
  // the loop ran out of iterations.
  Netlist nl = inverter_chain();
  for (int k = 0; k < 3; ++k) {
    nl.add("c" + std::to_string(k), Capacitor{*nl.find_node("out" + std::to_string(k)), kGround,
                                             5e-15});
  }
  const DcResult op = solve_dc(nl);
  ASSERT_TRUE(op.converged);
  std::vector<double> prev_node_v(nl.node_count(), 0.0);
  for (NodeId id = 1; id < nl.node_count(); ++id) prev_node_v[id] = op.v(nl, id);
  const std::vector<std::pair<std::size_t, double>> drive = {{*nl.find_device("v_in"), 1.2}};
  StampContext ctx;
  ctx.nl = &nl;
  ctx.dt = 0.1e-9;
  ctx.prev_node_v = &prev_node_v;
  ctx.vsrc_override = &drive;
  SolverWorkspace ws;
  for (const double abs_tol : {1e-16, 3e-17, 1e-17}) {
    for (const int max_iterations : {3, 20, 200}) {
      DcOptions opts;
      opts.abs_tol = abs_tol;
      opts.max_iterations = max_iterations;
      std::vector<double> x = op.x;
      SolveDiagnostics diag;
      const SolveStatus st = newton_loop(ctx, opts, ws, x, diag);
      SCOPED_TRACE(testing::Message() << "abs_tol " << abs_tol << ", max_iterations "
                                      << max_iterations << ", status " << to_string(st));
      if (st == SolveStatus::kConverged) {
        EXPECT_LT(diag.final_max_dv, abs_tol);
        EXPECT_TRUE(kcl_balanced(ctx, x));
      } else {
        EXPECT_EQ(st, SolveStatus::kMaxIterations);
      }
    }
  }
}

TEST(SolverRobustness, TransientHalvesStepsAndStaysOnGrid) {
  // A 1.2 V ramp across one 1 ns grid step with a 3-iteration Newton
  // budget: the full step needs 4 damped iterations, the halved step
  // fits. The run must succeed via sub-stepping and still sample on the
  // k*dt grid.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add("v_in", VSource{in, kGround, 0.0});
  nl.add("r1", Resistor{in, out, 1e3});
  nl.add("c1", Capacitor{out, kGround, 1e-15});

  TransientOptions opts;
  opts.t_stop = 3e-9;
  opts.dt = 1e-9;
  opts.newton.max_iterations = 3;
  opts.probes = {"in", "out"};
  const auto drive = pwl_wave({{0.0, 0.0}, {1e-9, 1.2}});
  const TransientResult res = run_transient(nl, {{"v_in", drive}}, opts);

  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, SolveStatus::kConverged);
  EXPECT_GT(res.step_halvings, 0);
  EXPECT_GT(res.steps_accepted, 3);  // more sub-steps than grid steps
  ASSERT_EQ(res.time.size(), 4u);    // t = 0, 1, 2, 3 ns exactly
  for (std::size_t k = 0; k < res.time.size(); ++k) {
    EXPECT_NEAR(res.time[k], static_cast<double>(k) * 1e-9, 1e-18);
  }
  EXPECT_NEAR(res.final_v("in"), 1.2, 1e-6);
}

TEST(SolverRobustness, UnresolvableEdgeReportsTimestepUnderflow) {
  // A vertical edge (duplicate PWL timestamps) with a 2-iteration Newton
  // budget: whatever the sub-step, some step contains the full 1.2 V
  // jump, which damped Newton cannot traverse in 2 iterations. The
  // halving ladder must bottom out and classify the failure.
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add("v_in", VSource{in, kGround, 0.0});
  nl.add("r1", Resistor{in, kGround, 1e3});

  TransientOptions opts;
  opts.t_stop = 2e-9;
  opts.dt = 1e-9;
  opts.newton.max_iterations = 2;
  opts.max_step_halvings = 4;
  opts.probes = {"in"};
  const auto drive = pwl_wave({{0.0, 0.0}, {0.5e-9, 0.0}, {0.5e-9, 1.2}, {2e-9, 1.2}});
  const TransientResult res = run_transient(nl, {{"v_in", drive}}, opts);

  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status, SolveStatus::kTimestepUnderflow);
  EXPECT_LT(res.t_reached, opts.t_stop);
  // The partial waveform up to the failure is retained.
  EXPECT_FALSE(res.time.empty());
}

TEST(SolverRobustness, StatusNamesAreStableAndDistinct) {
  // The names appear in logs and in the campaign's canonical JSONL.
  const std::vector<std::pair<SolveStatus, std::string>> names = {
      {SolveStatus::kConverged, "converged"},
      {SolveStatus::kSingularMatrix, "singular_matrix"},
      {SolveStatus::kMaxIterations, "max_iterations"},
      {SolveStatus::kTimestepUnderflow, "timestep_underflow"},
      {SolveStatus::kNonFinite, "non_finite"}};
  for (const auto& [status, name] : names) EXPECT_EQ(to_string(status), name);
}

}  // namespace
}  // namespace lsl::spice
