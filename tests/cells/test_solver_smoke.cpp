// Smoke test of the sparse-engine contract on the golden netlist: a
// warm dc_sweep of the full analog frontend must run entirely on the
// sparse path (one symbolic analysis shared by every point, zero dense
// fallbacks), and the solver.dc.* instruments must see it.
#include <gtest/gtest.h>

#include <vector>

#include "cells/link_frontend.hpp"
#include "spice/dc.hpp"
#include "spice/workspace.hpp"
#include "util/metrics.hpp"

namespace lsl::cells {
namespace {

TEST(SolverSmoke, WarmDcSweepReusesSymbolicAnalysisWithoutFallbacks) {
  LinkFrontend fe;
  spice::SolverWorkspace ws;  // private workspace: stats start at zero

  std::vector<double> points;
  for (int i = 0; i <= 20; ++i) points.push_back(1.2 * i / 20.0);

  auto& m = util::metrics();
  const auto reuse_before = m.counter("solver.dc.symbolic_reuse").value();
  const auto fallbacks_before = m.counter("solver.dc.dense_fallbacks").value();

  const auto results =
      spice::dc_sweep(fe.netlist(), fe.src_tap_main_p(), points, spice::DcOptions{}, ws);
  ASSERT_EQ(results.size(), points.size());
  for (const auto& r : results) EXPECT_TRUE(r.converged);

  // The golden netlist sits above the dense crossover: everything runs
  // sparse, against a single cached symbolic factorization.
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);
  EXPECT_GT(ws.stats().symbolic_reuse, 0u);
  EXPECT_GT(ws.stats().sparse_solves, 0u);
  EXPECT_EQ(ws.stats().dense_fallbacks, 0u);
  EXPECT_EQ(ws.stats().dense_solves, 0u);

  // The same story must be visible through the metrics registry.
  EXPECT_GT(m.counter("solver.dc.symbolic_reuse").value(), reuse_before);
  EXPECT_EQ(m.counter("solver.dc.dense_fallbacks").value(), fallbacks_before);
}

TEST(SolverSmoke, GoldenWarmStartLandsFirstTry) {
  // The campaign's fault-free warm path: re-solving the golden netlist
  // from its own converged solution. The warm-start rung must land
  // first try, with no dense fallback on the way.
  LinkFrontend fe;
  spice::SolverWorkspace ws;
  const auto cold = spice::solve_dc(fe.netlist(), {}, ws);
  ASSERT_TRUE(cold.converged);

  auto& m = util::metrics();
  const auto hits_before = m.counter("campaign.warm_start.hits").value();
  const auto rejects_before = m.counter("campaign.warm_start.rejects").value();

  const auto fallbacks_before = ws.stats().dense_fallbacks;
  ws.seed_from(cold.x);
  const auto warm = spice::solve_dc(fe.netlist(), {}, ws);
  ASSERT_TRUE(warm.converged);

  EXPECT_EQ(warm.diag.fallback, "golden-warm-start");
  EXPECT_EQ(ws.stats().dense_fallbacks, fallbacks_before);
  EXPECT_EQ(m.counter("campaign.warm_start.hits").value(), hits_before + 1);
  EXPECT_EQ(m.counter("campaign.warm_start.rejects").value(), rejects_before);
  // Warm-starting from the answer costs (far) fewer iterations.
  EXPECT_LT(warm.iterations, cold.iterations);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < cold.x.size(); ++i) {
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-9);
  }
}

}  // namespace
}  // namespace lsl::cells
