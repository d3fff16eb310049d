// Smoke test of the sparse-engine contract on the golden netlist: a
// warm dc_sweep of the full analog frontend must share one symbolic
// analysis across every point, with no pivot or KCL rejects, and the
// solver.dc.* instruments must see it. A small serial fault campaign
// checks the same on faulted copies, and small ladders check that
// every netlist size solves on the sparse engine.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cells/link_frontend.hpp"
#include "dft/campaign.hpp"
#include "spice/dc.hpp"
#include "spice/workspace.hpp"
#include "support/names.hpp"
#include "util/metrics.hpp"

namespace lsl::cells {
namespace {

constexpr std::array<const char*, 4> kRejectCounters = {
    "solver.dc.pivot_rejects", "solver.dc.kcl_rejects", "solver.transient.pivot_rejects",
    "solver.transient.kcl_rejects"};

TEST(SolverSmoke, WarmDcSweepReusesSymbolicAnalysisWithoutFallbacks) {
  LinkFrontend fe;
  spice::SolverWorkspace ws;  // private workspace: stats start at zero

  std::vector<double> points;
  for (int i = 0; i <= 20; ++i) points.push_back(1.2 * i / 20.0);

  auto& m = util::metrics();
  const auto reuse_before = m.counter("solver.dc.symbolic_reuse").value();
  const auto pivot_before = m.counter("solver.dc.pivot_rejects").value();
  const auto kcl_before = m.counter("solver.dc.kcl_rejects").value();

  const auto results =
      spice::dc_sweep(fe.netlist(), fe.src_tap_main_p(), points, spice::DcOptions{}, ws);
  ASSERT_EQ(results.size(), points.size());
  for (const auto& r : results) EXPECT_TRUE(r.converged);

  // Every point runs against a single cached symbolic factorization.
  EXPECT_EQ(ws.stats().symbolic_builds, 1u);
  EXPECT_GT(ws.stats().symbolic_reuse, 0u);
  EXPECT_GT(ws.stats().sparse_solves, 0u);
  EXPECT_EQ(ws.stats().pivot_rejects, 0u);
  EXPECT_EQ(ws.stats().kcl_rejects, 0u);

  // The same story must be visible through the metrics registry.
  EXPECT_GT(m.counter("solver.dc.symbolic_reuse").value(), reuse_before);
  EXPECT_EQ(m.counter("solver.dc.pivot_rejects").value(), pivot_before);
  EXPECT_EQ(m.counter("solver.dc.kcl_rejects").value(), kcl_before);
}

TEST(SolverSmoke, EveryNetlistSizeSolvesOnTheSparseEngine) {
  // One engine at every size: a current-driven resistor ladder of 1 to
  // 15 unknowns counts one sparse solve per Newton iteration, in the
  // workspace and in the solver.dc.* instruments.
  auto& m = util::metrics();
  for (std::size_t n = 1; n < 16; ++n) {
    SCOPED_TRACE(testing::Message() << n << " unknowns");
    spice::Netlist nl;
    spice::NodeId prev = nl.node("n0");
    nl.add("i_in", spice::ISource{spice::kGround, prev, 100e-6});
    nl.add("rg0", spice::Resistor{prev, spice::kGround, 10e3});
    for (std::size_t k = 1; k < n; ++k) {
      const spice::NodeId cur = nl.node(test::indexed("n", k));
      nl.add(test::indexed("r", k), spice::Resistor{prev, cur, 1e3});
      nl.add(test::indexed("rg", k), spice::Resistor{cur, spice::kGround, 10e3});
      prev = cur;
    }
    ASSERT_EQ(nl.unknown_count(), n);

    spice::SolverWorkspace ws;
    const auto sparse_before = m.counter("solver.dc.sparse_solves").value();
    const auto newton_before = m.counter("solver.dc.newton_iterations").value();
    const auto r = spice::solve_dc(nl, {}, ws);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.iterations, 0);
    EXPECT_EQ(ws.stats().sparse_solves, static_cast<std::uint64_t>(r.iterations));
    EXPECT_EQ(m.counter("solver.dc.sparse_solves").value() - sparse_before,
              m.counter("solver.dc.newton_iterations").value() - newton_before);
  }
}

TEST(SolverSmoke, GoldenWarmStartLandsFirstTry) {
  // The campaign's fault-free warm path: re-solving the golden netlist
  // from its own converged solution. The warm-start rung must land
  // first try, with no pivot or KCL reject on the way. Both solves stop
  // at 1 nV, so the two results agree to 1e-9.
  LinkFrontend fe;
  spice::SolverWorkspace ws;
  spice::DcOptions opts;
  opts.abs_tol = 1e-9;
  const auto cold = spice::solve_dc(fe.netlist(), opts, ws);
  ASSERT_TRUE(cold.converged);

  auto& m = util::metrics();
  const auto hits_before = m.counter("campaign.warm_start.hits").value();
  const auto rejects_before = m.counter("campaign.warm_start.rejects").value();

  const auto pivot_before = ws.stats().pivot_rejects;
  const auto kcl_before = ws.stats().kcl_rejects;
  ws.seed_from(cold.x);
  const auto warm = spice::solve_dc(fe.netlist(), opts, ws);
  ASSERT_TRUE(warm.converged);

  EXPECT_EQ(warm.diag.fallback, "golden-warm-start");
  EXPECT_EQ(ws.stats().pivot_rejects, pivot_before);
  EXPECT_EQ(ws.stats().kcl_rejects, kcl_before);
  EXPECT_EQ(m.counter("campaign.warm_start.hits").value(), hits_before + 1);
  EXPECT_EQ(m.counter("campaign.warm_start.rejects").value(), rejects_before);
  // Warm-starting from the answer costs (far) fewer iterations.
  EXPECT_LT(warm.iterations, cold.iterations);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < cold.x.size(); ++i) {
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-9);
  }
}

TEST(SolverSmoke, SerialTxCampaignRunsWithoutPivotOrKclRejects) {
  // The fault-campaign workload of bench/perf_engines: serial, tx.
  // faults, DC and static scan only. Every DC and transient linear
  // solve on the faulted frontends must factor above the pivot floor,
  // and every Newton exit must pass the KCL check first time.
  LinkFrontend golden;
  dft::CampaignOptions opts;
  opts.prefixes = {"tx."};
  opts.with_bist = false;
  opts.with_scan_toggle = false;
  opts.max_faults = 8;
  opts.num_threads = 1;

  auto& m = util::metrics();
  std::vector<std::int64_t> rejects_before;
  for (const char* c : kRejectCounters) rejects_before.push_back(m.counter(c).value());
  const auto sparse_before = m.counter("solver.dc.sparse_solves").value();

  const auto report = dft::run_campaign(golden, opts);
  ASSERT_EQ(report.outcomes.size(), 8u);

  EXPECT_GT(m.counter("solver.dc.sparse_solves").value(), sparse_before);
  for (std::size_t k = 0; k < kRejectCounters.size(); ++k) {
    EXPECT_EQ(m.counter(kRejectCounters[k]).value(), rejects_before[k]) << kRejectCounters[k];
  }
}

}  // namespace
}  // namespace lsl::cells
