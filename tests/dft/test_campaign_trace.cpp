// Observability must never perturb campaign results: a campaign run
// with tracing + detailed metrics timing enabled produces the exact
// same canonical JSONL as one with observability off. Also covers the
// exec-stats additions (metrics snapshot, steal counts, optional
// speedup).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dft/campaign.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace lsl::dft {
namespace {

/// Same bounded fault universe as the parallel differential tests:
/// TX cells, DC and scan stages — fully deterministic.
CampaignOptions small_opts(std::size_t threads) {
  CampaignOptions opts;
  opts.prefixes = {"tx."};
  opts.with_bist = false;
  opts.with_scan_toggle = false;
  opts.max_faults = 8;
  opts.num_threads = threads;
  return opts;
}

TEST(CampaignTrace, TracingOnAndOffYieldByteIdenticalCanonicalReports) {
  const cells::LinkFrontend golden;

  const CampaignReport plain = run_campaign(golden, small_opts(2));

  util::Tracer::instance().start();
  util::Metrics::set_detailed_timing(true);
  const CampaignReport traced = run_campaign(golden, small_opts(2));
  util::Metrics::set_detailed_timing(false);
  util::Tracer::instance().stop();

  EXPECT_EQ(report_canonical_jsonl(plain), report_canonical_jsonl(traced));

#if LSL_TRACE_ENABLED
  // The traced run actually recorded spans (per-fault + campaign).
  const auto events = util::Tracer::instance().drain();
  EXPECT_FALSE(events.empty());
  bool saw_fault_span = false;
  for (const auto& e : events) {
    if (std::string(e.name) == "fault") saw_fault_span = true;
  }
  EXPECT_TRUE(saw_fault_span);
#endif
}

TEST(CampaignTrace, ExecStatsCarryMetricsSnapshotAndStealCounts) {
  const cells::LinkFrontend golden;
  const CampaignReport report = run_campaign(golden, small_opts(4));

  EXPECT_FALSE(report.exec.metrics_json.empty());
  EXPECT_NE(report.exec.metrics_json.find("campaign.faults"), std::string::npos);
  EXPECT_NE(report.exec.metrics_json.find("solver.dc.newton_per_solve"), std::string::npos);

  // One steal counter per pool worker; total matches the sum.
  EXPECT_EQ(report.exec.per_worker_steals.size(), report.exec.threads_used);
  std::size_t total = 0;
  for (const std::size_t s : report.exec.per_worker_steals) total += s;
  EXPECT_EQ(report.exec.steals, total);

  // Fresh faults were simulated, so Newton work was recorded and the
  // cpu-over-wall speedup is measurable.
  EXPECT_GT(report.exec.newton_iterations, 0);
  EXPECT_TRUE(report.exec.speedup().has_value());
}

TEST(CampaignTrace, SerialPathHasNoPoolAndNoSteals) {
  const cells::LinkFrontend golden;
  const CampaignReport report = run_campaign(golden, small_opts(1));
  EXPECT_EQ(report.exec.per_worker_steals, std::vector<std::size_t>{0});
  EXPECT_EQ(report.exec.steals, 0u);
  EXPECT_FALSE(report.exec.metrics_json.empty());
}

TEST(CampaignTrace, SpeedupIsAbsentWhenNothingWasMeasured) {
  const CampaignExecStats empty;
  EXPECT_FALSE(empty.speedup().has_value());

  CampaignExecStats no_faults;  // a campaign over zero faults: wall time but no fault CPU
  no_faults.wall_clock_sec = 1.0;
  no_faults.fault_cpu_sec = 0.0;
  EXPECT_FALSE(no_faults.speedup().has_value());

  CampaignExecStats measured;
  measured.wall_clock_sec = 2.0;
  measured.fault_cpu_sec = 6.0;
  ASSERT_TRUE(measured.speedup().has_value());
  EXPECT_DOUBLE_EQ(*measured.speedup(), 3.0);
}

}  // namespace
}  // namespace lsl::dft
