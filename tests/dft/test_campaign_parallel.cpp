// Differential regression tests for the parallel campaign executor:
// the same bounded fault universe run at num_threads 1, 2, and 4 must
// produce identical reports — verdict partition, coverage figures, and
// canonical (index-ordered, timing-free) JSONL — with or without a
// finite per-fault Newton budget.
#include "dft/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "spice/workspace.hpp"

namespace lsl::dft {
namespace {

class ParallelCampaignFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new cells::LinkFrontend();
    serial_ = new CampaignReport(run_campaign(*golden_, small_opts(1)));
  }
  static void TearDownTestSuite() {
    delete serial_;
    serial_ = nullptr;
    delete golden_;
    golden_ = nullptr;
  }

  /// Small universe (TX cells), DC and scan stages: seconds, not
  /// minutes, and fully deterministic.
  static CampaignOptions small_opts(std::size_t threads) {
    CampaignOptions opts;
    opts.prefixes = {"tx."};
    opts.with_bist = false;
    opts.with_scan_toggle = false;
    opts.max_faults = 8;
    opts.num_threads = threads;
    return opts;
  }

  static void expect_identical(const CampaignReport& a, const CampaignReport& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      const FaultOutcome& x = a.outcomes[i];
      const FaultOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.fault.device, y.fault.device);
      EXPECT_EQ(x.fault.cls, y.fault.cls);
      EXPECT_EQ(x.record, y.record) << x.fault.describe();
      EXPECT_EQ(x.verdict, y.verdict) << x.fault.describe();
      EXPECT_EQ(x.newton_iterations, y.newton_iterations) << x.fault.describe();
    }
    EXPECT_EQ(a.anomalous, b.anomalous);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.total.cum_dc.detected, b.total.cum_dc.detected);
    EXPECT_EQ(a.total.cum_scan.detected, b.total.cum_scan.detected);
    EXPECT_EQ(a.total.cum_all.detected, b.total.cum_all.detected);
    EXPECT_EQ(a.total.cum_all.total, b.total.cum_all.total);
    EXPECT_EQ(a.per_class.size(), b.per_class.size());
    // The strongest form: the canonical serialization is byte-identical.
    EXPECT_EQ(report_canonical_jsonl(a), report_canonical_jsonl(b));
  }

  static cells::LinkFrontend* golden_;
  static CampaignReport* serial_;  // reference run at num_threads = 1
};

cells::LinkFrontend* ParallelCampaignFixture::golden_ = nullptr;
CampaignReport* ParallelCampaignFixture::serial_ = nullptr;

TEST_F(ParallelCampaignFixture, ThreadCountsOneTwoFourAreBitExact) {
  for (const std::size_t threads : {2u, 4u}) {
    const CampaignReport parallel = run_campaign(*golden_, small_opts(threads));
    ASSERT_TRUE(parallel.complete);
    expect_identical(*serial_, parallel);
    EXPECT_EQ(parallel.exec.threads_used, threads);
    EXPECT_EQ(parallel.exec.per_worker_faults.size(), threads);
    const std::size_t fresh =
        std::accumulate(parallel.exec.per_worker_faults.begin(),
                        parallel.exec.per_worker_faults.end(), std::size_t{0});
    EXPECT_EQ(fresh, parallel.outcomes.size());
    EXPECT_GT(parallel.exec.wall_clock_sec, 0.0);
    EXPECT_GT(parallel.exec.fault_cpu_sec, 0.0);
  }
}

TEST_F(ParallelCampaignFixture, SerialExecStatsRecorded) {
  EXPECT_EQ(serial_->exec.threads_used, 1u);
  ASSERT_EQ(serial_->exec.per_worker_faults.size(), 1u);
  EXPECT_EQ(serial_->exec.per_worker_faults[0], serial_->outcomes.size());
  EXPECT_GT(serial_->exec.wall_clock_sec, 0.0);
}

TEST_F(ParallelCampaignFixture, FiniteNewtonBudgetIsByteIdenticalAtOneAndFourThreads) {
  // The median per-fault Newton count of an unlimited run, as the
  // budget, blows for some faults and not for others. DC detects every
  // driver fault and none of the pull-down's, so a pull-down fault whose
  // DC stage alone passes the budget skips its scan stage and is
  // quarantined. Iterations are counted, not timed, so where the budget
  // blows — and every verdict that follows — is the same at any width.
  CampaignOptions opts = small_opts(1);
  opts.prefixes = {"tx.p.m_drvp", "cp.m_pulln"};
  opts.max_faults = 0;
  std::vector<long> newton;
  for (const FaultOutcome& o : run_campaign(*golden_, opts).outcomes) {
    newton.push_back(o.newton_iterations);
  }
  std::sort(newton.begin(), newton.end());
  opts.max_newton_per_fault = newton[newton.size() / 2];
  const CampaignReport serial = run_campaign(*golden_, opts);
  std::size_t blown = 0;
  for (const FaultOutcome& o : serial.outcomes) blown += o.budget_blown;
  EXPECT_GT(blown, 0u);
  EXPECT_LT(blown, serial.outcomes.size());
  EXPECT_GT(serial.quarantined, 0u);
  opts.num_threads = 4;
  expect_identical(serial, run_campaign(*golden_, opts));
}

TEST_F(ParallelCampaignFixture, ProgressSerializedAtFourThreads) {
  // The threading contract: the callback fires from worker threads but
  // is serialized, so an unsynchronized counter in it must end up
  // exactly at the call count (TSan-visible race otherwise).
  CampaignOptions opts = small_opts(4);
  std::size_t progress_calls = 0;  // deliberately NOT atomic
  opts.progress = [&progress_calls](std::size_t, std::size_t) { ++progress_calls; };
  const CampaignReport report = run_campaign(*golden_, opts);
  EXPECT_EQ(progress_calls, report.outcomes.size());
  expect_identical(*serial_, report);
}

TEST_F(ParallelCampaignFixture, CampaignRunsOnTheSparseEngine) {
  // The frontend netlist sits well above the dense crossover, so a
  // campaign must be served overwhelmingly by the sparse path, with
  // cached symbolic analyses reused across faults. Fault circuits that
  // mix short and open conductances can defeat the no-pivot
  // factorization (a pivot reject fails that Newton iteration as
  // singular) or its accuracy (the KCL exit check refuses the
  // iterate), but they must stay a small minority. A serial run
  // executes on this thread, so its tls() workspace is ours.
  auto& ws = spice::SolverWorkspace::tls();
  const auto before = ws.stats();
  const CampaignReport report = run_campaign(*golden_, small_opts(1));
  ASSERT_TRUE(report.complete);
  const auto after = ws.stats();
  const auto sparse = after.sparse_solves - before.sparse_solves;
  const auto rejects = (after.pivot_rejects - before.pivot_rejects) +
                       (after.kcl_rejects - before.kcl_rejects);
  EXPECT_GT(sparse, 0u);
  EXPECT_GT(after.symbolic_reuse, before.symbolic_reuse);
  EXPECT_LT(rejects * 10, sparse) << "pivot and KCL rejects should be <10% of sparse solves";
  expect_identical(*serial_, report);
}

TEST_F(ParallelCampaignFixture, SparseAndForcedDenseEnginesAgreeOnEveryVerdict) {
  // Differential check of the two solver engines end to end: forcing
  // every linear solve onto the dense reference path must reproduce the
  // same detection story. (Engines agree to solver tolerance, not to
  // the last bit, so this compares verdicts and coverage — the
  // byte-identity contract applies within one engine, and is covered by
  // the thread-count tests above.)
  auto& tuning = spice::solver_tuning();
  const spice::SolverTuning saved = tuning;
  tuning.force_dense = true;
  for (const std::size_t threads : {1u, 4u}) {
    const CampaignReport dense = run_campaign(*golden_, small_opts(threads));
    EXPECT_TRUE(dense.complete);
    ASSERT_EQ(dense.outcomes.size(), serial_->outcomes.size());
    for (std::size_t i = 0; i < dense.outcomes.size(); ++i) {
      const FaultOutcome& s = serial_->outcomes[i];
      const FaultOutcome& d = dense.outcomes[i];
      EXPECT_EQ(s.index, d.index);
      for (const Stage stage : {kStageDc, kStageScan, kStageBist}) {
        EXPECT_EQ(stage_result(s.record, stage), stage_result(d.record, stage))
            << s.fault.describe();
      }
      EXPECT_EQ(s.verdict, d.verdict) << s.fault.describe();
    }
    EXPECT_EQ(dense.total.cum_all.detected, serial_->total.cum_all.detected);
    EXPECT_EQ(dense.total.cum_all.total, serial_->total.cum_all.total);
  }
  tuning = saved;
}

TEST(CanonicalJson, StripsElapsedOnly) {
  FaultOutcome o;
  o.fault.device = "tx.m1";
  o.fault.cls = fault::FaultClass::kDrainOpen;
  o.index = 3;
  o.record.add({sub_bit(kSubDc), sub_bit(kSubDc), 0});
  o.verdict = FaultVerdict::kDetected;
  o.elapsed_sec = 1.2345;
  o.newton_iterations = 42;
  const std::string canon = outcome_canonical_json(o);
  EXPECT_NE(canon.find("\"elapsed_sec\":0"), std::string::npos) << canon;
  EXPECT_NE(canon.find("\"newton_iterations\":42"), std::string::npos) << canon;
  FaultOutcome other = o;
  other.elapsed_sec = 99.0;
  EXPECT_EQ(canon, outcome_canonical_json(other));
}

}  // namespace
}  // namespace lsl::dft
