// The stage schedule on a fake stage runner: which (leak variant, stage)
// pairs run, in which order, under the adaptive schedule and in full
// evaluation, with the per-variant Newton budget, and the one verdict
// the two can disagree on.
#include "dft/stage_schedule.hpp"

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

namespace lsl::dft {
namespace {

using Pair = std::pair<std::size_t, Stage>;

/// The first sub-stage of each stage's run order.
constexpr std::array<SubStage, kStageCount> kFirstSub = {kSubDc, kSubCpScan, kSubBistVerdict};

/// A fake stage runner: what each (variant, stage) run records and
/// spends (by default it passes and spends nothing), the runs it was
/// asked for in order, and each variant's record so far.
struct FakeRunner {
  std::array<std::array<SubStageRecord, kStageCount>, 2> sub{};
  std::array<std::array<long, kStageCount>, 2> iterations{};
  std::vector<Pair> calls;
  VariantRecords records;

  explicit FakeRunner(std::size_t variants) {
    for (std::size_t v = 0; v < variants; ++v) {
      records.add({});
      for (const Stage s : {kStageDc, kStageScan, kStageBist}) pass(v, s);
    }
  }
  void pass(std::size_t v, Stage s) { sub[v][s] = {sub_bit(kFirstSub[s]), 0, 0}; }
  void detect(std::size_t v, Stage s) {
    sub[v][s] = {sub_bit(kFirstSub[s]), sub_bit(kFirstSub[s]), 0};
  }
  void fail(std::size_t v, Stage s) {
    sub[v][s] = {sub_bit(kFirstSub[s]), 0, sub_bit(kFirstSub[s])};
  }

  StageRun operator()(std::size_t v, Stage s) {
    calls.emplace_back(v, s);
    const SubStageRecord& r = sub[v][s];
    SubStageRecord& seen = records.slot[v];
    seen.run |= r.run;
    seen.detected |= r.detected;
    seen.failed |= r.failed;
    return {.detected = dft::detected({&r, 1}), .iterations = iterations[v][s]};
  }
};

ScheduleTally schedule(FakeRunner& fake, bool full_evaluation, long max_newton = 0) {
  return run_stage_schedule(fake.records.count, kStageCount, full_evaluation, max_newton, fake);
}

TEST(StageSchedule, OneVariantStopsAtItsFirstDetectingStage) {
  FakeRunner fake(1);
  fake.detect(0, kStageScan);
  fake.detect(0, kStageBist);
  const ScheduleTally t = schedule(fake, false);
  EXPECT_EQ(fake.calls, (std::vector<Pair>{{0, kStageDc}, {0, kStageScan}}));
  EXPECT_EQ(t.skips, 1u);
  EXPECT_FALSE(t.budget_blown);
  EXPECT_EQ(stage_result(fake.records, kStageScan), StageResult::kDetected);
  EXPECT_EQ(stage_result(fake.records, kStageBist), StageResult::kNotRun);
}

TEST(StageSchedule, OppositeLeakRunsAStageOnlyAfterTheBulkLeakDetectedIt) {
  // The opposite leak would detect at DC, but the bulk leak does not:
  // that stage's AND is false, so the opposite leak never runs it. At
  // scan only the bulk leak detects, so the fault goes on to the BIST.
  FakeRunner fake(2);
  fake.detect(1, kStageDc);
  fake.detect(0, kStageScan);
  fake.detect(0, kStageBist);
  fake.detect(1, kStageBist);
  const ScheduleTally t = schedule(fake, false);
  EXPECT_EQ(fake.calls, (std::vector<Pair>{{0, kStageDc},
                                          {0, kStageScan},
                                          {1, kStageScan},
                                          {0, kStageBist},
                                          {1, kStageBist}}));
  EXPECT_EQ(t.skips, 1u);
  EXPECT_EQ(stage_result(fake.records, kStageDc), StageResult::kPassed);
  EXPECT_EQ(stage_result(fake.records, kStageScan), StageResult::kPassed);
  EXPECT_EQ(stage_result(fake.records, kStageBist), StageResult::kDetected);
}

TEST(StageSchedule, AStageEveryVariantDetectsEndsTheFault) {
  FakeRunner fake(2);
  fake.detect(0, kStageDc);
  fake.detect(1, kStageDc);
  fake.detect(0, kStageScan);
  fake.detect(1, kStageScan);
  const ScheduleTally t = schedule(fake, false);
  EXPECT_EQ(fake.calls, (std::vector<Pair>{{0, kStageDc}, {1, kStageDc}}));
  EXPECT_EQ(t.skips, 4u);
  EXPECT_TRUE(detected(fake.records));
}

TEST(StageSchedule, FullEvaluationRunsEveryPairStageMajor) {
  for (const std::size_t variants : {1u, 2u}) {
    FakeRunner fake(variants);
    for (std::size_t v = 0; v < variants; ++v) {
      for (const Stage s : {kStageDc, kStageScan, kStageBist}) fake.detect(v, s);
    }
    const ScheduleTally t = schedule(fake, true);
    std::vector<Pair> every;
    for (const Stage s : {kStageDc, kStageScan, kStageBist}) {
      for (std::size_t v = 0; v < variants; ++v) every.emplace_back(v, s);
    }
    EXPECT_EQ(fake.calls, every) << variants << " variants";
    EXPECT_EQ(t.skips, 0u);
  }
  // Without the BIST the schedule has two stages.
  FakeRunner fake(2);
  run_stage_schedule(2, kStageBist, true, 0, fake);
  EXPECT_EQ(fake.calls.size(), 4u);
}

TEST(StageSchedule, TheNewtonBudgetIsPerVariant) {
  // Full evaluation, a budget of 10: the bulk leak spends 11 at DC and
  // runs nothing more; the opposite leak still has its own budget and
  // runs every stage (it is at 8, within it, before the BIST).
  FakeRunner fake(2);
  fake.iterations[0] = {11, 1, 1};
  fake.iterations[1] = {4, 4, 4};
  const ScheduleTally t = schedule(fake, true, 10);
  EXPECT_EQ(fake.calls, (std::vector<Pair>{{0, kStageDc},
                                          {1, kStageDc},
                                          {1, kStageScan},
                                          {1, kStageBist}}));
  EXPECT_EQ(t.iterations, (std::array<long, 2>{11, 12}));
  EXPECT_TRUE(t.budget_blown);
  EXPECT_EQ(t.skips, 0u);

  // One variant: a budget stop is not a skip, and a variant that ends
  // exactly at the budget has not blown it.
  FakeRunner one(1);
  one.iterations[0] = {6, 6, 6};
  const ScheduleTally stopped = schedule(one, false, 10);
  EXPECT_EQ(one.calls, (std::vector<Pair>{{0, kStageDc}, {0, kStageScan}}));
  EXPECT_TRUE(stopped.budget_blown);
  EXPECT_EQ(stopped.skips, 0u);
  FakeRunner exact(1);
  exact.iterations[0] = {5, 5, 0};
  const ScheduleTally at_budget = schedule(exact, false, 10);
  EXPECT_EQ(exact.calls.size(), 3u);
  EXPECT_FALSE(at_budget.budget_blown);
}

TEST(StageSchedule, AnOppositeLeakFailureWhereTheBulkLeakPassedQuarantinesOnlyInFullEvaluation) {
  // The bulk leak passes every stage; the opposite leak fails a solve
  // at scan. Full evaluation runs it there, so the fault is anomalous
  // and, with no stage detecting, quarantined. The adaptive schedule
  // never runs a stage the bulk leak passed on the opposite leak, so the
  // fault is undetected: that stage's AND is false either way.
  for (const bool full : {true, false}) {
    FakeRunner fake(2);
    fake.fail(1, kStageScan);
    schedule(fake, full);
    EXPECT_FALSE(detected(fake.records));
    EXPECT_EQ(anomalous(fake.records), full) << (full ? "full" : "adaptive");
    EXPECT_EQ(fake.records.slot[1].run != 0, full);
  }
  // Where the bulk leak detected, the opposite leak runs the stage in
  // both modes, and its failure leaves the fault anomalous in both.
  for (const bool full : {true, false}) {
    FakeRunner fake(2);
    fake.detect(0, kStageScan);
    fake.fail(1, kStageScan);
    schedule(fake, full);
    EXPECT_FALSE(detected(fake.records));
    EXPECT_TRUE(anomalous(fake.records)) << (full ? "full" : "adaptive");
  }
}

}  // namespace
}  // namespace lsl::dft
