// The pinned full-evaluation record: for each gate-open convention, a
// 4-thread full-evaluation campaign (adaptive_stage_order off, every
// other option at its default) compared, line by line, with
// full_evaluation_record.ref next to this file: the golden machine's
// `observed`, then per fault its index, device, class, verdict, each
// leak variant's sub-stage record (run/detected/failed sub_bit masks)
// and `observed`. No costs are pinned. Every paper figure below is then
// a projection of that pinned record alone.
//
// A mismatch names the first differing fault and field, and every run
// writes what it produced to full_evaluation_record.produced in the
// build tree: after a deliberate change, copying that file over the
// pinned one re-pins it.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dft/campaign.hpp"
#include "pinned_lines.hpp"
#include "util/jsonl.hpp"

namespace lsl::dft {
namespace {

const std::string kPinned = std::string(LSL_TEST_DATA_DIR) + "/full_evaluation_record.ref";
const std::string kProduced =
    std::string(LSL_TEST_OUTPUT_DIR) + "/full_evaluation_record.produced";
constexpr std::array<const char*, 2> kConventions = {"bulk-leak", "pessimistic"};

/// The record file's header, written into every produced copy.
constexpr const char* kHeader =
    "# Full-evaluation record, per gate-open convention: a 4-thread campaign\n"
    "# with adaptive_stage_order off and every other option at its default.\n"
    "# '<convention> golden <golden_observed>', then per fault\n"
    "# '<convention> fault <index> <device> <class> <verdict> <record>... <observed>'\n"
    "# with one '<run>/<detected>/<failed>' record (decimal sub_bit masks, bit s =\n"
    "# SubStage s: dc, cp-scan, scan-static, toggle, cp-bist-read, bist-verdict)\n"
    "# per simulated leak variant, the bulk leak's first. No costs are pinned.\n";

/// Ceilings on each convention's Newton iterations summed over the
/// faults of its campaign below (golden runs excluded, folded collapse
/// members counted with their representative's count): the count with
/// the golden predictor and every measurement chain of spice/seed.hpp
/// (205,011 and 229,741), plus 5.17%.
/// Per-fault counts do not depend on the thread count, so a solver
/// change that costs iterations, or a predictor that stops applying,
/// fails here without timing noise.
constexpr std::array<long, 2> kNewtonCeiling = {215610, 241619};

/// Field names of a fault line, for mismatch messages.
constexpr std::array<const char*, 8> kFieldNames = {
    "convention", "kind", "index", "device", "class", "verdict", "first record",
    "second record or observed"};

std::vector<std::string> record_lines(const char* convention, const CampaignReport& r) {
  std::vector<std::string> out = {std::string(convention) + " golden " + r.golden_observed};
  for (const FaultOutcome& o : r.outcomes) {
    std::string l = line("%s fault %zu %s %s %s", convention, o.index, o.fault.device.c_str(),
                         fault::fault_class_name(o.fault.cls).c_str(),
                         fault_verdict_name(o.verdict).c_str());
    for (const SubStageRecord& v : o.record) l += line(" %u/%u/%u", v.run, v.detected, v.failed);
    out.push_back(l + " " + o.observed);
  }
  return out;
}

std::vector<std::string> pinned_record_lines(const char* convention) {
  std::vector<std::string> out;
  for (const auto& l : util::read_lines(kPinned)) {
    if (l.rfind(std::string(convention) + " ", 0) == 0) out.push_back(l);
  }
  return out;
}

/// The pinned record of one convention as a report: its outcomes rebuilt
/// from the fault lines, with verdicts and statistics derived from the
/// records (project_report onto every sub-stage).
CampaignReport pinned_report(const char* convention) {
  CampaignReport r;
  for (const std::string& l : pinned_record_lines(convention)) {
    const std::vector<std::string> f = fields(l);
    if (f.size() == 3 && f[1] == "golden") r.golden_observed = f[2];
    if (f.size() < 8 || f[1] != "fault") continue;
    FaultOutcome o;
    o.index = std::stoul(f[2]);
    o.fault.device = f[3];
    EXPECT_TRUE(fault_class_from_name(f[4], o.fault.cls)) << l;
    EXPECT_TRUE(fault_verdict_from_name(f[5], o.verdict)) << l;
    for (std::size_t k = 6; k + 1 < f.size(); ++k) {
      SubStageRecord v;
      EXPECT_EQ(std::sscanf(f[k].c_str(), "%u/%u/%u", &v.run, &v.detected, &v.failed), 3) << l;
      o.record.add(v);
    }
    o.observed = f.back();
    r.outcomes.push_back(o);
  }
  return project_report(r, kAllSubStages);
}

std::string percent(const util::Coverage& c) { return line("%.1f", c.percent()); }

/// Cumulative DC / +scan / +BIST coverage, as the benches print it.
std::string progression(const CampaignReport& r) {
  return percent(r.total.cum_dc) + " / " + percent(r.total.cum_scan) + " / " +
         percent(r.total.cum_all);
}

TEST(PinnedReferenceRecord, FullEvaluationRecordMatchesBothConventions) {
  const cells::LinkFrontend golden;
  std::vector<std::string> produced;
  for (std::size_t c = 0; c < kConventions.size(); ++c) {
    const char* convention = kConventions[c];
    CampaignOptions opts;
    opts.num_threads = 4;
    opts.adaptive_stage_order = false;
    opts.pessimistic_gate_opens = std::string(convention) == "pessimistic";
    const CampaignReport r = run_campaign(golden, opts);
    ASSERT_TRUE(r.complete);
    long newton = 0;
    for (const FaultOutcome& o : r.outcomes) newton += o.newton_iterations;
    std::printf("[ newton   ] %s: %ld Newton iterations over the faults (ceiling %ld)\n",
                convention, newton, kNewtonCeiling[c]);
    EXPECT_LE(newton, kNewtonCeiling[c])
        << convention << ": the campaign's Newton iterations grew past the pinned ceiling";
    const std::vector<std::string> got = record_lines(convention, r);
    produced.insert(produced.end(), got.begin(), got.end());
    EXPECT_TRUE(matches_pinned(pinned_record_lines(convention), got, kFieldNames))
        << convention << "; the produced record is " << kProduced
        << " (copy it over " << kPinned << " to re-pin)";
    // Each gate open's bulk leak runs first, so the bulk-leak record is
    // a projection of the pessimistic one.
    EXPECT_TRUE(matches_pinned(
        pinned_record_lines("bulk-leak"),
        record_lines("bulk-leak",
                     project_report(r, kAllSubStages, GateOpenConvention::kBulkLeak)),
        kFieldNames))
        << convention << ": its bulk-leak projection is not the pinned bulk-leak record";
  }
  std::ofstream out(kProduced);
  out << kHeader;
  for (const std::string& l : produced) out << l << '\n';
  EXPECT_TRUE(out.good()) << "could not write " << kProduced;
}

TEST(PinnedReferenceRecord, VerdictsAreProjectionsOfTheRecords) {
  for (const char* convention : kConventions) {
    std::vector<FaultVerdict> pinned;
    for (const std::string& l : pinned_record_lines(convention)) {
      const std::vector<std::string> f = fields(l);
      if (f[1] != "fault") continue;
      pinned.push_back(FaultVerdict::kUndetected);
      ASSERT_TRUE(fault_verdict_from_name(f[5], pinned.back())) << l;
    }
    const CampaignReport r = pinned_report(convention);
    ASSERT_EQ(r.outcomes.size(), 303u) << convention;
    ASSERT_EQ(pinned.size(), r.outcomes.size()) << convention;
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      EXPECT_EQ(r.outcomes[i].verdict, pinned[i]) << convention << " fault " << i;
    }
  }
}

TEST(PinnedReferenceRecord, TableOneFromTheRecord) {
  // The per-class and total Table-I lines of perfbench/refs, which the
  // default (adaptive) campaign also reproduces.
  for (const char* convention : kConventions) {
    const CampaignReport r = pinned_report(convention);
    std::vector<std::string> got;
    std::vector<std::string> pinned;
    for (const auto& l : util::read_lines(std::string(LSL_PERFBENCH_REFS_DIR) +
                                          "/table1_campaign.ref")) {
      const std::string c = convention;
      if (l.rfind(c + " class ", 0) == 0 || l.rfind(c + " total ", 0) == 0) pinned.push_back(l);
    }
    for (const fault::FaultClass cls : fault::kAllFaultClasses) {
      const auto it = r.per_class.find(cls);
      const ClassStats st = it == r.per_class.end() ? ClassStats{} : it->second;
      got.push_back(line("%s class %s %zu/%zu quarantined %zu", convention,
                         fault::fault_class_name(cls).c_str(), st.cum_all.detected,
                         st.cum_all.total, st.quarantined));
    }
    got.push_back(line("%s total %zu/%zu quarantined %zu", convention, r.total.cum_all.detected,
                       r.total.cum_all.total, r.quarantined));
    EXPECT_TRUE(matches_pinned(pinned, got)) << convention;
  }
  EXPECT_EQ(pinned_report("bulk-leak").total.cum_all.detected, 255u);
  EXPECT_EQ(pinned_report("pessimistic").total.cum_all.detected, 240u);
  EXPECT_EQ(pinned_report("pessimistic").total.cum_all.total, 303u);
}

TEST(PinnedReferenceRecord, SectionFourProgressionFromTheRecord) {
  EXPECT_EQ(progression(pinned_report("bulk-leak")), "26.7 / 66.0 / 84.2");
}

TEST(PinnedReferenceRecord, ScanBistRelationFromTheRecord) {
  std::size_t scan_only = 0;
  std::size_t bist_only = 0;
  std::size_t both = 0;
  for (const FaultOutcome& o : pinned_report("bulk-leak").outcomes) {
    const bool scan = stage_result(o.record, kStageScan) == StageResult::kDetected;
    const bool bist = stage_result(o.record, kStageBist) == StageResult::kDetected;
    scan_only += scan && !bist;
    bist_only += bist && !scan;
    both += scan && bist;
  }
  EXPECT_EQ(scan_only, 95u);
  EXPECT_EQ(bist_only, 55u);
  EXPECT_EQ(both, 105u);
}

TEST(PinnedReferenceRecord, AblationsFromTheRecord) {
  const CampaignReport bulk = pinned_report("bulk-leak");
  EXPECT_EQ(progression(project_report(bulk, kAllSubStages & ~sub_bit(kSubToggle))),
            "26.7 / 62.0 / 82.2");
  EXPECT_EQ(progression(project_report(bulk, kAllSubStages & ~kBistSubStages)),
            "26.7 / 66.0 / 66.0");
  EXPECT_EQ(progression(pinned_report("pessimistic")), "25.4 / 62.4 / 79.2");
}

}  // namespace
}  // namespace lsl::dft
