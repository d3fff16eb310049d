// Referees for the reproduced science: a 4-thread run compared, line by
// line, with the references pinned under perfbench/refs (read-only; the
// directory comes in as LSL_PERFBENCH_REFS_DIR). The fault dictionary's
// golden line and first 40 signatures (fault 38 is a cold solve that
// exhausts the DC ladder), and Table I in both gate-open conventions:
// every verdict, every per-class line and the totals. A mismatch names
// the first differing line (the fault) and its first differing field.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dft/campaign.hpp"
#include "dft/dictionary.hpp"
#include "pinned_lines.hpp"
#include "util/jsonl.hpp"

namespace lsl::dft {
namespace {

std::vector<std::string> pinned_lines(const std::string& file, const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& line : util::read_lines(std::string(LSL_PERFBENCH_REFS_DIR) + "/" + file)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

TEST(PinnedReference, DictionaryFirstFortyFaults) {
  constexpr std::size_t kFaults = 40;
  DictionaryOptions opts;
  opts.num_threads = 4;
  opts.max_faults = kFaults;
  const FaultDictionary dict = build_dictionary(cells::LinkFrontend(), opts);

  std::vector<std::string> pinned = pinned_lines("fault_dictionary.ref", "golden ");
  const auto faults = pinned_lines("fault_dictionary.ref", "fault ");
  ASSERT_GE(faults.size(), kFaults);
  pinned.insert(pinned.end(), faults.begin(), faults.begin() + kFaults);

  std::vector<std::string> got = {"golden " + dict.golden_signature()};
  for (std::size_t i = 0; i < dict.entries().size(); ++i) {
    const DictionaryEntry& e = dict.entries()[i];
    got.push_back(line("fault %zu %s %s %s", i, e.fault.device.c_str(),
                       fault::fault_class_name(e.fault.cls).c_str(), e.signature.c_str()));
  }
  EXPECT_TRUE(matches_pinned(pinned, got));
}

TEST(PinnedReference, TableOneBothConventions) {
  const cells::LinkFrontend golden;
  for (const char* convention : {"bulk-leak", "pessimistic"}) {
    CampaignOptions opts;
    opts.num_threads = 4;
    opts.pessimistic_gate_opens = std::string(convention) == "pessimistic";
    const CampaignReport r = run_campaign(golden, opts);

    std::vector<std::string> got;
    for (const FaultOutcome& o : r.outcomes) {
      got.push_back(line("%s fault %zu %s %s %s", convention, o.index, o.fault.device.c_str(),
                         fault::fault_class_name(o.fault.cls).c_str(),
                         fault_verdict_name(o.verdict).c_str()));
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

    const std::string c = convention;
    std::vector<std::string> pinned = pinned_lines("table1_campaign.ref", c + " fault ");
    for (const char* kind : {" class ", " total "}) {
      const auto more = pinned_lines("table1_campaign.ref", c + kind);
      pinned.insert(pinned.end(), more.begin(), more.end());
    }
    ASSERT_EQ(pinned.size(), 303u + fault::kAllFaultClasses.size() + 1u) << convention;
    EXPECT_TRUE(matches_pinned(pinned, got)) << convention;
  }
}

}  // namespace
}  // namespace lsl::dft
