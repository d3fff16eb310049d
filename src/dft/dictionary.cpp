#include "dft/dictionary.hpp"

#include <algorithm>
#include <map>

namespace lsl::dft {

void FaultDictionary::add(DictionaryEntry entry) { entries_.push_back(std::move(entry)); }

std::vector<const DictionaryEntry*> FaultDictionary::diagnose(const std::string& observed) const {
  std::vector<const DictionaryEntry*> out;
  for (const auto& e : entries_) {
    if (e.signature == observed) out.push_back(&e);
  }
  return out;
}

FaultDictionary::Resolution FaultDictionary::resolution() const {
  Resolution r;
  r.faults = entries_.size();
  std::map<std::string, std::size_t> classes;
  for (const auto& e : entries_) {
    if (e.signature == golden_sig_) continue;  // undetected: no diagnosis
    ++r.detected;
    ++classes[e.signature];
  }
  r.classes = classes.size();
  for (const auto& [sig, count] : classes) {
    if (count == 1) ++r.uniquely_diagnosed;
    r.largest_class = std::max(r.largest_class, count);
  }
  r.avg_class_size =
      r.classes == 0 ? 0.0 : static_cast<double>(r.detected) / static_cast<double>(r.classes);
  return r;
}

FaultDictionary project_dictionary(const CampaignReport& report) {
  FaultDictionary dict;
  dict.set_golden_signature(report.golden_observed);
  for (const FaultOutcome& o : report.outcomes) dict.add({o.fault, o.observed});
  return dict;
}

FaultDictionary build_dictionary(const cells::LinkFrontend& golden,
                                 const DictionaryOptions& opts) {
  CampaignOptions full = opts;
  full.adaptive_stage_order = false;
  full.reuse_golden = false;
  return project_dictionary(run_campaign(golden, full));
}

}  // namespace lsl::dft
