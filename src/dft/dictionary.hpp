// Fault dictionary and diagnosis.
//
// Detection asks "is the part bad?"; diagnosis asks "which defect is
// it?" — the question failure analysis puts to the same DFT hardware.
// For every structural fault the dictionary records the full observable
// signature across the paper's three test stages (every comparator bit
// of both DC vectors, the charge-pump scan captures, the toggle-test
// strobes, the post-lock CP-BIST readout, and the BIST verdict flags).
// Faults with identical signatures form an equivalence class: the
// diagnosis resolution of the DFT.
//
// The dictionary is a projection of a full-evaluation fault campaign:
// each signature is the campaign's FaultOutcome::observed (see
// dft/stage_outcome.hpp for the marks); the dictionary injects and
// simulates no fault itself.
#pragma once

#include <string>
#include <vector>

#include "cells/link_frontend.hpp"
#include "dft/bist_test.hpp"
#include "dft/campaign.hpp"
#include "fault/structural.hpp"

namespace lsl::dft {

/// The golden frontends and the BIST reference. Nothing in the library
/// uses it; it is kept for the benchmark program (perfbench/), which
/// builds it as its set-up and calls the public signature functions.
struct DictionaryContext {
  cells::LinkFrontend golden;         // open-loop (scan/BIST procedures)
  cells::LinkFrontend golden_closed;  // closed-loop (DC test)
  BistTestReference bist_ref;
  bool with_toggle = true;

  explicit DictionaryContext(const cells::LinkFrontend& fe, bool toggle = true)
      : golden(fe), golden_closed([&fe] {
          cells::LinkFrontendSpec spec = fe.spec();
          spec.close_coarse_loop = true;
          return cells::LinkFrontend(spec);
        }()),
        bist_ref(bist_test_reference(golden)),
        with_toggle(toggle) {}
};

struct DictionaryEntry {
  fault::StructuralFault fault;
  std::string signature;
};

class FaultDictionary {
 public:
  void add(DictionaryEntry entry);

  const std::vector<DictionaryEntry>& entries() const { return entries_; }
  /// Signature of the fault-free machine (for "no defect found").
  void set_golden_signature(std::string sig) { golden_sig_ = std::move(sig); }
  const std::string& golden_signature() const { return golden_sig_; }

  /// All faults whose recorded signature matches an observed one.
  std::vector<const DictionaryEntry*> diagnose(const std::string& observed) const;

  struct Resolution {
    std::size_t faults = 0;            // dictionary size
    std::size_t detected = 0;          // signature differs from golden
    std::size_t classes = 0;           // distinct signatures among detected
    std::size_t uniquely_diagnosed = 0;  // classes of size 1
    std::size_t largest_class = 0;
    double avg_class_size = 0.0;
  };
  Resolution resolution() const;

 private:
  std::vector<DictionaryEntry> entries_;
  std::string golden_sig_;
};

/// The dictionary's options are the campaign's (prefixes, max_faults,
/// with_scan_toggle, num_threads, progress, ...).
using DictionaryOptions = CampaignOptions;

/// The dictionary of a campaign report: one entry per outcome, in index
/// order, signed with FaultOutcome::observed; the golden signature is
/// the report's golden_observed. Complete signatures need a
/// full-evaluation report (adaptive_stage_order = false).
FaultDictionary project_dictionary(const CampaignReport& report);

/// Runs the campaign in full evaluation (adaptive_stage_order forced
/// off) with cold starts (reuse_golden forced off: every signature is
/// the one a cold-started solve of that fault observes) and projects
/// the dictionary. Gate opens use the bulk-leak variant unless
/// opts.pessimistic_gate_opens.
FaultDictionary build_dictionary(const cells::LinkFrontend& golden,
                                 const DictionaryOptions& opts = {});

}  // namespace lsl::dft
