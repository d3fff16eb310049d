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
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cells/link_frontend.hpp"
#include "dft/bist_test.hpp"
#include "dft/dc_test.hpp"
#include "dft/scan_test.hpp"
#include "fault/structural.hpp"

namespace lsl::dft {

/// References the signature capture needs (built once from the golden).
struct DictionaryContext {
  cells::LinkFrontend golden;         // open-loop (scan/BIST procedures)
  cells::LinkFrontend golden_closed;  // closed-loop (DC test)
  DcTestReference dc_ref;
  ScanTestReference scan_ref;
  BistTestReference bist_ref;
  bool with_toggle = true;

  explicit DictionaryContext(const cells::LinkFrontend& fe, bool with_toggle = true);
};

/// Captures the observable signature of a (faulted) frontend pair.
/// Characters: '0'/'1' = solid levels, 'w' = mid-rail (weak), '!' = a
/// non-convergent stage (itself diagnostic).
std::string capture_signature(const DictionaryContext& ctx, const cells::LinkFrontend& faulty,
                              const cells::LinkFrontend& faulty_closed);

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

struct DictionaryOptions {
  /// Cell prefixes included in the universe; the DFT observers are
  /// always excluded, as in the campaign.
  std::vector<std::string> prefixes;
  std::size_t max_faults = 0;
  bool with_toggle = true;
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Builds the dictionary over the structural fault universe (gate opens
/// use the bulk-leak variant, matching the campaign default).
FaultDictionary build_dictionary(const cells::LinkFrontend& golden,
                                 const DictionaryOptions& opts = {});

}  // namespace lsl::dft
