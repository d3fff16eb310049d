#include "dft/dictionary.hpp"

#include <algorithm>
#include <map>

#include "fault/characterize.hpp"
#include "link/link.hpp"
#include "util/log.hpp"

namespace lsl::dft {

namespace {

char level_char(double volts, double vdd) {
  if (volts > 2.0 * vdd / 3.0) return '1';
  if (volts < vdd / 3.0) return '0';
  return 'w';
}

void append_observation(std::string& sig, const cells::LinkObservation& o) {
  for (std::size_t b = 0; b < cells::LinkObservation::kBitCount; ++b) {
    sig.push_back(level_char(o.volts[b], o.vdd));
  }
}

}  // namespace

DictionaryContext::DictionaryContext(const cells::LinkFrontend& fe, bool toggle)
    : golden(fe), golden_closed([&fe] {
        cells::LinkFrontendSpec spec = fe.spec();
        spec.close_coarse_loop = true;
        return cells::LinkFrontend(spec);
      }()),
      with_toggle(toggle) {
  dc_ref = dc_test_reference(golden_closed);
  scan_ref = scan_test_reference(golden, with_toggle);
  bist_ref = bist_test_reference(golden);
}

std::string capture_signature(const DictionaryContext& ctx, const cells::LinkFrontend& faulty,
                              const cells::LinkFrontend& faulty_closed) {
  std::string sig;
  sig.reserve(96);

  // --- DC test observations, both vectors, closed loop ------------------
  {
    cells::LinkFrontend fe = faulty_closed;
    for (const bool d : {true, false}) {
      fe.set_data(d, d);
      const auto r = fe.solve();
      if (!r.converged) {
        sig += "!!!!!!!!!!";
      } else {
        append_observation(sig, fe.observe(r));
      }
    }
  }

  // --- charge-pump scan captures ----------------------------------------
  {
    const CpScanSignature cp = cp_scan_signature(faulty);
    if (!cp.valid) {
      sig += "!!!!!!!!!!";
    } else {
      for (const auto& [hi, lo] : cp.window) {
        sig.push_back(hi ? '1' : '0');
        sig.push_back(lo ? '1' : '0');
      }
    }
  }

  // --- static scan observations ------------------------------------------
  {
    const ScanStaticSignature st = scan_static_signature(faulty);
    if (!st.valid) {
      sig += "!!!!!!!!!!!!!!!!!!!!";
    } else {
      append_observation(sig, st.obs1);
      append_observation(sig, st.obs0);
    }
  }

  // --- toggle-test strobes -------------------------------------------------
  if (ctx.with_toggle) {
    const ToggleSignature tog = toggle_signature(faulty);
    if (!tog.valid) {
      sig += "!";
    } else {
      for (const bool b : tog.data_hi) sig.push_back(b ? '1' : '0');
      for (const bool b : tog.data_lo) sig.push_back(b ? '1' : '0');
    }
  }

  // --- CP-BIST post-lock readout + BIST verdict ----------------------------
  {
    bool any_fail = false;
    for (const double vc : cp_bist_vc_levels()) {
      bool hi = false;
      bool lo = false;
      if (!read_cp_bist_bits(faulty, vc, hi, lo)) {
        sig += "!!";
        any_fail = true;
        continue;
      }
      sig.push_back(hi ? '1' : '0');
      sig.push_back(lo ? '1' : '0');
    }
    if (!any_fail) {
      const BistTestOutcome bist = run_bist_test(faulty, ctx.bist_ref);
      sig.push_back(bist.verdict.locked_in_budget ? '1' : '0');
      sig.push_back(bist.verdict.lock_counter_ok ? '1' : '0');
      sig.push_back(bist.verdict.cp_bist_ok ? '1' : '0');
      sig.push_back(bist.verdict.data_ok ? '1' : '0');
    } else {
      sig += "!!!!";
    }
  }
  return sig;
}

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

FaultDictionary build_dictionary(const cells::LinkFrontend& golden,
                                 const DictionaryOptions& opts) {
  DictionaryContext ctx(golden, opts.with_toggle);
  FaultDictionary dict;
  dict.set_golden_signature(capture_signature(ctx, ctx.golden, ctx.golden_closed));

  auto faults = fault::enumerate_structural_faults(golden.netlist(), opts.prefixes,
                                                 fault::test_circuitry_prefixes());
  if (opts.max_faults != 0 && faults.size() > opts.max_faults) faults.resize(opts.max_faults);

  const auto vdd_open = *ctx.golden.netlist().find_node("vdd");
  const auto vdd_closed = *ctx.golden_closed.netlist().find_node("vdd");

  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (opts.progress) opts.progress(i, faults.size());
    const auto& f = faults[i];
    cells::LinkFrontend faulty = ctx.golden;
    cells::LinkFrontend faulty_closed = ctx.golden_closed;
    const auto leak = f.needs_leak_variants() ? fault::bulk_leak(ctx.golden.netlist(), f)
                                              : fault::OpenLeak::kToGround;
    if (!fault::inject(faulty.netlist(), f, leak, vdd_open) ||
        !fault::inject(faulty_closed.netlist(), f, leak, vdd_closed)) {
      util::log_error("dictionary: failed to inject " + f.describe());
      continue;
    }
    dict.add({f, capture_signature(ctx, faulty, faulty_closed)});
  }
  return dict;
}

}  // namespace lsl::dft
