#include "dft/bist_test.hpp"

namespace lsl::dft {

namespace {

constexpr std::uint64_t kBistSeed = 0xb157;

lsl::link::LinkParams with_preload(lsl::link::LinkParams p) {
  // The BIST procedure scan-preloads the ring counter far from the lock
  // point so that coarse acquisition, the lock detector and the PD all
  // get exercised (a lucky power-on phase would mask dead-loop faults).
  p.phase0 = 5;
  p.vc0 = 0.6;
  return p;
}

}  // namespace

const std::array<double, 3>& cp_bist_vc_levels() {
  static const std::array<double, 3> kLevels = {0.45, 0.6, 0.75};
  return kLevels;
}

namespace {

/// Adds the "bist.clamp_vc" VSource on Vc to `fe`; returns its index.
std::size_t add_bist_clamp(cells::LinkFrontend& fe) {
  return fe.netlist().add("bist.clamp_vc",
                          spice::VSource{fe.cp_ports().vc, spice::kGround, 0.0});
}

/// read_cp_bist_bits on a frontend that already carries the clamp, as
/// the next solve of `chain`.
bool read_clamped_bits(cells::LinkFrontend& fe, std::size_t clamp, double vc, bool& hi,
                       bool& lo, const spice::DcOptions& solve, spice::SolveStatus* status,
                       long* iterations, spice::SeedChain& chain) {
  auto& nl = fe.netlist();
  nl.set_vsource_volts(clamp, vc);
  chain.arm("bist.vc." + std::to_string(vc), nl);
  const auto r = fe.solve(solve);
  chain.record(nl, r.converged, r.x);
  if (status) *status = r.status;
  if (iterations) *iterations += r.iterations;
  if (!r.converged) return false;
  const double th = fe.spec().vdd / 2.0;
  hi = r.v(nl, fe.cp_ports().bist_hi) > th;
  lo = r.v(nl, fe.cp_ports().bist_lo) > th;
  return true;
}

}  // namespace

bool read_cp_bist_bits(const cells::LinkFrontend& fe_in, double vc, bool& hi, bool& lo,
                       const spice::DcOptions& solve, spice::SolveStatus* status,
                       long* iterations, const spice::SolveHints* hints) {
  cells::LinkFrontend fe = fe_in;
  const std::size_t clamp = add_bist_clamp(fe);
  spice::SeedChain chain(hints);
  return read_clamped_bits(fe, clamp, vc, hi, lo, solve, status, iterations, chain);
}

namespace {

/// Strobes the CP-BIST readout at each Vc level, on one clamped copy of
/// `fe_in` as one chain of solves (spice/seed.hpp), and records it as
/// one kSubCpBistRead observation ('!!' for a level that failed to
/// solve), stopping at the first failed level unless `full_evaluation`.
void record_cp_bist_readout(StageOutcome& out, const cells::LinkFrontend& fe_in,
                            const spice::DcOptions& solve, const spice::SolveHints* hints,
                            bool full_evaluation) {
  cells::LinkFrontend fe = fe_in;
  const std::size_t clamp = add_bist_clamp(fe);
  spice::SeedChain chain(hints);
  std::string marks;
  bool failed = false;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  for (const double vc : cp_bist_vc_levels()) {
    if (failed && !full_evaluation) break;
    bool hi = false;
    bool lo = false;
    if (read_clamped_bits(fe, clamp, vc, hi, lo, solve, failed ? nullptr : &status,
                          &out.iterations, chain)) {
      marks += {hi ? '1' : '0', lo ? '1' : '0'};
    } else {
      marks += "!!";
      failed = true;
    }
  }
  out.record(kSubCpBistRead, marks, status);
}

}  // namespace

BistTestReference bist_test_reference(const cells::LinkFrontend& golden,
                                      const lsl::link::LinkParams& base,
                                      const spice::SolveHints* hints) {
  BistTestReference ref;
  ref.golden = fault::measure_frontend(golden, {}, hints);
  ref.base = with_preload(base);
  if (ref.golden.converged) {
    lsl::link::Link link(ref.base);
    ref.verdict = link.run_bist(kBistSeed);
    ref.outcome.record(kSubBistVerdict, signature_marks(ref.verdict), ref.golden.status);
    record_cp_bist_readout(ref.outcome, golden, {}, hints, false);
  } else {
    ref.outcome.record(kSubBistVerdict, std::string(kSubStageMarkWidth[kSubBistVerdict], '!'),
                       ref.golden.status);
  }
  ref.outcome.finish();
  ref.valid = !ref.outcome.anomalous() && ref.verdict.pass();
  return ref;
}

std::string signature_marks(const lsl::link::BistVerdict& v) {
  const auto m = [](bool flag) { return flag ? '1' : '0'; };
  return {m(v.locked_in_budget), m(v.lock_counter_ok), m(v.cp_bist_ok), m(v.data_ok)};
}

BistTestOutcome run_bist_test(const cells::LinkFrontend& fe, const BistTestReference& ref,
                              const spice::DcOptions& solve, const spice::SolveHints* hints,
                              bool full_evaluation, lsl::link::EyeMemo* eyes) {
  BistTestOutcome out;
  out.golden = &ref.outcome;
  const fault::FrontendMeasurements m = fault::measure_frontend(fe, solve, hints);
  out.iterations += m.iterations;
  const fault::BehavioralSignature sig = fault::derive_signature(ref.golden, m);
  // A faulted circuit without a workable operating point the solver can
  // find has no trustworthy verdict either way: the campaign layer
  // quarantines it instead of claiming a detection.
  if (sig.characterized) {
    lsl::link::Link link(fault::apply_signature(ref.base, sig));
    out.record(kSubBistVerdict, signature_marks(link.run_bist(kBistSeed, eyes)), sig.status);
  } else {
    out.record(kSubBistVerdict, std::string(kSubStageMarkWidth[kSubBistVerdict], '!'),
               sig.status);
  }

  // Post-lock structural readout of the CP-BIST comparator (Fig 9): the
  // balance node must track Vc across the window, so the readout strobes
  // several locked Vc levels on the faulted netlist. A verdict that
  // detected or failed already decides the stage (stage_result), so
  // the readout then runs in full evaluation only.
  if (!out.stops(full_evaluation)) {
    record_cp_bist_readout(out, fe, solve, hints, full_evaluation);
  }
  out.finish();
  return out;
}

}  // namespace lsl::dft
