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

bool read_cp_bist_bits(const cells::LinkFrontend& fe_in, double vc, bool& hi, bool& lo,
                       const spice::DcOptions& solve, spice::SolveStatus* status,
                       long* iterations, const spice::SolveHints* hints) {
  cells::LinkFrontend fe = fe_in;
  auto& nl = fe.netlist();
  nl.add("bist.clamp_vc", spice::VSource{fe.cp_ports().vc, spice::kGround, vc});
  const std::string seed_key = "bist.vc." + std::to_string(vc);
  spice::arm_warm_start(hints, seed_key, nl);
  const auto r = fe.solve(solve);
  if (r.converged) spice::capture_seed(hints, seed_key, nl, r.x);
  if (status) *status = r.status;
  if (iterations) *iterations += r.iterations;
  if (!r.converged) return false;
  const double th = fe.spec().vdd / 2.0;
  hi = r.v(nl, fe.cp_ports().bist_hi) > th;
  lo = r.v(nl, fe.cp_ports().bist_lo) > th;
  return true;
}

namespace {

/// Strobes the CP-BIST comparator over the Vc levels. Returns false on
/// any non-convergence, leaving the failing status in `status`.
bool read_all_bist_bits(const cells::LinkFrontend& fe,
                        std::array<std::pair<bool, bool>, 3>& bits,
                        const spice::DcOptions& solve = {},
                        spice::SolveStatus* status = nullptr, long* iterations = nullptr,
                        const spice::SolveHints* hints = nullptr) {
  const auto& levels = cp_bist_vc_levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    bool hi = false;
    bool lo = false;
    if (!read_cp_bist_bits(fe, levels[i], hi, lo, solve, status, iterations, hints)) {
      return false;
    }
    bits[i] = {hi, lo};
  }
  return true;
}

}  // namespace

BistTestReference bist_test_reference(const cells::LinkFrontend& golden,
                                      const lsl::link::LinkParams& base,
                                      const spice::SolveHints* hints) {
  BistTestReference ref;
  ref.golden = fault::measure_frontend(golden, {}, hints);
  ref.base = with_preload(base);
  if (!ref.golden.converged) return ref;
  if (!read_all_bist_bits(golden, ref.bist_bits, {}, nullptr, nullptr, hints)) return ref;
  lsl::link::Link link(ref.base);
  ref.verdict = link.run_bist(kBistSeed);
  ref.valid = ref.verdict.pass();
  return ref;
}

BistTestOutcome run_bist_test(const cells::LinkFrontend& fe, const BistTestReference& ref,
                              const spice::DcOptions& solve, const spice::SolveHints* hints) {
  BistTestOutcome out;
  const fault::FrontendMeasurements m = fault::measure_frontend(fe, solve, hints);
  out.iterations += m.iterations;
  const fault::BehavioralSignature sig = fault::derive_signature(ref.golden, m);
  if (!sig.characterized) {
    // The faulted circuit has no workable operating point the solver can
    // find — the verdict is not trustworthy either way, so the campaign
    // layer quarantines it instead of claiming a detection.
    out.anomalous = true;
    out.status = sig.status;
    return out;
  }
  const lsl::link::LinkParams p = fault::apply_signature(ref.base, sig);
  lsl::link::Link link(p);
  out.verdict = link.run_bist(kBistSeed);
  out.detected = !out.verdict.pass();

  // Post-lock structural readout of the CP-BIST comparator (Fig 9): the
  // balance node must track Vc across the window, so the readout strobes
  // several locked Vc levels on the faulted netlist.
  std::array<std::pair<bool, bool>, 3> bits{};
  spice::SolveStatus st = spice::SolveStatus::kConverged;
  if (!read_all_bist_bits(fe, bits, solve, &st, &out.iterations, hints)) {
    out.anomalous = true;
    out.status = st;
  } else if (bits != ref.bist_bits) {
    out.detected = true;
  }
  return out;
}

}  // namespace lsl::dft
