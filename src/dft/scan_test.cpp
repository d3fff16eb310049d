#include "dft/scan_test.hpp"

#include "spice/transient.hpp"

namespace lsl::dft {

using cells::LinkFrontend;
using spice::kGround;
using spice::VSource;

CpScanSignature cp_scan_signature(const LinkFrontend& fe_in, const spice::DcOptions& solve,
                                  const spice::SolveHints* hints) {
  CpScanSignature sig;
  const double th = fe_in.spec().vdd / 2.0;
  struct Combo {
    bool up, dn, upst, dnst;
  };
  // The UP->DN ordering matters: a dead DN path leaves Vc stuck at the
  // rail the UP drive parked it at.
  const std::array<Combo, 5> combos = {Combo{false, false, false, false},
                                       {true, false, false, false},
                                       {false, true, false, false},
                                       {false, false, true, false},
                                       {false, false, false, true}};

  // One netlist per phase, built once: each combo changes only source
  // values, so every solve after the first reuses the phase's structure.
  //
  // Phase 1: scan mode, pump driven as a combinational element. The
  // loop-filter capacitor's memory is modelled as a weak holder at the
  // previous level: any working drive path (kOhm..MOhm) overrides it, a
  // dead path leaves Vc held.
  LinkFrontend drive = fe_in;
  drive.set_scan_mode(true);
  auto& drive_nl = drive.netlist();
  const auto hold_node = drive_nl.node("scan.vc_hold");
  const std::size_t v_hold = drive_nl.add("scan.v_hold", VSource{hold_node, kGround, 0.0});
  drive_nl.add("scan.r_hold", spice::Resistor{hold_node, drive.cp_ports().vc, 1e9});
  // Phase 2: scan de-asserted for one capture cycle. The cap holds Vc at
  // the driven level while the window comparator decides; model it as
  // a clamp at the reached value.
  LinkFrontend cap = fe_in;
  cap.set_scan_mode(false);
  auto& cap_nl = cap.netlist();
  const std::size_t clamp = cap_nl.add("scan.clamp_vc", VSource{cap.cp_ports().vc, kGround, 0.0});

  double vc_prev = fe_in.spec().vdd / 2.0;  // pre-test level on the cap
  for (std::size_t i = 0; i < combos.size(); ++i) {
    drive.set_pump(combos[i].up, combos[i].dn);
    drive.set_strong_pump(combos[i].upst, combos[i].dnst);
    drive_nl.set_vsource_volts(v_hold, vc_prev);
    const std::string drive_key = "scan.cp.drive." + std::to_string(i);
    spice::arm_warm_start(hints, drive_key, drive_nl);
    const auto r_drive = drive.solve(solve);
    sig.iterations += r_drive.iterations;
    if (!r_drive.converged) {
      sig.status = r_drive.status;
      return sig;  // valid stays false
    }
    spice::capture_seed(hints, drive_key, drive_nl, r_drive.x);
    const double vc_reached = drive.vc(r_drive);
    vc_prev = vc_reached;

    cap_nl.set_vsource_volts(clamp, vc_reached);
    const std::string cap_key = "scan.cp.cap." + std::to_string(i);
    spice::arm_warm_start(hints, cap_key, cap_nl);
    const auto r_cap = cap.solve(solve);
    sig.iterations += r_cap.iterations;
    if (!r_cap.converged) {
      sig.status = r_cap.status;
      return sig;
    }
    spice::capture_seed(hints, cap_key, cap_nl, r_cap.x);
    sig.window[i] = {r_cap.v(cap_nl, cap.cp_ports().cmp_hi) > th,
                     r_cap.v(cap_nl, cap.cp_ports().cmp_lo) > th};
  }
  sig.valid = true;
  return sig;
}

namespace {

/// The static scan capture on `fe`, which it puts in scan mode and
/// leaves there with data low (unless a solve fails).
ScanStaticSignature scan_static_on(LinkFrontend& fe, const spice::DcOptions& solve,
                                   const spice::SolveHints* hints) {
  ScanStaticSignature sig;
  fe.set_scan_mode(true);
  fe.set_data(true, true);
  spice::arm_warm_start(hints, "scan.static.1", fe.netlist());
  const auto r1 = fe.solve(solve);
  sig.iterations += r1.iterations;
  if (!r1.converged) {
    sig.status = r1.status;
    return sig;
  }
  spice::capture_seed(hints, "scan.static.1", fe.netlist(), r1.x);
  sig.obs1 = fe.observe(r1);
  fe.set_data(false, false);
  spice::arm_warm_start(hints, "scan.static.0", fe.netlist());
  const auto r0 = fe.solve(solve);
  sig.iterations += r0.iterations;
  if (!r0.converged) {
    sig.status = r0.status;
    return sig;
  }
  spice::capture_seed(hints, "scan.static.0", fe.netlist(), r0.x);
  sig.obs0 = fe.observe(r0);
  sig.valid = true;
  return sig;
}

/// The toggling pattern on `fe`, which it puts in scan mode with data
/// low.
ToggleSignature toggle_on(LinkFrontend& fe, const ToggleOptions& opts,
                          const spice::DcOptions& solve, const spice::SolveHints* hints) {
  ToggleSignature sig;
  fe.set_scan_mode(true);
  fe.set_data(false, false);

  const auto& nl = fe.netlist();
  const double vdd = fe.spec().vdd;
  const double th = vdd / 2.0;

  // Drive the data rails with complementary square waves at the scan
  // frequency. The FFE taps and the weak-driver input all toggle.
  std::unordered_map<std::string, spice::Waveform> drives;
  const auto hi_lo = spice::square_wave(0.0, vdd, opts.scan_period);
  const auto lo_hi = spice::square_wave(vdd, 0.0, opts.scan_period);
  drives[fe.src_tap_main_p()] = hi_lo;
  drives[fe.src_drv_in_p()] = lo_hi;
  drives[fe.src_tap_main_n()] = lo_hi;
  drives[fe.src_drv_in_n()] = hi_lo;
  drives["v_tx_tap_alpha_p"] = lo_hi;  // delayed-inverted tap mirrors drv_in
  drives["v_tx_tap_alpha_n"] = hi_lo;

  // Strobe at the middle of each half period (where the tester's scan
  // flops capture). The run stops at the last strobe: nothing after it
  // is read.
  const double half = opts.scan_period / 2.0;
  std::vector<std::size_t> strobes;
  for (int c = 0; c < opts.cycles * opts.samples_per_cycle; ++c) {
    const double ts = (c + 0.5) * half * (2.0 / opts.samples_per_cycle);
    strobes.push_back(static_cast<std::size_t>(ts / opts.dt));
  }

  spice::TransientOptions topts;
  topts.t_stop = strobes.empty() ? 0.0 : static_cast<double>(strobes.back()) * opts.dt;
  topts.dt = opts.dt;
  topts.newton = solve;
  topts.probes = {nl.node_name(fe.term_ports().cmp_p_hi), nl.node_name(fe.term_ports().cmp_p_lo),
                  nl.node_name(fe.term_ports().cmp_n_hi), nl.node_name(fe.term_ports().cmp_n_lo)};
  // The transient's t=0 operating point is scan mode with data low —
  // the same state the "scan.static.0" golden seed captured.
  spice::arm_warm_start(hints, "scan.static.0", nl);
  const auto res = spice::run_transient(nl, drives, topts);
  sig.iterations += res.newton_iterations;
  if (!res.ok) {
    sig.status = res.status;
    return sig;
  }

  // Concatenate the four observer decisions at each strobe.
  const auto& t = res.time;
  for (std::size_t idx : strobes) {
    if (idx >= t.size()) idx = t.size() - 1;
    sig.data_hi.push_back(res.probe(topts.probes[0])[idx] > th);
    sig.data_hi.push_back(res.probe(topts.probes[2])[idx] > th);
    sig.data_lo.push_back(res.probe(topts.probes[1])[idx] > th);
    sig.data_lo.push_back(res.probe(topts.probes[3])[idx] > th);
  }
  sig.valid = true;
  return sig;
}

}  // namespace

ScanStaticSignature scan_static_signature(const LinkFrontend& fe, const spice::DcOptions& solve,
                                          const spice::SolveHints* hints) {
  LinkFrontend copy = fe;
  return scan_static_on(copy, solve, hints);
}

ToggleSignature toggle_signature(const LinkFrontend& fe, const ToggleOptions& opts,
                                 const spice::DcOptions& solve,
                                 const spice::SolveHints* hints) {
  LinkFrontend copy = fe;
  return toggle_on(copy, opts, solve, hints);
}

std::string signature_marks(const CpScanSignature& sig) {
  return sig.valid ? pair_marks(sig.window) : std::string(kSubStageMarkWidth[kSubCpScan], '!');
}

std::string signature_marks(const ScanStaticSignature& sig) {
  return sig.valid ? observation_marks(sig.obs1) + observation_marks(sig.obs0)
                   : std::string(kSubStageMarkWidth[kSubScanStatic], '!');
}

std::string signature_marks(const ToggleSignature& sig) {
  if (!sig.valid) return std::string(kSubStageMarkWidth[kSubToggle], '!');
  std::string marks;
  for (const bool b : sig.data_hi) marks.push_back(b ? '1' : '0');
  for (const bool b : sig.data_lo) marks.push_back(b ? '1' : '0');
  return marks;
}

namespace {

/// Records one capture as a scan sub-stage.
template <class Signature>
void record_capture(ScanTestOutcome& out, SubStage s, const Signature& sig) {
  out.iterations += sig.iterations;
  out.record(s, signature_marks(sig), sig.status);
}

}  // namespace

ScanTestOutcome run_scan_test(const LinkFrontend& fe, const ScanTestOutcome& golden,
                              const ToggleOptions& topts, const spice::DcOptions& solve,
                              const spice::SolveHints* hints, bool full_evaluation,
                              bool with_toggle) {
  ScanTestOutcome out;
  out.golden = &golden;
  record_capture(out, kSubCpScan, cp_scan_signature(fe, solve, hints));
  if (!out.stops(full_evaluation)) {
    // The static capture and the toggle share one scan-mode copy: each
    // sets only source values on it.
    LinkFrontend scan_fe = fe;
    record_capture(out, kSubScanStatic, scan_static_on(scan_fe, solve, hints));
    if (with_toggle && !out.stops(full_evaluation)) {
      record_capture(out, kSubToggle, toggle_on(scan_fe, topts, solve, hints));
    }
  }
  out.finish();
  return out;
}

}  // namespace lsl::dft
