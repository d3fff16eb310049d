#include "dft/scan_test.hpp"

#include <functional>

#include "spice/transient.hpp"
#include "spice/workspace.hpp"

namespace lsl::dft {

using cells::LinkFrontend;
using spice::kGround;
using spice::VSource;

namespace {

/// One charge-pump-scan combo's capture: the window comparator's
/// (hi, lo) decisions, or the status of the solve that failed.
struct CpComboCapture {
  std::pair<bool, bool> window;
  bool converged = true;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
};

constexpr std::size_t kCpCombos = std::tuple_size_v<decltype(CpScanSignature::window)>;

/// The charge-pump scan's one combo loop: applies the combos in
/// sequence and hands each capture to `sink(i, capture)`. It stops
/// after a combo whose solve failed (the next combo's hold level is
/// unknown), or when `sink` returns false.
void for_each_cp_combo(const LinkFrontend& fe_in, const spice::DcOptions& solve,
                       const spice::SolveHints* hints,
                       const std::function<bool(std::size_t, const CpComboCapture&)>& sink) {
  const double th = fe_in.spec().vdd / 2.0;
  struct Combo {
    bool up, dn, upst, dnst;
  };
  // The UP->DN ordering matters: a dead DN path leaves Vc stuck at the
  // rail the UP drive parked it at.
  const std::array<Combo, kCpCombos> combos = {Combo{false, false, false, false},
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
  // Each phase's solves form a chain: combo i starts from combo i - 1's
  // solution plus the golden's change (spice/seed.hpp).
  spice::SeedChain drive_chain(hints);
  spice::SeedChain cap_chain(hints);
  for (std::size_t i = 0; i < combos.size(); ++i) {
    CpComboCapture c;
    drive.set_pump(combos[i].up, combos[i].dn);
    drive.set_strong_pump(combos[i].upst, combos[i].dnst);
    drive_nl.set_vsource_volts(v_hold, vc_prev);
    drive_chain.arm("scan.cp.drive." + std::to_string(i), drive_nl);
    const auto r_drive = drive.solve(solve);
    c.iterations += r_drive.iterations;
    c.converged = r_drive.converged;
    c.status = r_drive.status;
    if (c.converged) {
      drive_chain.record(drive_nl, true, r_drive.x);
      vc_prev = drive.vc(r_drive);

      cap_nl.set_vsource_volts(clamp, vc_prev);
      cap_chain.arm("scan.cp.cap." + std::to_string(i), cap_nl);
      const auto r_cap = cap.solve(solve);
      c.iterations += r_cap.iterations;
      c.converged = r_cap.converged;
      c.status = r_cap.status;
      if (c.converged) {
        cap_chain.record(cap_nl, true, r_cap.x);
        c.window = {r_cap.v(cap_nl, cap.cp_ports().cmp_hi) > th,
                    r_cap.v(cap_nl, cap.cp_ports().cmp_lo) > th};
      }
    }
    if (!sink(i, c) || !c.converged) return;
  }
}

}  // namespace

CpScanSignature cp_scan_signature(const LinkFrontend& fe, const spice::DcOptions& solve,
                                  const spice::SolveHints* hints) {
  CpScanSignature sig;
  std::size_t captured = 0;
  for_each_cp_combo(fe, solve, hints, [&](std::size_t i, const CpComboCapture& c) {
    sig.iterations += c.iterations;
    if (!c.converged) {
      sig.status = c.status;
      return false;
    }
    sig.window[i] = c.window;
    ++captured;
    return true;
  });
  sig.valid = captured == kCpCombos;  // valid stays false after a failed solve
  return sig;
}

namespace {

/// The static scan capture on `fe`, which it puts in scan mode and
/// leaves there with data low (unless a solve fails); its solves extend
/// `chain`.
ScanStaticSignature scan_static_on(LinkFrontend& fe, const spice::DcOptions& solve,
                                   spice::SeedChain& chain) {
  ScanStaticSignature sig;
  fe.set_scan_mode(true);
  fe.set_data(true, true);
  chain.arm("scan.static.1", fe.netlist());
  const auto r1 = fe.solve(solve);
  sig.iterations += r1.iterations;
  if (!r1.converged) {
    sig.status = r1.status;
    return sig;
  }
  chain.record(fe.netlist(), true, r1.x);
  sig.obs1 = fe.observe(r1);
  fe.set_data(false, false);
  chain.arm("scan.static.0", fe.netlist());
  const auto r0 = fe.solve(solve);
  sig.iterations += r0.iterations;
  if (!r0.converged) {
    sig.status = r0.status;
    return sig;
  }
  chain.record(fe.netlist(), true, r0.x);
  sig.obs0 = fe.observe(r0);
  sig.valid = true;
  return sig;
}

/// The toggling pattern: two cycles of the 100 MHz scan clock in
/// 0.1 ns steps, strobed four times per cycle. The early-in-half-period
/// strobes are the ones that expose slowed settling (dynamic mismatch);
/// by mid-half-period a half-dead transmission gate has already caught
/// up.
constexpr double kScanPeriod = 10e-9;
constexpr int kToggleCycles = 2;
constexpr double kToggleDt = 0.1e-9;
constexpr int kStrobesPerCycle = 4;

/// The toggling pattern on `fe`, which it puts in scan mode with data
/// low; its t = 0 operating point extends `chain`.
ToggleSignature toggle_on(LinkFrontend& fe, const spice::DcOptions& solve,
                          const spice::SolveHints* hints, spice::SeedChain& chain) {
  ToggleSignature sig;
  fe.set_scan_mode(true);
  fe.set_data(false, false);

  const auto& nl = fe.netlist();
  const double vdd = fe.spec().vdd;
  const double th = vdd / 2.0;

  // Drive the data rails with complementary square waves at the scan
  // frequency. The FFE taps and the weak-driver input all toggle.
  std::unordered_map<std::string, spice::Waveform> drives;
  const auto hi_lo = spice::square_wave(0.0, vdd, kScanPeriod);
  const auto lo_hi = spice::square_wave(vdd, 0.0, kScanPeriod);
  drives[fe.src_tap_main_p()] = hi_lo;
  drives[fe.src_drv_in_p()] = lo_hi;
  drives[fe.src_tap_main_n()] = lo_hi;
  drives[fe.src_drv_in_n()] = hi_lo;
  drives["v_tx_tap_alpha_p"] = lo_hi;  // delayed-inverted tap mirrors drv_in
  drives["v_tx_tap_alpha_n"] = hi_lo;

  // Strobe at the middle of each half period (where the tester's scan
  // flops capture). The run stops at the last strobe: nothing after it
  // is read.
  const double half = kScanPeriod / 2.0;
  std::vector<std::size_t> strobes;
  for (int c = 0; c < kToggleCycles * kStrobesPerCycle; ++c) {
    const double ts = (c + 0.5) * half * (2.0 / kStrobesPerCycle);
    strobes.push_back(static_cast<std::size_t>(ts / kToggleDt));
  }

  spice::TransientOptions topts;
  topts.t_stop = strobes.empty() ? 0.0 : static_cast<double>(strobes.back()) * kToggleDt;
  topts.dt = kToggleDt;
  topts.newton = solve;
  topts.probes = {nl.node_name(fe.term_ports().cmp_p_hi), nl.node_name(fe.term_ports().cmp_p_lo),
                  nl.node_name(fe.term_ports().cmp_n_hi), nl.node_name(fe.term_ports().cmp_n_lo)};
  // The golden run records its trajectory, which every faulted run's
  // time steps then follow. Its first frame is the t = 0 operating
  // point: scan mode with the drives at their t = 0 values (data high),
  // which follows the fault's own static capture on this copy.
  const std::string trajectory_key = "scan.toggle";
  chain.arm(trajectory_key, nl);
  const auto res = spice::run_transient(nl, drives, topts, spice::SolverWorkspace::tls(), hints,
                                        trajectory_key);
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
  spice::SeedChain chain(hints);
  return scan_static_on(copy, solve, chain);
}

ToggleSignature toggle_signature(const LinkFrontend& fe, const spice::DcOptions& solve,
                                 const spice::SolveHints* hints) {
  LinkFrontend copy = fe;
  spice::SeedChain chain(hints);
  return toggle_on(copy, solve, hints, chain);
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
                              const spice::DcOptions& solve, const spice::SolveHints* hints,
                              bool full_evaluation, bool with_toggle) {
  ScanTestOutcome out;
  out.golden = &golden;
  // Each combo's two window marks are one kSubCpScan observation, so
  // the test can stop at the combo that decides. A failed combo keeps
  // the earlier combos' marks and fills its own and every later pair
  // with '!'.
  for_each_cp_combo(fe, solve, hints, [&](std::size_t i, const CpComboCapture& c) {
    out.iterations += c.iterations;
    out.record(kSubCpScan,
               c.converged ? pair_marks(std::array{c.window})
                           : std::string(2 * (kCpCombos - i), '!'),
               c.status);
    return !out.stops(full_evaluation);
  });
  if (!out.stops(full_evaluation)) {
    // The static capture and the toggle share one scan-mode copy, and
    // one chain of solves: each sets only source values on it.
    LinkFrontend scan_fe = fe;
    spice::SeedChain chain(hints);
    record_capture(out, kSubScanStatic, scan_static_on(scan_fe, solve, chain));
    if (with_toggle && !out.stops(full_evaluation)) {
      record_capture(out, kSubToggle, toggle_on(scan_fe, solve, hints, chain));
    }
  }
  out.finish();
  return out;
}

}  // namespace lsl::dft
