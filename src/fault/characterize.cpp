#include "fault/characterize.hpp"

#include <algorithm>
#include <cmath>

namespace lsl::fault {

using cells::LinkFrontend;
using spice::DcResult;
using spice::kGround;
using spice::VSource;

namespace {

/// Adds a clamp VSource on Vc and solves. Returns the result plus the
/// clamp branch current (positive = current flows from Vc into the
/// clamp, i.e. the pump is sourcing).
struct ClampedSolve {
  bool converged = false;
  double i_clamp = 0.0;
  DcResult r;
};

ClampedSolve solve_with_vc_clamp(LinkFrontend fe, double vc_value,
                                 const spice::DcOptions& solve,
                                 const spice::SolveHints* hints = nullptr,
                                 const char* seed_key = nullptr) {
  auto& nl = fe.netlist();
  nl.add("char.clamp_vc", VSource{fe.cp_ports().vc, kGround, vc_value});
  ClampedSolve out;
  if (seed_key != nullptr) spice::arm_warm_start(hints, seed_key, nl);
  out.r = fe.solve(solve);
  out.converged = out.r.converged;
  if (out.converged) {
    if (seed_key != nullptr) spice::capture_seed(hints, seed_key, nl, out.r.x);
    out.i_clamp = out.r.i(nl, "char.clamp_vc");
  }
  return out;
}

}  // namespace

FrontendMeasurements measure_frontend(const cells::LinkFrontend& fe_in,
                                      const spice::DcOptions& solve,
                                      const spice::SolveHints* hints) {
  FrontendMeasurements m;
  const double vmid_window = 0.6;
  const double th = fe_in.spec().vdd / 2.0;

  // Records a failed solve's status (first failure wins).
  const auto fail = [&m](spice::SolveStatus st) {
    m.converged = false;
    if (m.status == spice::SolveStatus::kConverged) m.status = st;
  };

  // --- line differential, both vectors ---------------------------------
  {
    LinkFrontend fe = fe_in;
    fe.set_data(true, true);
    spice::arm_warm_start(hints, "char.line.1", fe.netlist());
    const DcResult r1 = fe.solve(solve);
    if (r1.converged) spice::capture_seed(hints, "char.line.1", fe.netlist(), r1.x);
    fe.set_data(false, false);
    spice::arm_warm_start(hints, "char.line.0", fe.netlist());
    const DcResult r0 = fe.solve(solve);
    if (r0.converged) spice::capture_seed(hints, "char.line.0", fe.netlist(), r0.x);
    m.iterations += r1.iterations + r0.iterations;
    if (!r1.converged || !r0.converged) {
      fail(!r1.converged ? r1.status : r0.status);
      return m;
    }
    fe.set_data(true, true);  // restore for callers reusing fe (value copy anyway)
    m.diff1 = fe.line_diff(r1);
    m.diff0 = fe.line_diff(r0);
  }

  // --- pump currents with Vc clamped mid-window ------------------------
  {
    LinkFrontend fe = fe_in;
    fe.set_pump(true, false);
    const ClampedSolve up = solve_with_vc_clamp(fe, vmid_window, solve, hints, "char.pump.up");
    fe.set_pump(false, true);
    const ClampedSolve dn = solve_with_vc_clamp(fe, vmid_window, solve, hints, "char.pump.dn");
    fe.set_pump(false, false);
    const ClampedSolve idle =
        solve_with_vc_clamp(fe, vmid_window, solve, hints, "char.pump.idle");
    fe.set_strong_pump(true, false);
    const ClampedSolve upst =
        solve_with_vc_clamp(fe, vmid_window, solve, hints, "char.pump.upst");
    fe.set_strong_pump(false, true);
    const ClampedSolve dnst =
        solve_with_vc_clamp(fe, vmid_window, solve, hints, "char.pump.dnst");
    m.iterations += up.r.iterations + dn.r.iterations + idle.r.iterations +
                    upst.r.iterations + dnst.r.iterations;
    for (const ClampedSolve* s : {&up, &dn, &idle, &upst, &dnst}) {
      if (!s->converged) {
        fail(s->r.status);
        return m;
      }
    }
    // The clamp sinks what the pump sources.
    m.leak = idle.i_clamp;
    m.i_up = up.i_clamp - idle.i_clamp;
    m.i_dn = -(dn.i_clamp - idle.i_clamp);
    m.i_upst = upst.i_clamp - idle.i_clamp;
    m.i_dnst = -(dnst.i_clamp - idle.i_clamp);
    m.vp_at_mid = idle.r.v(fe_in.netlist(), fe_in.cp_ports().vp);
  }

  // --- window comparator decisions at forced Vc -------------------------
  {
    LinkFrontend fe = fe_in;
    const auto obs_at = [&](double vc, const char* seed_key) {
      const ClampedSolve s = solve_with_vc_clamp(fe, vc, solve, hints, seed_key);
      m.iterations += s.r.iterations;
      struct {
        bool ok, hi, lo;
        spice::SolveStatus st;
      } o{s.converged, false, false, s.r.status};
      if (s.converged) {
        o.hi = s.r.v(fe.netlist(), fe.cp_ports().cmp_hi) > th;
        o.lo = s.r.v(fe.netlist(), fe.cp_ports().cmp_lo) > th;
      }
      return o;
    };
    const auto high = obs_at(1.05, "char.win.high");  // above VH = 0.8
    const auto mid = obs_at(0.6, "char.win.mid");
    const auto low = obs_at(0.15, "char.win.low");    // below VL = 0.4
    if (!high.ok || !mid.ok || !low.ok) {
      fail(!high.ok ? high.st : (!mid.ok ? mid.st : low.st));
      return m;
    }
    m.win_hi_at_high = high.hi;
    m.win_hi_at_mid = mid.hi;
    m.win_lo_at_low = low.lo;
    m.win_lo_at_mid = mid.lo;
  }
  return m;
}

BehavioralSignature derive_signature(const FrontendMeasurements& golden,
                                     const FrontendMeasurements& faulty) {
  BehavioralSignature sig;
  if (!faulty.converged) {
    sig.characterized = false;
    sig.status = faulty.status;
    return sig;
  }

  const double g_swing = golden.diff1 - golden.diff0;
  const double f_swing = faulty.diff1 - faulty.diff0;
  sig.swing_scale = (g_swing != 0.0) ? f_swing / g_swing : 0.0;
  sig.offset_shift = 0.5 * ((faulty.diff1 + faulty.diff0) - (golden.diff1 + golden.diff0));

  auto scale = [](double f, double g) { return g > 1e-12 ? std::max(f, 0.0) / g : 1.0; };
  sig.i_up_scale = scale(faulty.i_up, golden.i_up);
  sig.i_dn_scale = scale(faulty.i_dn, golden.i_dn);
  sig.strong_scale =
      0.5 * (scale(faulty.i_upst, golden.i_upst) + scale(faulty.i_dnst, golden.i_dnst));
  sig.leak = faulty.leak - golden.leak;

  sig.vp_offset = faulty.vp_at_mid - golden.vp_at_mid;
  sig.balance_broken = std::fabs(sig.vp_offset) > 0.3;

  // Window comparator behaviour -> synchronizer fault flags.
  sig.sync_faults.window_hi_stuck = faulty.win_hi_at_mid && !golden.win_hi_at_mid;
  sig.sync_faults.window_lo_stuck = faulty.win_lo_at_mid && !golden.win_lo_at_mid;
  const bool hi_dead = golden.win_hi_at_high && !faulty.win_hi_at_high;
  const bool lo_dead = golden.win_lo_at_low && !faulty.win_lo_at_low;
  sig.sync_faults.window_dead = hi_dead && lo_dead;
  if (hi_dead && !lo_dead) {
    // One-sided dead comparator: model as the healthy side stuck off by
    // folding into window_dead only when both die; a single dead side
    // slows acquisition from one direction, approximated by halving the
    // strong pump (it only ever fires one way).
    sig.strong_scale *= 0.5;
  }
  return sig;
}

lsl::link::LinkParams apply_signature(const lsl::link::LinkParams& base,
                                      const BehavioralSignature& sig) {
  lsl::link::LinkParams p = base;
  p.channel.drive_scale_p = sig.swing_scale;
  p.channel.drive_scale_n = sig.swing_scale;
  p.slicer_offset = base.slicer_offset + sig.offset_shift;
  p.sync.pump.i_up *= sig.i_up_scale;
  p.sync.pump.i_dn *= sig.i_dn_scale;
  p.sync.pump.strong_ratio *= std::max(sig.strong_scale, 1e-3);
  p.sync.pump.leak += sig.leak;
  p.sync.pump.vp_offset += sig.vp_offset;
  p.sync.pump.balance_broken = p.sync.pump.balance_broken || sig.balance_broken;
  if (sig.balance_broken) {
    // A broken balance path lets Vp drift toward the rail the residual
    // offset points at.
    p.sync.pump.vp_drift = sig.vp_offset >= 0.0 ? 1e6 : -1e6;
  }
  p.sync.faults.window_hi_stuck |= sig.sync_faults.window_hi_stuck;
  p.sync.faults.window_lo_stuck |= sig.sync_faults.window_lo_stuck;
  p.sync.faults.window_dead |= sig.sync_faults.window_dead;
  return p;
}

}  // namespace lsl::fault
