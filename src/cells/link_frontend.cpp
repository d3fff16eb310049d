#include "cells/link_frontend.hpp"

#include <sstream>

namespace lsl::cells {

using spice::kGround;
using spice::Mosfet;
using spice::MosType;
using spice::Netlist;
using spice::NodeId;
using spice::Resistor;
using spice::VSource;

std::string LinkObservation::str() const {
  std::ostringstream os;
  auto c = [&](Bit b) { return is_high(b) ? '1' : '0'; };
  os << "p:" << c(kPHi) << c(kPLo) << " n:" << c(kNHi) << c(kNLo) << " bias:" << c(kBiasHi)
     << c(kBiasLo) << " vc:" << c(kVcHi) << c(kVcLo) << " bist:" << c(kBistHi) << c(kBistLo);
  return os.str();
}

LinkFrontend::LinkFrontend(const LinkFrontendSpec& spec) : spec_(spec) {
  const NodeId vdd = nl_.node("vdd");
  nl_.add("v_vdd", VSource{vdd, kGround, spec_.vdd});

  // Shared comparator tail bias for the termination comparators.
  const NodeId vbn = build_nbias(nl_, "bias", vdd, 130e3);

  // Rails driven by the digital side. Each drive has a realistic source
  // impedance (a minimum-size driver is ~kOhms), so a short at a driven
  // gate wins at the transistor terminal instead of being masked by an
  // ideal source.
  // `src` receives the index of the rail's source.
  auto rail = [&](const std::string& name, std::size_t& src) {
    const NodeId n = nl_.node(name);
    const NodeId raw = nl_.node(name + "_drv");
    src = nl_.add("v_" + name, VSource{raw, kGround, 0.0});
    nl_.add("rdrv_" + name, Resistor{raw, n, 2e3});
    return n;
  };
  const NodeId tap_main_p = rail("tx_tap_main_p", tap_main_p_);
  const NodeId tap_alpha_p = rail("tx_tap_alpha_p", tap_alpha_p_);
  const NodeId drv_in_p = rail("tx_drv_in_p", drv_in_p_);
  const NodeId tap_main_n = rail("tx_tap_main_n", tap_main_n_);
  const NodeId tap_alpha_n = rail("tx_tap_alpha_n", tap_alpha_n_);
  const NodeId drv_in_n = rail("tx_drv_in_n", drv_in_n_);

  // Arms and interconnect.
  const NodeId launch_p = nl_.node("line_p_tx");
  const NodeId launch_n = nl_.node("line_n_tx");
  line_p_rx_ = nl_.node("line_p_rx");
  line_n_rx_ = nl_.node("line_n_rx");
  build_transmitter_arm(nl_, "tx.p", vdd, tap_main_p, tap_alpha_p, drv_in_p, launch_p, spec_.tx);
  build_transmitter_arm(nl_, "tx.n", vdd, tap_main_n, tap_alpha_n, drv_in_n, launch_n, spec_.tx);
  build_rc_line(nl_, "line.p", launch_p, line_p_rx_, spec_.line);
  build_rc_line(nl_, "line.n", launch_n, line_n_rx_, spec_.line);

  // Charge pump controls (driven rails). With the coarse loop closed,
  // the strong-pump gates are driven by the window comparator instead of
  // external rails (wired up after the pump is built).
  ChargePumpControls ctl;
  ctl.up_gate = rail("cp_up_g", up_);
  ctl.up_b_gate = rail("cp_upb_g", upb_);
  ctl.dn_gate = rail("cp_dn_g", dn_);
  ctl.dn_b_gate = rail("cp_dnb_g", dnb_);
  if (spec_.close_coarse_loop) {
    ctl.upst_gate = nl_.node("cp_upst_g");
    ctl.dnst_gate = nl_.node("cp_dnst_g");
  } else {
    ctl.upst_gate = rail("cp_upst_g", upst_);
    ctl.dnst_gate = rail("cp_dnst_g", dnst_);
  }
  ctl.sen = rail("cp_sen", sen_);
  ctl.sen_b = rail("cp_senb", senb_);

  cp_ = build_charge_pump(nl_, "cp", vdd, ctl, spec_.cp);

  if (spec_.close_coarse_loop) {
    // The FSM's combinational view: Vc below VL -> UPst (PMOS gate low
    // via an inverter); Vc above VH -> DNst (NMOS gate follows cmp_hi).
    // These stand in for the digital FSM path and are excluded from the
    // analog fault universe ("fsm." prefix).
    nl_.add("fsm.m_invp",
            Mosfet{ctl.upst_gate, cp_.cmp_lo, vdd, MosType::kPmos, 1.0e-6, 0.5e-6, 0.0});
    nl_.add("fsm.m_invn",
            Mosfet{ctl.upst_gate, cp_.cmp_lo, kGround, MosType::kNmos, 0.5e-6, 0.5e-6, 0.0});
    nl_.add("fsm.r_dnst", Resistor{cp_.cmp_hi, ctl.dnst_gate, 10.0});
  }

  // Clock-recovery bias replica compared against the termination bias.
  const NodeId vmid_cr = nl_.node("cr.vmid");
  nl_.add("cr.r_top", Resistor{vdd, vmid_cr, spec_.term.r_div_top});
  nl_.add("cr.r_bot", Resistor{vmid_cr, kGround, spec_.term.r_div_bot});

  term_ = build_termination(nl_, "term", vdd, vbn, line_p_rx_, line_n_rx_, vmid_cr, spec_.term);

  // Neutral defaults: normal mode, pumps idle, data = 0.
  set_scan_mode(false);
  set_pump(false, false);
  if (!spec_.close_coarse_loop) set_strong_pump(false, false);
  set_data(false, false);
}

void LinkFrontend::set_data(bool d, bool d_prev) {
  const double hi = spec_.vdd;
  // P arm: main tap follows d; alpha tap carries the delayed bit
  // inverted; the weak driver input is the data complement (it inverts).
  nl_.set_vsource_volts(tap_main_p_, d ? hi : 0.0);
  nl_.set_vsource_volts(tap_alpha_p_, d_prev ? 0.0 : hi);
  nl_.set_vsource_volts(drv_in_p_, d ? 0.0 : hi);
  // N arm: complement everything.
  nl_.set_vsource_volts(tap_main_n_, d ? 0.0 : hi);
  nl_.set_vsource_volts(tap_alpha_n_, d_prev ? hi : 0.0);
  nl_.set_vsource_volts(drv_in_n_, d ? hi : 0.0);
}

void LinkFrontend::set_scan_mode(bool scan) {
  nl_.set_vsource_volts(sen_, scan ? spec_.vdd : 0.0);
  nl_.set_vsource_volts(senb_, scan ? 0.0 : spec_.vdd);
}

void LinkFrontend::set_pump(bool up, bool dn) {
  // PMOS UP switch: active low. Steering branch gets the complements.
  nl_.set_vsource_volts(up_, up ? 0.0 : spec_.vdd);
  nl_.set_vsource_volts(upb_, up ? spec_.vdd : 0.0);
  nl_.set_vsource_volts(dn_, dn ? spec_.vdd : 0.0);
  nl_.set_vsource_volts(dnb_, dn ? 0.0 : spec_.vdd);
}

void LinkFrontend::set_strong_pump(bool up, bool dn) {
  if (spec_.close_coarse_loop) {
    throw std::logic_error("strong pump is comparator-driven with the coarse loop closed");
  }
  nl_.set_vsource_volts(upst_, up ? 0.0 : spec_.vdd);
  nl_.set_vsource_volts(dnst_, dn ? spec_.vdd : 0.0);
}

spice::DcResult LinkFrontend::solve(const spice::DcOptions& opts) const {
  return spice::solve_dc(nl_, opts);
}

LinkObservation LinkFrontend::observe(const spice::DcResult& r) const {
  LinkObservation o;
  o.vdd = spec_.vdd;
  o.volts[LinkObservation::kPHi] = r.v(nl_, term_.cmp_p_hi);
  o.volts[LinkObservation::kPLo] = r.v(nl_, term_.cmp_p_lo);
  o.volts[LinkObservation::kNHi] = r.v(nl_, term_.cmp_n_hi);
  o.volts[LinkObservation::kNLo] = r.v(nl_, term_.cmp_n_lo);
  o.volts[LinkObservation::kBiasHi] = r.v(nl_, term_.cmp_bias_hi);
  o.volts[LinkObservation::kBiasLo] = r.v(nl_, term_.cmp_bias_lo);
  o.volts[LinkObservation::kVcHi] = r.v(nl_, cp_.cmp_hi);
  o.volts[LinkObservation::kVcLo] = r.v(nl_, cp_.cmp_lo);
  o.volts[LinkObservation::kBistHi] = r.v(nl_, cp_.bist_hi);
  o.volts[LinkObservation::kBistLo] = r.v(nl_, cp_.bist_lo);
  return o;
}

double LinkFrontend::line_diff(const spice::DcResult& r) const {
  return r.v(nl_, line_p_rx_) - r.v(nl_, line_n_rx_);
}

double LinkFrontend::vc(const spice::DcResult& r) const { return r.v(nl_, cp_.vc); }

double LinkFrontend::vp(const spice::DcResult& r) const { return r.v(nl_, cp_.vp); }

}  // namespace lsl::cells
