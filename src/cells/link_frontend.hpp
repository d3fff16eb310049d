// The assembled analog section of the link, as one flat netlist:
//
//   TX FFE arms (Fig 3, differential)  ->  RC interconnect  ->
//   termination + DC-test comparators (Fig 4/5/6)  +  charge pump with
//   window comparator and CP-BIST (Fig 8/9)  +  clock-recovery bias.
//
// The digital rails (data taps, UP/DN switch gates, scan enables) appear
// as VSources so test procedures steer them like the surrounding logic
// would. This is the netlist the structural-fault campaign copies and
// mutilates.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "cells/charge_pump.hpp"
#include "cells/termination.hpp"
#include "cells/transmitter.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"

namespace lsl::cells {

struct LinkFrontendSpec {
  double vdd = 1.2;
  TransmitterSpec tx;
  RcLineSpec line;
  TerminationSpec term;
  ChargePumpSpec cp;
  /// Closes the coarse feedback combinationally: the window comparator
  /// outputs gate the strong pump (as the FSM does every divided cycle),
  /// so the DC operating point has Vc regulated at the window edge. The
  /// DC test runs with the loop closed; the scan procedures need the
  /// strong-pump gates externally drivable and run open-loop.
  bool close_coarse_loop = false;
};

/// Digital observation points: every comparator decision the DFT logic
/// can capture into a scan flop. Raw output voltages are kept so that
/// the DFT stages can mark mid-rail outputs (dft::observation_marks'
/// guard bands at 1/3 and 2/3 of the rail) and demand a *strong* 1-vs-0
/// disagreement: a comparator balancing in its linear region (e.g. the
/// Vc window comparator at the closed-loop regulation point) must not
/// register as a detection.
struct LinkObservation {
  enum Bit : std::size_t {
    kPHi = 0,   // P-arm window comparator vs bias
    kPLo,
    kNHi,       // N-arm window comparator vs bias
    kNLo,
    kBiasHi,    // termination-vs-CR bias window comparator
    kBiasLo,
    kVcHi,      // Vc window comparator (coarse loop)
    kVcLo,
    kBistHi,    // CP-BIST |Vp-Vc| window comparator
    kBistLo,
    kBitCount,
  };
  std::array<double, kBitCount> volts{};
  double vdd = 1.2;

  bool is_high(Bit b) const { return volts[b] > vdd / 2.0; }
  bool p_hi() const { return is_high(kPHi); }
  bool p_lo() const { return is_high(kPLo); }
  bool n_hi() const { return is_high(kNHi); }
  bool n_lo() const { return is_high(kNLo); }
  bool bias_hi() const { return is_high(kBiasHi); }
  bool bias_lo() const { return is_high(kBiasLo); }
  bool vc_hi() const { return is_high(kVcHi); }
  bool vc_lo() const { return is_high(kVcLo); }
  bool bist_hi() const { return is_high(kBistHi); }
  bool bist_lo() const { return is_high(kBistLo); }

  std::string str() const;
};

/// Value-semantic assembly of the analog link front end. Copy it, edit
/// the copy's netlist, and re-solve: that is the fault-injection flow.
class LinkFrontend {
 public:
  explicit LinkFrontend(const LinkFrontendSpec& spec = {});

  spice::Netlist& netlist() { return nl_; }
  const spice::Netlist& netlist() const { return nl_; }

  /// Drives the transmitter rails for data bit `d` with previous bit
  /// `d_prev` (the FFE tap). DC vectors use d_prev == d.
  void set_data(bool d, bool d_prev);
  /// Scan mode: collapses the charge-pump biases and muxes the window
  /// comparator input to the threshold midpoint.
  void set_scan_mode(bool scan);
  /// Weak pump switches. `up`/`dn` are logical (active-high) values; the
  /// builder handles PMOS polarity and the steering complements.
  void set_pump(bool up, bool dn);
  /// Strong pump switches.
  void set_strong_pump(bool up, bool dn);

  /// Solves the DC operating point. Returns converged flag.
  spice::DcResult solve(const spice::DcOptions& opts = {}) const;

  /// Extracts the comparator decisions from a solved operating point
  /// (threshold at vdd/2).
  LinkObservation observe(const spice::DcResult& r) const;

  /// Differential line voltage at the receiver, for characterization.
  double line_diff(const spice::DcResult& r) const;
  double vc(const spice::DcResult& r) const;
  double vp(const spice::DcResult& r) const;

  const LinkFrontendSpec& spec() const { return spec_; }
  const TerminationPorts& term_ports() const { return term_; }
  const ChargePumpPorts& cp_ports() const { return cp_; }
  spice::NodeId line_p() const { return line_p_rx_; }
  spice::NodeId line_n() const { return line_n_rx_; }

  /// Names of the drive sources (for transient tests that wiggle them).
  const std::string& src_tap_main_p() const { return nl_.device(tap_main_p_).name; }
  const std::string& src_tap_main_n() const { return nl_.device(tap_main_n_).name; }
  const std::string& src_drv_in_p() const { return nl_.device(drv_in_p_).name; }
  const std::string& src_drv_in_n() const { return nl_.device(drv_in_n_).name; }

 private:
  LinkFrontendSpec spec_;
  spice::Netlist nl_;
  TerminationPorts term_;
  ChargePumpPorts cp_;
  spice::NodeId line_p_rx_ = spice::kGround;
  spice::NodeId line_n_rx_ = spice::kGround;

  // Device indices of the drive sources. Drives change source values
  // only (Netlist::set_vsource_volts), which keeps the solver
  // workspace's per-topology caches warm across drive toggles. The
  // strong-pump sources do not exist with the coarse loop closed.
  static constexpr std::size_t kNoSource = static_cast<std::size_t>(-1);
  std::size_t tap_main_p_ = kNoSource, tap_alpha_p_ = kNoSource, drv_in_p_ = kNoSource;
  std::size_t tap_main_n_ = kNoSource, tap_alpha_n_ = kNoSource, drv_in_n_ = kNoSource;
  std::size_t up_ = kNoSource, upb_ = kNoSource, dn_ = kNoSource, dnb_ = kNoSource;
  std::size_t upst_ = kNoSource, dnst_ = kNoSource, sen_ = kNoSource, senb_ = kNoSource;
};

}  // namespace lsl::cells
