// Modified-nodal-analysis stamping inputs: the level-1 MOSFET model and
// the StampContext under which SolverWorkspace (workspace.hpp) turns a
// Netlist plus a linearization point into the Newton-iteration linear
// system G*x = b.
//
// Unknown ordering: node voltages for nodes 1..N-1 (ground excluded),
// followed by one branch current per enabled VSource/Vcvs, in device
// order (see Netlist::reindex).
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "spice/netlist.hpp"

namespace lsl::spice {

/// Large-signal square-law MOSFET evaluation result: drain current
/// (flowing d -> s through the channel, negative for PMOS in normal
/// operation) and its partial derivatives w.r.t. the three terminal
/// voltages. The general 3-terminal Jacobian handles reverse conduction
/// (vds < 0) without special-casing in the stamp.
struct MosEval {
  double id = 0.0;
  double d_vd = 0.0;
  double d_vg = 0.0;
  double d_vs = 0.0;
};

/// The level-1 parameters of one MOSFET under its model card. The
/// solver workspace resolves them once per cached topology and runs
/// eval_mosfet on them every Newton iteration.
struct MosParams {
  bool nmos = true;
  double beta = 0.0;    // kp * (w / l)
  double vt = 0.0;      // |vt + vt_delta|
  double lambda = 0.0;  // channel-length modulation
};

inline MosParams mos_params(const Mosfet& m, const ModelCard& card) {
  MosParams p;
  p.nmos = m.type == MosType::kNmos;
  p.beta = (p.nmos ? card.kp_n : card.kp_p) * (m.w / m.l);
  p.vt = std::fabs((p.nmos ? card.vt_n : card.vt_p) + m.vt_delta);
  p.lambda = p.nmos ? card.lambda_n : card.lambda_p;
  return p;
}

/// Evaluates the level-1 model at terminal voltages (vd, vg, vs).
inline MosEval eval_mosfet(const MosParams& p, double vd, double vg, double vs) {
  // Map to an NMOS-referred frame: for PMOS negate all voltages. Within
  // that frame, if vds < 0 the physical source/drain roles swap.
  double fd = p.nmos ? vd : -vd;
  const double fg = p.nmos ? vg : -vg;
  double fs = p.nmos ? vs : -vs;
  bool swapped = false;
  if (fd < fs) {
    std::swap(fd, fs);
    swapped = true;
  }

  // Square-law current f(vgs, vds) for vds >= 0 with partials
  // f1 = df/dvgs, f2 = df/dvds.
  const double vgs = fg - fs;
  const double vds = fd - fs;
  double i = 0.0;
  double f1 = 0.0;
  double f2 = 0.0;
  const double vov = vgs - p.vt;
  if (vov <= 0.0) {
    // Cutoff. A tiny residual conductance smooths the Newton iteration
    // across the cutoff boundary (subthreshold stand-in).
    f2 = 1e-12;
  } else {
    const double clm = 1.0 + p.lambda * vds;
    if (vds < vov) {
      // Triode.
      i = p.beta * (vov - 0.5 * vds) * vds * clm;
      f1 = p.beta * vds * clm;
      f2 = p.beta * ((vov - vds) * clm + (vov - 0.5 * vds) * vds * p.lambda);
    } else {
      // Saturation.
      const double half = 0.5 * p.beta * vov * vov;
      i = half * clm;
      f1 = p.beta * vov * clm;
      f2 = half * p.lambda;
    }
  }

  // Current in the NMOS frame flows (frame-drain -> frame-source); undo
  // the swap and the PMOS negation while propagating derivatives.
  double d_fd = f2;
  double d_fg = f1;
  double d_fs = -f1 - f2;
  if (swapped) {
    i = -i;
    // Swap roles of the frame drain/source in the derivative vector and
    // negate (current direction flipped).
    const double t = d_fd;
    d_fd = -d_fs;
    d_fs = -t;
    d_fg = -d_fg;
  }
  // For PMOS the frame voltages are negated terminal voltages
  // (d/dv = -d/dfv) and the frame current maps to -(d->s), so the two
  // sign flips cancel in the partials and only the current negates.
  MosEval out;
  out.id = p.nmos ? i : -i;
  out.d_vd = d_fd;
  out.d_vg = d_fg;
  out.d_vs = d_fs;
  return out;
}

inline MosEval eval_mosfet(const Mosfet& m, const ModelCard& card, double vd, double vg,
                           double vs) {
  return eval_mosfet(mos_params(m, card), vd, vg, vs);
}

/// Companion-model integration method for capacitors in transient
/// analysis. Backward Euler is L-stable and the campaign default;
/// trapezoidal is second-order accurate and the cross-check the
/// MNA-invariant property tests lean on (two independent
/// discretizations agreeing on an analytic waveform).
enum class Integrator { kBackwardEuler, kTrapezoidal };

/// Inputs shared by DC and transient stamping.
struct StampContext {
  const Netlist* nl = nullptr;
  /// Conductance from every node to ground; keeps floating nodes (e.g.
  /// open-fault gates) well-posed and aids Newton convergence.
  double gmin = 1e-12;
  /// Scale factor applied to all independent sources (source stepping).
  double source_scale = 1.0;
  /// Timestep for the capacitor companion models; 0 selects DC
  /// (capacitors open).
  double dt = 0.0;
  /// Companion-model discretization used when dt > 0.
  Integrator integrator = Integrator::kBackwardEuler;
  /// Node voltages (indexed by NodeId) at the previous accepted time
  /// point. Required when dt > 0.
  const std::vector<double>* prev_node_v = nullptr;
  /// Capacitor branch currents i(a->b) at the previous accepted time
  /// point, indexed by device index. Required when dt > 0 and the
  /// integrator is trapezoidal (the trapezoidal companion carries the
  /// previous current as part of its history term).
  const std::vector<double>* prev_cap_i = nullptr;
  /// Value overrides for VSource elements (waveform drive) as (device
  /// index, volts) pairs, sorted by device index.
  const std::vector<std::pair<std::size_t, double>>* vsrc_override = nullptr;
};

/// Voltage of `node` under MNA solution vector `x`.
double node_voltage(const Netlist& nl, const std::vector<double>& x, NodeId node);

/// True nonlinear MNA residual r = G(x)·x − b(x) evaluated at `x`, on
/// the calling thread's solver workspace: the stamp folds each device's
/// affine remainder into b, so at the linearization point the linear
/// combination reproduces the device's actual current and r is the
/// exact KCL/constraint residual — node rows in amperes (including the
/// gmin leak of the system being solved), branch rows in volts.
std::vector<double> mna_residual(const StampContext& ctx, const std::vector<double>& x);

/// Max |r| over the node-voltage (KCL) rows of mna_residual, in
/// amperes. The invariant the property tests assert on every accepted
/// DC and transient solution.
double kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x);

}  // namespace lsl::spice
