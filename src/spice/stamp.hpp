// Modified-nodal-analysis stamping: turns a Netlist plus a linearization
// point into the Newton-iteration linear system G*x = b.
//
// Unknown ordering: node voltages for nodes 1..N-1 (ground excluded),
// followed by one branch current per enabled VSource/Vcvs, in device
// order (see Netlist::reindex).
#pragma once

#include <unordered_map>
#include <vector>

#include "spice/matrix.hpp"
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

/// Evaluates the level-1 model at terminal voltages (vd, vg, vs).
MosEval eval_mosfet(const Mosfet& m, const ModelCard& card, double vd, double vg, double vs);

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
  /// Per-device value overrides for VSource elements (waveform drive),
  /// keyed by device index.
  const std::unordered_map<std::size_t, double>* vsrc_override = nullptr;
};

/// Voltage of `node` under MNA solution vector `x`.
double node_voltage(const Netlist& nl, const std::vector<double>& x, NodeId node);

/// Builds the linearized MNA system about solution estimate `x`.
/// G and b are resized and zeroed internally.
void stamp_system(const StampContext& ctx, const std::vector<double>& x, Matrix& g,
                  std::vector<double>& b);

/// True nonlinear MNA residual r = G(x)·x − b(x) evaluated at `x`: the
/// stamp folds each device's affine remainder into b, so at the
/// linearization point the linear combination reproduces the device's
/// actual current and r is the exact KCL/constraint residual — node
/// rows in amperes (including the gmin leak of the system being
/// solved), branch rows in volts.
std::vector<double> mna_residual(const StampContext& ctx, const std::vector<double>& x);

/// Max |r| over the node-voltage (KCL) rows of mna_residual, in
/// amperes. The invariant the property tests assert on every accepted
/// DC and transient solution.
double kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x);

}  // namespace lsl::spice
