// DC operating-point solver: damped Newton–Raphson over the MNA system
// behind a fixed retry/fallback ladder — gmin stepping, source
// stepping, heavier damping. Every rung converges to the caller's
// abs_tol and the KCL exit check; none relaxes them, and each
// continuation ends on the requested system. Faulted netlists (floating
// gates, rail shorts) are exactly the hard cases the continuation
// methods are there for; the ladder plus the structured SolveStatus
// result mean a pathological circuit is classified, never thrown or
// silently dropped.
#pragma once

#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/solve_status.hpp"

namespace lsl::spice {

class SolverWorkspace;
struct StampContext;

struct DcOptions {
  int max_iterations = 200;
  double abs_tol = 1e-6;        // volts; convergence on max |dV| (SPICE2's vntol)
  double damping_limit = 0.4;   // max per-iteration voltage step (V)
  double gmin_final = 1e-12;    // target gmin after stepping
  double gmin_start = 1e-3;     // initial gmin for stepping
  /// Optional initial guess for the MNA vector (e.g. previous solve).
  std::vector<double> initial_guess;
};

struct DcResult {
  bool converged = false;
  SolveStatus status = SolveStatus::kMaxIterations;
  /// MNA solution: node voltages then branch currents. On failure this
  /// holds the last iterate of the deepest ladder rung attempted.
  std::vector<double> x;
  int iterations = 0;  // total Newton iterations (mirrors diag.iterations)
  SolveDiagnostics diag;

  /// Node voltage lookup (requires the netlist used for the solve).
  double v(const Netlist& nl, NodeId node) const;
  double v(const Netlist& nl, const std::string& node_name) const;
  /// Branch current through voltage-source-like device `name`
  /// (positive current flows p -> n through the source).
  double i(const Netlist& nl, const std::string& device_name) const;
};

/// Solves the DC operating point. Never throws on numerical failure:
/// the result's status says what went wrong (singular system, iteration
/// budget, non-finite values) and the diagnostics say where.
/// Solver state (sparsity pattern, symbolic LU, linear stamp base,
/// iteration buffers) lives in `ws` and is reused across calls; the
/// default is the calling thread's workspace (SolverWorkspace::tls()).
/// A pending seed parked on `ws` via SolverWorkspace::seed_from() is
/// consumed (and always cleared) by the solve: when no explicit
/// initial_guess is given and the seed's size matches, it runs as an
/// extra first ladder rung ("golden-warm-start") ahead of the normal
/// ladder; a failed warm start falls through to the unchanged ladder,
/// so the rung can only add an attempt, never remove one.
DcResult solve_dc(const Netlist& nl, const DcOptions& opts, SolverWorkspace& ws);
DcResult solve_dc(const Netlist& nl, const DcOptions& opts = {});

/// One damped Newton loop on the system `ctx` describes: a DC
/// continuation point (ctx.dt == 0) for solve_dc's ladder, or one
/// transient step for run_transient. Voltage updates are clamped to
/// opts.damping_limit. The loop converges when max |ΔV| < opts.abs_tol
/// and the accepted iterate passes one KCL check of the node rows,
/// |r_i| <= 1e-3·Σ|terms_i| + 1e-12 A (SolverWorkspace::kcl_satisfied);
/// a refused exit keeps iterating. A pivot under the floor fails the
/// loop as kSingularMatrix. `x` is updated in place with the best
/// iterate whatever the outcome, and `diag` tracks the iterations and
/// the last iteration's worst node. After `ws` has seen this topology
/// once, the loop performs no heap allocations.
SolveStatus newton_loop(const StampContext& ctx, const DcOptions& opts, SolverWorkspace& ws,
                        std::vector<double>& x, SolveDiagnostics& diag);

/// Sweeps the value of voltage source `vsrc_name` over `values`, warm
/// starting each point from the previous solution. Returns one DcResult
/// per point (unconverged points flagged, not dropped). The whole sweep
/// shares one workspace — and, because the source value is mutated
/// without touching the topology, one symbolic factorization.
std::vector<DcResult> dc_sweep(const Netlist& nl, const std::string& vsrc_name,
                               const std::vector<double>& values, const DcOptions& opts,
                               SolverWorkspace& ws);
std::vector<DcResult> dc_sweep(const Netlist& nl, const std::string& vsrc_name,
                               const std::vector<double>& values, const DcOptions& opts = {});

}  // namespace lsl::spice
