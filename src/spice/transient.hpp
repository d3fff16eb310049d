// Transient analysis on a fixed output grid (backward Euler companion
// models, Newton at every step) with adaptive sub-stepping: a grid step
// whose Newton fails is retried at half the timestep, down to an
// underflow floor, so sharp edges and faulted circuits degrade into a
// classified SolveStatus instead of a truncated waveform. Used for
// cell-level dynamic tests: the clocked window comparator at scan
// frequency, charge-pump step response, and the transmission-gate
// dynamic-mismatch faults that DC cannot expose.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "spice/seed.hpp"
#include "spice/solve_status.hpp"
#include "spice/stamp.hpp"

namespace lsl::spice {

/// Time-varying drive for a VSource: called with absolute time, returns
/// the source voltage at that instant.
using Waveform = std::function<double(double t)>;

struct TransientOptions {
  double t_stop = 1e-6;
  double dt = 1e-10;
  DcOptions newton;  // per-step Newton settings
  /// Nodes to record (by name). Empty records every node.
  std::vector<std::string> probes;
  /// Max halvings of one grid step before declaring kTimestepUnderflow
  /// (the sub-step floor is dt / 2^max_step_halvings).
  int max_step_halvings = 12;
  /// Capacitor companion-model discretization. Backward Euler (default)
  /// is L-stable; trapezoidal is second-order and used by the property
  /// tests as an independent cross-check.
  Integrator integrator = Integrator::kBackwardEuler;
  /// Record the max KCL residual over every accepted solution into
  /// TransientResult::max_kcl_residual (one extra stamp per accepted
  /// sub-step; off by default so campaigns pay nothing).
  bool record_kcl_residual = false;
};

struct TransientResult {
  bool ok = false;
  SolveStatus status = SolveStatus::kMaxIterations;
  std::vector<double> time;
  /// probe name -> sampled voltages, one per time point.
  std::unordered_map<std::string, std::vector<double>> v;

  double t_reached = 0.0;    // last accepted time (partial on failure)
  int steps_accepted = 0;    // accepted sub-steps (>= grid steps)
  int step_halvings = 0;     // total halvings across the run
  /// Every Newton iteration of the run: the t = 0 operating point's
  /// solve_dc plus every time step (the per-fault Newton budget reads this).
  /// The solver.transient.newton_iterations counter holds the steps
  /// only; the operating point's share is in solver.dc.newton_iterations.
  long newton_iterations = 0;
  /// Max KCL residual (amps) over accepted solutions; only populated
  /// when TransientOptions::record_kcl_residual is set.
  double max_kcl_residual = 0.0;
  SolveDiagnostics diag;     // from the failing (or final) step

  const std::vector<double>& probe(const std::string& name) const;
  /// Value of a probe at the last time point.
  double final_v(const std::string& name) const;
};

/// Simple waveform builders.
Waveform dc_wave(double volts);
/// 50%-duty square wave between v_lo and v_hi with the given period;
/// first edge (to v_hi) at t = delay.
Waveform square_wave(double v_lo, double v_hi, double period, double delay = 0.0);
/// Piecewise-linear waveform over (t, v) breakpoints (clamps outside).
/// Duplicate timestamps encode a vertical edge: the wave snaps to the
/// later point's value.
Waveform pwl_wave(std::vector<std::pair<double, double>> points);

/// Runs transient analysis. `drives` maps VSource device names to
/// waveforms; sources not listed keep their netlist value. The initial
/// condition is the DC operating point with all drives evaluated at t=0.
/// Samples land exactly on the k*dt output grid regardless of any
/// internal sub-stepping. Numerical failure never throws: the result
/// carries the partial waveform plus the status and diagnostics.
/// Solver state (symbolic LU, stamp caches, iteration buffers) lives in
/// `ws` and is shared with the t=0 DC solve; the default overload uses
/// the calling thread's workspace (SolverWorkspace::tls()).
TransientResult run_transient(const Netlist& nl,
                              const std::unordered_map<std::string, Waveform>& drives,
                              const TransientOptions& opts, SolverWorkspace& ws);
TransientResult run_transient(const Netlist& nl,
                              const std::unordered_map<std::string, Waveform>& drives,
                              const TransientOptions& opts);

/// The same run linked to a golden trajectory (campaign). With
/// `hints->capture`, a run that completes records its solution at t = 0
/// and at every grid point into that bank under `trajectory_key`, one
/// frame each. With `hints->seeds` holding that key, each full-dt step
/// starts Newton from x(t) + (g(t + dt) − g(t)), g the recorded
/// trajectory mapped by name once per run; an unknown the trajectory
/// lacks, a halved sub-step and a step past the trajectory's end keep
/// the linear extrapolation. Every step converges to the same tolerance
/// either way: the start point changes iteration counts, not meaning.
/// A null `hints` is the plain run.
TransientResult run_transient(const Netlist& nl,
                              const std::unordered_map<std::string, Waveform>& drives,
                              const TransientOptions& opts, SolverWorkspace& ws,
                              const SolveHints* hints, const std::string& trajectory_key);

}  // namespace lsl::spice
