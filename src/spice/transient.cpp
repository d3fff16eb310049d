#include "spice/transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "spice/matrix.hpp"
#include "spice/stamp.hpp"
#include "spice/workspace.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace lsl::spice {

const std::vector<double>& TransientResult::probe(const std::string& name) const {
  const auto it = v.find(name);
  if (it == v.end()) throw std::invalid_argument("no such probe: " + name);
  return it->second;
}

double TransientResult::final_v(const std::string& name) const {
  const auto& samples = probe(name);
  if (samples.empty()) throw std::logic_error("empty probe: " + name);
  return samples.back();
}

Waveform dc_wave(double volts) {
  return [volts](double) { return volts; };
}

Waveform square_wave(double v_lo, double v_hi, double period, double delay) {
  return [=](double t) {
    if (t < delay) return v_lo;
    const double phase = std::fmod(t - delay, period);
    return phase < 0.5 * period ? v_hi : v_lo;
  };
}

Waveform pwl_wave(std::vector<std::pair<double, double>> points) {
  return [pts = std::move(points)](double t) {
    if (pts.empty()) return 0.0;
    if (t <= pts.front().first) return pts.front().second;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (t <= pts[i].first) {
        const auto& [t0, v0] = pts[i - 1];
        const auto& [t1, v1] = pts[i];
        // Duplicate (or unsorted) timestamps are a vertical edge: snap
        // to the later point instead of dividing by zero.
        if (t1 - t0 <= 0.0) return v1;
        const double f = (t - t0) / (t1 - t0);
        return v0 + f * (v1 - v0);
      }
    }
    return pts.back().second;
  };
}

namespace {

using Clock = std::chrono::steady_clock;

/// Per-run metrics (instrument names: docs/OBSERVABILITY.md). The
/// per-step Newton histogram is recorded inline in the step loop; the
/// aggregates here close out one run_transient call. They count the
/// time steps only: the t = 0 operating point is a solve_dc, which
/// records its own iterations and workspace work under solver.dc.*, so
/// `op_iterations` is left out and `ws_before` is taken after it.
void record_transient_metrics(const TransientResult& result, long op_iterations,
                              const SolverWorkspace::Stats& ws_before,
                              const SolverWorkspace::Stats& ws_after, double symbolic_sec) {
  auto& m = util::metrics();
  static util::Counter& runs = m.counter("solver.transient.runs");
  static util::Counter& failures = m.counter("solver.transient.failures");
  static util::Counter& steps = m.counter("solver.transient.steps_accepted");
  static util::Counter& halvings = m.counter("solver.transient.step_halvings");
  static util::Counter& iterations = m.counter("solver.transient.newton_iterations");
  static util::Counter& symbolic_builds = m.counter("solver.transient.symbolic_builds");
  static util::Counter& symbolic_reuse = m.counter("solver.transient.symbolic_reuse");
  static util::Counter& linear_stamp_builds = m.counter("solver.transient.linear_stamp_builds");
  static util::Counter& linear_stamp_reuse = m.counter("solver.transient.linear_stamp_reuse");
  static util::Counter& sparse_solves = m.counter("solver.transient.sparse_solves");
  static util::Counter& pivot_rejects = m.counter("solver.transient.pivot_rejects");
  static util::Counter& kcl_rejects = m.counter("solver.transient.kcl_rejects");
  runs.add(1);
  if (!result.ok) failures.add(1);
  steps.add(static_cast<std::int64_t>(result.steps_accepted));
  halvings.add(static_cast<std::int64_t>(result.step_halvings));
  iterations.add(result.newton_iterations - op_iterations);
  symbolic_builds.add(ws_after.symbolic_builds - ws_before.symbolic_builds);
  symbolic_reuse.add(ws_after.symbolic_reuse - ws_before.symbolic_reuse);
  linear_stamp_builds.add(ws_after.linear_stamp_builds - ws_before.linear_stamp_builds);
  linear_stamp_reuse.add(ws_after.linear_stamp_reuse - ws_before.linear_stamp_reuse);
  sparse_solves.add(ws_after.sparse_solves - ws_before.sparse_solves);
  pivot_rejects.add(ws_after.pivot_rejects - ws_before.pivot_rejects);
  kcl_rejects.add(ws_after.kcl_rejects - ws_before.kcl_rejects);
  if (util::Metrics::detailed_timing() && symbolic_sec > 0.0) {
    static util::MetricHistogram& symbolic = m.histogram("solver.transient.symbolic_seconds");
    symbolic.observe(symbolic_sec);
  }
}

}  // namespace

TransientResult run_transient(const Netlist& nl,
                              const std::unordered_map<std::string, Waveform>& drives,
                              const TransientOptions& opts) {
  return run_transient(nl, drives, opts, SolverWorkspace::tls());
}

TransientResult run_transient(const Netlist& nl,
                              const std::unordered_map<std::string, Waveform>& drives,
                              const TransientOptions& opts, SolverWorkspace& ws) {
  nl.reindex();
  util::TraceSpan run_span("run_transient", "solver");
  const auto start = Clock::now();
  SolverWorkspace::Stats ws_stats_before = ws.stats();
  long op_iterations = 0;
  TransientResult result;
  double symbolic_sec = 0.0;  // this run's own symbolic builds (detailed timing)

  // Resolve waveform drives to device indices.
  std::vector<std::pair<std::size_t, const Waveform*>> drive_list;
  for (const auto& [name, wave] : drives) {
    const auto di = nl.find_device(name);
    if (!di.has_value()) throw std::invalid_argument("unknown drive source: " + name);
    if (!std::holds_alternative<VSource>(nl.device(*di).impl)) {
      throw std::invalid_argument(name + " is not a VSource");
    }
    drive_list.emplace_back(*di, &wave);
  }

  // Probe set.
  std::vector<std::pair<std::string, NodeId>> probes;
  if (opts.probes.empty()) {
    for (NodeId id = 1; id < nl.node_count(); ++id) probes.emplace_back(nl.node_name(id), id);
  } else {
    for (const auto& name : opts.probes) {
      const auto id = nl.find_node(name);
      if (!id.has_value()) throw std::invalid_argument("unknown probe node: " + name);
      probes.emplace_back(name, *id);
    }
  }
  for (const auto& [name, id] : probes) result.v.emplace(name, std::vector<double>{});

  // Drive overrides in device order, the order the stamps walk sources.
  std::sort(drive_list.begin(), drive_list.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::size_t, double>> overrides(drive_list.size());
  auto set_overrides = [&](double t) {
    for (std::size_t k = 0; k < drive_list.size(); ++k) {
      overrides[k] = {drive_list[k].first, (*drive_list[k].second)(t)};
    }
  };

  const auto fail = [&](SolveStatus st, double t) {
    result.status = st;
    result.diag.elapsed_sec = std::chrono::duration<double>(Clock::now() - start).count();
    record_transient_metrics(result, op_iterations, ws_stats_before, ws.stats(), symbolic_sec);
    run_span.arg("steps", static_cast<double>(result.steps_accepted));
    run_span.arg("halvings", static_cast<double>(result.step_halvings));
    util::log_warn("run_transient: " + to_string(st) + " at t=" + std::to_string(t) +
                   " (worst node: " + result.diag.worst_node + ", " +
                   std::to_string(result.step_halvings) + " halvings)");
    return result;  // result.ok stays false; partial waveform retained
  };

  // Initial operating point at t = 0 (capacitors open, drives at t=0).
  set_overrides(0.0);
  StampContext ctx;
  ctx.nl = &nl;
  ctx.gmin = opts.newton.gmin_final;
  ctx.dt = 0.0;
  ctx.vsrc_override = &overrides;

  std::vector<double> x;
  {
    // Reuse the robust DC path by baking the t=0 drive values into a
    // netlist copy (continuation methods do not support overrides).
    // Only source values change, so the copy keeps the structure.
    Netlist op = nl;
    for (const auto& [di, wave] : drive_list) op.set_vsource_volts(di, (*wave)(0.0));
    const DcResult dc = solve_dc(op, opts.newton, ws);
    op_iterations = dc.iterations;
    result.newton_iterations += dc.iterations;
    ws_stats_before = ws.stats();
    if (!dc.converged) {
      result.diag = dc.diag;
      util::log_warn("run_transient: t=0 operating point failed to converge");
      return fail(dc.status, 0.0);
    }
    x = dc.x;
  }

  // Node-indexed voltage history for the capacitor companions, plus the
  // per-capacitor branch currents the trapezoidal companion carries.
  // The t=0 operating point is a DC steady state, so capacitor currents
  // start at zero.
  std::vector<double> prev_node_v(nl.node_count(), 0.0);
  std::vector<double> prev_cap_i(nl.devices().size(), 0.0);
  auto capture_node_v = [&] {
    for (NodeId id = 1; id < nl.node_count(); ++id) prev_node_v[id] = node_voltage(nl, x, id);
  };
  capture_node_v();
  // Updates the capacitor-current history after a step of `dt_sub` is
  // accepted (prev_node_v still holds the pre-step voltages).
  auto update_cap_currents = [&](double dt_sub) {
    const auto& devices = nl.devices();
    for (std::size_t di = 0; di < devices.size(); ++di) {
      if (!devices[di].enabled) continue;
      const auto* c = std::get_if<Capacitor>(&devices[di].impl);
      if (c == nullptr) continue;
      const double vab_new = node_voltage(nl, x, c->a) - node_voltage(nl, x, c->b);
      const double vab_prev = prev_node_v[c->a] - prev_node_v[c->b];
      if (opts.integrator == Integrator::kTrapezoidal) {
        prev_cap_i[di] = (2.0 * c->farads / dt_sub) * (vab_new - vab_prev) - prev_cap_i[di];
      } else {
        prev_cap_i[di] = (c->farads / dt_sub) * (vab_new - vab_prev);
      }
    }
  };

  auto record = [&](double t) {
    result.time.push_back(t);
    for (const auto& [name, id] : probes) result.v[name].push_back(node_voltage(nl, x, id));
  };
  record(0.0);

  ctx.integrator = opts.integrator;
  ctx.prev_node_v = &prev_node_v;
  ctx.prev_cap_i = &prev_cap_i;

  // Outer loop over the fixed output grid; inner loop adaptively
  // sub-steps from one grid point to the next, halving the timestep on
  // Newton failure. Samples land exactly on the k*dt grid, so consumers
  // that index by time/dt are unaffected by the sub-stepping.
  const auto n_steps = static_cast<std::size_t>(std::ceil(opts.t_stop / opts.dt));
  const double dt_floor = opts.dt / static_cast<double>(1 << std::max(opts.max_step_halvings, 0));
  std::vector<double> x_try;
  // Predictor state: the solution one accepted sub-step back and that
  // step's size, for the linear extrapolation of the next initial guess.
  std::vector<double> x_prev_accept;
  double prev_accept_dt = 0.0;
  // Per-step distributions. Newton-per-step costs nothing extra (the
  // count is already in hand); per-step wall time needs clock reads and
  // is gated with the rest of the detailed timing.
  auto& newton_per_step = util::metrics().histogram("solver.transient.newton_per_step");
  auto& step_seconds = util::metrics().histogram("solver.transient.step_seconds");
  const bool detailed = util::Metrics::detailed_timing();
  for (std::size_t step = 1; step <= n_steps; ++step) {
    const double t_grid = static_cast<double>(step) * opts.dt;
    double t = static_cast<double>(step - 1) * opts.dt;
    double sub_dt = opts.dt;

    while (t < t_grid - 0.5 * dt_floor) {
      // A step that was never halved spans its whole grid interval at
      // exactly opts.dt: t_grid - t can fall an ulp short of it, and a
      // dt that differs in its last bit re-stamps the linear base.
      if (sub_dt != opts.dt) sub_dt = std::min(sub_dt, t_grid - t);
      const double t_next = sub_dt == opts.dt ? t_grid : t + sub_dt;
      set_overrides(t_next);
      ctx.dt = sub_dt;
      x_try = x;
      if (prev_accept_dt > 0.0 && x_prev_accept.size() == x.size()) {
        // Predictor: first-order extrapolation through the last two
        // accepted points, scaled for the (possibly halved) current step
        // size. Every step still converges to the same per-step
        // tolerance — the predictor changes iteration count, not meaning.
        const double a = sub_dt / prev_accept_dt;
        for (std::size_t i = 0; i < x_try.size(); ++i) {
          x_try[i] = x[i] + a * (x[i] - x_prev_accept[i]);
        }
      }
      SolveDiagnostics step_diag;
      const Clock::time_point step_t0 = detailed ? Clock::now() : Clock::time_point{};
      const SolveStatus st = newton_loop(ctx, opts.newton, ws, x_try, step_diag);
      if (detailed) {
        step_seconds.observe(std::chrono::duration<double>(Clock::now() - step_t0).count());
      }
      newton_per_step.observe(static_cast<double>(step_diag.iterations));
      result.newton_iterations += step_diag.iterations;
      symbolic_sec += step_diag.symbolic_sec;
      if (st == SolveStatus::kConverged) {
        prev_accept_dt = sub_dt;
        std::swap(x_prev_accept, x);  // keep the outgoing point for the predictor
        x = std::move(x_try);
        // Residual and current history both need the PRE-step voltages
        // still in prev_node_v, so they run before capture_node_v.
        if (opts.record_kcl_residual) {
          // O(nnz) via the workspace's cached pattern (the free-function
          // kcl_residual_norm would stamp a dense matrix per sub-step).
          result.max_kcl_residual =
              std::max(result.max_kcl_residual, ws.kcl_residual_norm(ctx, x));
        }
        update_cap_currents(sub_dt);
        t = t_next;
        ++result.steps_accepted;
        result.t_reached = t;
        capture_node_v();
        continue;
      }
      result.diag = step_diag;
      if (sub_dt * 0.5 < dt_floor) {
        // The floor is the backstop against infinite halving; report
        // underflow unless the failure is structural (singular /
        // non-finite), which no smaller step will fix.
        const bool structural =
            st == SolveStatus::kSingularMatrix || st == SolveStatus::kNonFinite;
        return fail(structural ? st : SolveStatus::kTimestepUnderflow, t);
      }
      sub_dt *= 0.5;
      ++result.step_halvings;
    }
    record(t_grid);
  }
  result.ok = true;
  result.status = SolveStatus::kConverged;
  result.diag.elapsed_sec = std::chrono::duration<double>(Clock::now() - start).count();
  record_transient_metrics(result, op_iterations, ws_stats_before, ws.stats(), symbolic_sec);
  run_span.arg("steps", static_cast<double>(result.steps_accepted));
  run_span.arg("halvings", static_cast<double>(result.step_halvings));
  return result;
}

}  // namespace lsl::spice
