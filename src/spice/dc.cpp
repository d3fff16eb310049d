#include "spice/dc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "spice/matrix.hpp"
#include "spice/stamp.hpp"
#include "spice/workspace.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace lsl::spice {

double DcResult::v(const Netlist& nl, NodeId node) const {
  return node_voltage(nl, x, node);
}

double DcResult::v(const Netlist& nl, const std::string& node_name) const {
  const auto id = nl.find_node(node_name);
  if (!id.has_value()) throw std::invalid_argument("unknown node: " + node_name);
  return node_voltage(nl, x, *id);
}

double DcResult::i(const Netlist& nl, const std::string& device_name) const {
  const auto di = nl.find_device(device_name);
  if (!di.has_value()) throw std::invalid_argument("unknown device: " + device_name);
  return x.at(nl.branch_index(*di));
}

namespace {

using Clock = std::chrono::steady_clock;

struct Deadline {
  bool armed = false;
  Clock::time_point at{};

  static Deadline from_timeout(double timeout_sec, Clock::time_point start) {
    Deadline d;
    if (timeout_sec > 0.0) {
      d.armed = true;
      d.at = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_sec));
    }
    return d;
  }
  bool expired() const { return armed && Clock::now() >= at; }
};

/// One damped Newton loop at fixed gmin / source scale. x is updated in
/// place with the best iterate whatever the outcome. Diagnostics track
/// the last iteration's worst voltage update and its unknown index.
/// All matrix/vector state lives in `ws`: after the workspace has seen
/// this topology once, the loop body performs no heap allocations.
SolveStatus newton_loop(const Netlist& nl, double gmin, double source_scale,
                        const DcOptions& opts, const Deadline& deadline, SolverWorkspace& ws,
                        std::vector<double>& x, SolveDiagnostics& diag) {
  std::vector<double>& x_new = ws.iterate_scratch();
  StampContext ctx;
  ctx.nl = &nl;
  ctx.gmin = gmin;
  ctx.source_scale = source_scale;

  const std::size_t n = nl.unknown_count();
  if (x.size() != n) x.assign(n, 0.0);
  const std::size_t n_volts = nl.node_count() - 1;

  // The worst-update node is tracked by unknown index and resolved to a
  // name once, on exit — node_name() returns a std::string and the loop
  // body must stay allocation-free.
  bool have_worst = false;
  std::size_t worst = 0;
  const auto resolve_worst = [&] {
    // Unknown k is the voltage of node k+1 (Netlist::voltage_index).
    if (have_worst) diag.worst_node = nl.node_name(static_cast<NodeId>(worst + 1));
  };

  for (int it = 0; it < opts.max_iterations; ++it) {
    if (deadline.expired()) {
      resolve_worst();
      return SolveStatus::kTimeout;
    }
    ++diag.iterations;
    if (!ws.solve_newton_system(ctx, x, x_new, &diag)) {
      resolve_worst();
      return SolveStatus::kSingularMatrix;
    }

    // Damp voltage updates; branch currents follow freely.
    double max_dv = 0.0;
    std::size_t it_worst = 0;
    for (std::size_t k = 0; k < n_volts; ++k) {
      double dv = x_new[k] - x[k];
      if (!std::isfinite(dv)) {
        resolve_worst();
        return SolveStatus::kNonFinite;
      }
      if (std::fabs(dv) > max_dv) {
        max_dv = std::fabs(dv);
        it_worst = k;
      }
      dv = std::clamp(dv, -opts.damping_limit, opts.damping_limit);
      x[k] += dv;
    }
    for (std::size_t k = n_volts; k < n; ++k) {
      if (!std::isfinite(x_new[k])) {
        resolve_worst();
        return SolveStatus::kNonFinite;
      }
      x[k] = x_new[k];
    }

    if (n_volts > 0) {
      worst = it_worst;
      have_worst = true;
    }
    diag.final_max_dv = max_dv;
    if (max_dv < opts.abs_tol) {
      resolve_worst();
      return SolveStatus::kConverged;
    }
  }
  resolve_worst();
  return SolveStatus::kMaxIterations;
}

/// gmin continuation: solve a heavily leaky circuit, then tighten.
/// `warm` (optional) seeds the first continuation level — the campaign's
/// golden operating point is usually far closer to the faulted solution
/// than the flat start, and every level still converges to the same
/// per-level tolerance, so the seed changes cost, not meaning.
SolveStatus gmin_stepping(const Netlist& nl, const DcOptions& opts, const Deadline& deadline,
                          SolverWorkspace& ws, std::vector<double>& x, SolveDiagnostics& diag,
                          const std::vector<double>* warm = nullptr) {
  if (warm != nullptr && warm->size() == nl.unknown_count()) {
    x = *warm;
  } else {
    x.assign(nl.unknown_count(), 0.0);
  }
  SolveStatus st = SolveStatus::kConverged;
  for (double gmin = opts.gmin_start; gmin >= opts.gmin_final * 0.99; gmin *= 0.1) {
    st = newton_loop(nl, gmin, 1.0, opts, deadline, ws, x, diag);
    if (st != SolveStatus::kConverged) return st;
  }
  return st;
}

/// Source-stepping homotopy: ramp all independent sources from 0.
SolveStatus source_stepping(const Netlist& nl, const DcOptions& opts, const Deadline& deadline,
                            SolverWorkspace& ws, std::vector<double>& x, SolveDiagnostics& diag) {
  x.assign(nl.unknown_count(), 0.0);
  SolveStatus st = SolveStatus::kConverged;
  for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
    st = newton_loop(nl, opts.gmin_final, std::min(scale, 1.0), opts, deadline, ws, x, diag);
    if (st != SolveStatus::kConverged) return st;
  }
  return st;
}

}  // namespace

namespace {

/// One counter per ladder rung, so the snapshot shows how often each
/// fallback actually earns its keep. The rung names are a small closed
/// set, so each gets a cached handle — the generic string-concat lookup
/// only runs for a name this table has never seen.
util::Counter& rung_counter(const char* rung) {
  auto& m = util::metrics();
  static util::Counter& newton = m.counter("solver.dc.rung.newton");
  static util::Counter& warm_start = m.counter("solver.dc.rung.golden-warm-start");
  static util::Counter& golden_gmin = m.counter("solver.dc.rung.golden-gmin");
  static util::Counter& gmin_step = m.counter("solver.dc.rung.gmin-step");
  static util::Counter& source_step = m.counter("solver.dc.rung.source-step");
  static util::Counter& heavy_damping = m.counter("solver.dc.rung.heavy-damping");
  static util::Counter& relaxed_tol = m.counter("solver.dc.rung.relaxed-tol");
  static util::Counter& exhausted = m.counter("solver.dc.rung.exhausted");
  if (std::strcmp(rung, "newton") == 0) return newton;
  if (std::strcmp(rung, "golden-warm-start") == 0) return warm_start;
  if (std::strcmp(rung, "golden-gmin") == 0) return golden_gmin;
  if (std::strcmp(rung, "gmin-step") == 0) return gmin_step;
  if (std::strcmp(rung, "source-step") == 0) return source_step;
  if (std::strcmp(rung, "heavy-damping") == 0) return heavy_damping;
  if (std::strcmp(rung, "relaxed-tol") == 0) return relaxed_tol;
  if (std::strcmp(rung, "exhausted") == 0) return exhausted;
  return m.counter(std::string("solver.dc.rung.") + rung);
}

/// Per-solve bookkeeping into the metrics registry. Instrument handles
/// are resolved once and cached — the per-solve cost is a handful of
/// relaxed atomic adds. Instrument names: docs/OBSERVABILITY.md.
void record_dc_metrics(const DcResult& result, const char* rung,
                       const SolverWorkspace::Stats& ws_before,
                       const SolverWorkspace::Stats& ws_after) {
  auto& m = util::metrics();
  static util::Counter& solves = m.counter("solver.dc.solves");
  static util::Counter& failures = m.counter("solver.dc.failures");
  static util::Counter& iterations = m.counter("solver.dc.newton_iterations");
  static util::MetricHistogram& per_solve = m.histogram("solver.dc.newton_per_solve");
  static util::MetricHistogram& seconds = m.histogram("solver.dc.solve_seconds");
  static util::MetricHistogram& rung_depth = m.histogram("solver.dc.rung_depth");
  static util::Counter& symbolic_builds = m.counter("solver.dc.symbolic_builds");
  static util::Counter& symbolic_reuse = m.counter("solver.dc.symbolic_reuse");
  static util::Counter& linear_stamp_builds = m.counter("solver.dc.linear_stamp_builds");
  static util::Counter& linear_stamp_reuse = m.counter("solver.dc.linear_stamp_reuse");
  static util::Counter& sparse_solves = m.counter("solver.dc.sparse_solves");
  static util::Counter& dense_solves = m.counter("solver.dc.dense_solves");
  static util::Counter& dense_fallbacks = m.counter("solver.dc.dense_fallbacks");
  static util::Counter& refinement_steps = m.counter("solver.dc.refinement_steps");
  solves.add(1);
  if (!result.converged) failures.add(1);
  iterations.add(result.diag.iterations);
  per_solve.observe(static_cast<double>(result.diag.iterations));
  seconds.observe(result.diag.elapsed_sec);
  rung_depth.observe(static_cast<double>(result.diag.fallback_depth));
  rung_counter(rung).add(1);
  symbolic_builds.add(ws_after.symbolic_builds - ws_before.symbolic_builds);
  symbolic_reuse.add(ws_after.symbolic_reuse - ws_before.symbolic_reuse);
  linear_stamp_builds.add(ws_after.linear_stamp_builds - ws_before.linear_stamp_builds);
  linear_stamp_reuse.add(ws_after.linear_stamp_reuse - ws_before.linear_stamp_reuse);
  sparse_solves.add(ws_after.sparse_solves - ws_before.sparse_solves);
  dense_solves.add(ws_after.dense_solves - ws_before.dense_solves);
  dense_fallbacks.add(ws_after.dense_fallbacks - ws_before.dense_fallbacks);
  refinement_steps.add(ws_after.refinement_steps - ws_before.refinement_steps);
  if (util::Metrics::detailed_timing()) {
    static util::MetricHistogram& stamp = m.histogram("solver.dc.stamp_seconds");
    static util::MetricHistogram& factor = m.histogram("solver.dc.factor_seconds");
    stamp.observe(result.diag.stamp_sec);
    factor.observe(result.diag.factor_sec);
  }
}

}  // namespace

DcResult solve_dc(const Netlist& nl, const DcOptions& opts) {
  return solve_dc(nl, opts, SolverWorkspace::tls());
}

DcResult solve_dc(const Netlist& nl, const DcOptions& opts, SolverWorkspace& ws) {
  nl.reindex();
  util::TraceSpan solve_span("solve_dc", "solver");
  const auto start = Clock::now();
  const Deadline deadline = Deadline::from_timeout(opts.timeout_sec, start);
  const SolverWorkspace::Stats ws_before = ws.stats();

  // A pending golden seed is taken — and thereby cleared — from the
  // workspace unconditionally, so a stale seed can never leak into a
  // later, unrelated solve on this workspace.
  std::vector<double> seed;
  const bool have_seed = ws.take_pending_seed(seed);

  DcResult result;
  result.x = opts.initial_guess;

  const auto finish = [&](SolveStatus st, int depth, const char* rung) {
    result.status = st;
    result.converged = (st == SolveStatus::kConverged);
    result.diag.fallback_depth = depth;
    result.diag.fallback = rung;
    result.diag.elapsed_sec = std::chrono::duration<double>(Clock::now() - start).count();
    result.iterations = result.diag.iterations;
    solve_span.arg("iterations", static_cast<double>(result.diag.iterations));
    solve_span.arg("rung", static_cast<double>(depth));
    record_dc_metrics(result, rung, ws_before, ws.stats());
    if (!result.converged) {
      util::log_warn("solve_dc: " + to_string(st) + " after " +
                     std::to_string(result.diag.iterations) + " Newton iterations (rung: " +
                     std::string(rung) + ", worst node: " + result.diag.worst_node + ")");
    }
    return result;
  };

  // Rung 0a — golden warm start (campaign): plain Newton from the
  // shared golden operating point. Only runs when the caller supplied
  // no explicit guess; on failure it falls through to the unchanged
  // ladder, so the rung can only add an attempt, never remove one.
  bool seed_usable = false;
  if (have_seed && result.x.empty()) {
    auto& m = util::metrics();
    static util::Counter& warm_hits = m.counter("campaign.warm_start.hits");
    static util::Counter& warm_rejects = m.counter("campaign.warm_start.rejects");
    if (seed.size() == nl.unknown_count()) {
      seed_usable = true;
      util::TraceSpan span("dc.rung.golden-warm-start", "solver");
      result.x = seed;  // keep the seed: the golden-gmin rung reuses it
      const SolveStatus st =
          newton_loop(nl, opts.gmin_final, 1.0, opts, deadline, ws, result.x, result.diag);
      if (st == SolveStatus::kConverged) {
        warm_hits.add(1);
        return finish(st, 0, "golden-warm-start");
      }
      if (st == SolveStatus::kTimeout) return finish(st, 0, "golden-warm-start");
      warm_rejects.add(1);
      result.x.clear();  // deeper rungs restart from zero, as before
    } else {
      // Seed built for a different structure (e.g. an open fault added
      // unknowns the golden solution cannot know about).
      warm_rejects.add(1);
    }
  }

  // Rung 0 — plain Newton from the supplied guess: cheap and usually
  // enough when warm-starting sweeps.
  if (!result.x.empty()) {
    util::TraceSpan span("dc.rung.newton", "solver");
    const SolveStatus st =
        newton_loop(nl, opts.gmin_final, 1.0, opts, deadline, ws, result.x, result.diag);
    if (st == SolveStatus::kConverged) return finish(st, 0, "newton");
    if (st == SolveStatus::kTimeout) return finish(st, 0, "newton");
  }

  // Rung 1a — gmin stepping from the golden operating point. A fault
  // whose plain warm start diverges usually still sits much closer to
  // the golden solution than to zero; continuation from the seed cuts
  // the ladder's dominant cost. A failure falls through to the flat
  // start, so the rung can only add an attempt.
  SolveStatus st;
  if (seed_usable) {
    util::TraceSpan span("dc.rung.golden-gmin", "solver");
    st = gmin_stepping(nl, opts, deadline, ws, result.x, result.diag, &seed);
    if (st == SolveStatus::kConverged || st == SolveStatus::kTimeout) {
      return finish(st, 1, "golden-gmin");
    }
  }

  // Rung 1 — gmin stepping.
  {
    util::TraceSpan span("dc.rung.gmin-step", "solver");
    st = gmin_stepping(nl, opts, deadline, ws, result.x, result.diag);
  }
  if (st == SolveStatus::kConverged || st == SolveStatus::kTimeout) {
    return finish(st, 1, "gmin-step");
  }
  SolveStatus last = st;

  // Rung 2 — source stepping.
  if (opts.allow_source_stepping) {
    util::TraceSpan span("dc.rung.source-step", "solver");
    st = source_stepping(nl, opts, deadline, ws, result.x, result.diag);
    if (st == SolveStatus::kConverged || st == SolveStatus::kTimeout) {
      return finish(st, 2, "source-step");
    }
    last = st;
  }

  // Rung 3 — heavier damping: small, safe steps with a bigger budget.
  if (opts.allow_heavy_damping) {
    util::TraceSpan span("dc.rung.heavy-damping", "solver");
    DcOptions damped = opts;
    damped.damping_limit = opts.damping_limit / 8.0;
    damped.max_iterations = opts.max_iterations * 3;
    st = gmin_stepping(nl, damped, deadline, ws, result.x, result.diag);
    if (st == SolveStatus::kConverged || st == SolveStatus::kTimeout) {
      return finish(st, 3, "heavy-damping");
    }
    last = st;
  }

  // Rung 4 — relaxed tolerance on top of the heavy damping. A looser
  // operating point still classifies most faults correctly; callers can
  // see the rung in the diagnostics and weigh the result accordingly.
  if (opts.allow_relaxed_tol) {
    util::TraceSpan span("dc.rung.relaxed-tol", "solver");
    DcOptions relaxed = opts;
    relaxed.damping_limit = opts.damping_limit / 8.0;
    relaxed.max_iterations = opts.max_iterations * 3;
    relaxed.abs_tol = opts.abs_tol * opts.relaxed_tol_factor;
    st = gmin_stepping(nl, relaxed, deadline, ws, result.x, result.diag);
    if (st == SolveStatus::kConverged || st == SolveStatus::kTimeout) {
      return finish(st, 4, "relaxed-tol");
    }
    last = st;
  }

  return finish(last, 4, "exhausted");
}

std::vector<DcResult> dc_sweep(const Netlist& nl, const std::string& vsrc_name,
                               const std::vector<double>& values, const DcOptions& opts) {
  return dc_sweep(nl, vsrc_name, values, opts, SolverWorkspace::tls());
}

std::vector<DcResult> dc_sweep(const Netlist& nl, const std::string& vsrc_name,
                               const std::vector<double>& values, const DcOptions& opts,
                               SolverWorkspace& ws) {
  const auto di = nl.find_device(vsrc_name);
  if (!di.has_value()) throw std::invalid_argument("unknown source: " + vsrc_name);

  Netlist work = nl;  // value copy; we mutate the source value per point
  if (std::get_if<VSource>(&work.devices()[*di].impl) == nullptr) {
    throw std::invalid_argument(vsrc_name + " is not a VSource");
  }

  std::vector<DcResult> out;
  out.reserve(values.size());
  DcOptions point_opts = opts;
  for (const double v : values) {
    // Value-only edit: the solver rereads source values every iteration,
    // so the sweep reuses one symbolic factorization across all points.
    work.set_vsource_volts(*di, v);
    DcResult r = solve_dc(work, point_opts, ws);
    point_opts.initial_guess = r.x;  // warm start the next point
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace lsl::spice
