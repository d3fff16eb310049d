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

SolveStatus newton_loop(const StampContext& ctx, const DcOptions& opts, SolverWorkspace& ws,
                        std::vector<double>& x, SolveDiagnostics& diag) {
  const Netlist& nl = *ctx.nl;
  std::vector<double>& x_new = ws.iterate_scratch();
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

  // The context is fixed for the whole loop, so its cache entry is
  // resolved once, by the first iteration.
  SolverWorkspace::NewtonBinding binding;
  for (int it = 0; it < opts.max_iterations; ++it) {
    ++diag.iterations;
    if (!ws.solve_newton_system(ctx, binding, x, x_new, &diag)) {
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
    // Converged: the update is below abs_tol and the accepted iterate
    // balances KCL. A refused exit just keeps iterating.
    if (max_dv < opts.abs_tol && ws.kcl_satisfied(ctx, binding, x, &diag)) {
      resolve_worst();
      return SolveStatus::kConverged;
    }
  }
  resolve_worst();
  return SolveStatus::kMaxIterations;
}

namespace {

using Clock = std::chrono::steady_clock;

/// The DC system at one gmin / source-scale continuation point.
StampContext dc_context(const Netlist& nl, double gmin, double source_scale = 1.0) {
  StampContext ctx;
  ctx.nl = &nl;
  ctx.gmin = gmin;
  ctx.source_scale = source_scale;
  return ctx;
}

/// gmin continuation: solve a heavily leaky circuit, then tighten.
/// `warm` (optional) seeds the first continuation level — the campaign's
/// golden operating point is usually far closer to the faulted solution
/// than the flat start, and every level still converges to the same
/// per-level tolerance, so the seed changes cost, not meaning.
SolveStatus gmin_stepping(const Netlist& nl, const DcOptions& opts, SolverWorkspace& ws,
                          std::vector<double>& x, SolveDiagnostics& diag,
                          const std::vector<double>* warm = nullptr) {
  if (warm != nullptr && warm->size() == nl.unknown_count()) {
    x = *warm;
  } else {
    x.assign(nl.unknown_count(), 0.0);
  }
  // One level per decade from gmin_start. The last level, the one
  // whose next decade would pass gmin_final, solves at gmin_final
  // itself: the converged result solves the requested system, and its
  // linear base is the one the next solve at gmin_final reuses. At
  // most 30 levels, so a gmin_final of 0 still ends.
  double gmin = opts.gmin_start;
  for (int level = 1;; ++level, gmin *= 0.1) {
    const bool last = !(gmin * 0.1 >= opts.gmin_final * 0.99) || level == 30;
    const SolveStatus st =
        newton_loop(dc_context(nl, last ? opts.gmin_final : gmin), opts, ws, x, diag);
    if (st != SolveStatus::kConverged || last) return st;
  }
}

/// Source-stepping homotopy: ramp all independent sources from 0 in
/// ten steps, the last at exactly full scale.
SolveStatus source_stepping(const Netlist& nl, const DcOptions& opts, SolverWorkspace& ws,
                            std::vector<double>& x, SolveDiagnostics& diag) {
  x.assign(nl.unknown_count(), 0.0);
  constexpr int kSteps = 10;
  SolveStatus st = SolveStatus::kConverged;
  for (int k = 1; k <= kSteps; ++k) {
    st = newton_loop(dc_context(nl, opts.gmin_final, static_cast<double>(k) / kSteps), opts, ws,
                     x, diag);
    if (st != SolveStatus::kConverged) return st;
  }
  return st;
}

}  // namespace

namespace {

/// One counter per ladder rung, so the snapshot shows how often each
/// fallback actually earns its keep. The ladder is fixed, so the rung
/// names are a closed set and each gets a cached handle; "exhausted" is
/// the only name left after the others.
util::Counter& rung_counter(const char* rung) {
  auto& m = util::metrics();
  static util::Counter& newton = m.counter("solver.dc.rung.newton");
  static util::Counter& warm_start = m.counter("solver.dc.rung.golden-warm-start");
  static util::Counter& golden_gmin = m.counter("solver.dc.rung.golden-gmin");
  static util::Counter& gmin_step = m.counter("solver.dc.rung.gmin-step");
  static util::Counter& source_step = m.counter("solver.dc.rung.source-step");
  static util::Counter& heavy_damping = m.counter("solver.dc.rung.heavy-damping");
  static util::Counter& exhausted = m.counter("solver.dc.rung.exhausted");
  if (std::strcmp(rung, "newton") == 0) return newton;
  if (std::strcmp(rung, "golden-warm-start") == 0) return warm_start;
  if (std::strcmp(rung, "golden-gmin") == 0) return golden_gmin;
  if (std::strcmp(rung, "gmin-step") == 0) return gmin_step;
  if (std::strcmp(rung, "source-step") == 0) return source_step;
  if (std::strcmp(rung, "heavy-damping") == 0) return heavy_damping;
  return exhausted;
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
  static util::Counter& pivot_rejects = m.counter("solver.dc.pivot_rejects");
  static util::Counter& kcl_rejects = m.counter("solver.dc.kcl_rejects");
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
  pivot_rejects.add(ws_after.pivot_rejects - ws_before.pivot_rejects);
  kcl_rejects.add(ws_after.kcl_rejects - ws_before.kcl_rejects);
  if (util::Metrics::detailed_timing()) {
    static util::MetricHistogram& stamp = m.histogram("solver.dc.stamp_seconds");
    static util::MetricHistogram& factor = m.histogram("solver.dc.factor_seconds");
    static util::MetricHistogram& symbolic = m.histogram("solver.dc.symbolic_seconds");
    stamp.observe(result.diag.stamp_sec);
    factor.observe(result.diag.factor_sec);
    if (result.diag.symbolic_sec > 0.0) symbolic.observe(result.diag.symbolic_sec);
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
          newton_loop(dc_context(nl, opts.gmin_final), opts, ws, result.x, result.diag);
      if (st == SolveStatus::kConverged) {
        warm_hits.add(1);
        return finish(st, 0, "golden-warm-start");
      }
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
        newton_loop(dc_context(nl, opts.gmin_final), opts, ws, result.x, result.diag);
    if (st == SolveStatus::kConverged) {
      return finish(st, 0, "newton");
    }
  }

  // Rung 1a — gmin stepping from the golden operating point. A fault
  // whose plain warm start diverges usually still sits much closer to
  // the golden solution than to zero; continuation from the seed cuts
  // the ladder's dominant cost. A failure falls through to the flat
  // start, so the rung can only add an attempt.
  SolveStatus st;
  if (seed_usable) {
    util::TraceSpan span("dc.rung.golden-gmin", "solver");
    st = gmin_stepping(nl, opts, ws, result.x, result.diag, &seed);
    if (st == SolveStatus::kConverged) {
      return finish(st, 1, "golden-gmin");
    }
  }

  // Rung 1 — gmin stepping.
  {
    util::TraceSpan span("dc.rung.gmin-step", "solver");
    st = gmin_stepping(nl, opts, ws, result.x, result.diag);
  }
  if (st == SolveStatus::kConverged) {
    return finish(st, 1, "gmin-step");
  }

  // Rung 2 — source stepping.
  {
    util::TraceSpan span("dc.rung.source-step", "solver");
    st = source_stepping(nl, opts, ws, result.x, result.diag);
  }
  if (st == SolveStatus::kConverged) {
    return finish(st, 2, "source-step");
  }

  // Rung 3 — heavier damping: small, safe steps with a bigger budget.
  {
    util::TraceSpan span("dc.rung.heavy-damping", "solver");
    DcOptions damped = opts;
    damped.damping_limit = opts.damping_limit / 8.0;
    damped.max_iterations = opts.max_iterations * 3;
    st = gmin_stepping(nl, damped, ws, result.x, result.diag);
  }
  if (st == SolveStatus::kConverged) {
    return finish(st, 3, "heavy-damping");
  }

  return finish(st, 4, "exhausted");
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
