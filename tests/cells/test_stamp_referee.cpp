// Bit-identity referee for the solver workspace's in-place Newton
// kernels. The workspace keeps its linear base in the LU factor's
// layout, stamps the MOSFETs straight into the factor's storage,
// factors it where it lies and solves with the permutations folded into
// the substitutions. The reference below stamps the same system into
// a CSR matrix A — the same pattern, source pairing and additions in the
// same order (gmin, the linear devices in device order, then the
// MOSFETs) — and runs SparseLu::factor(A) and solve on it. Solutions,
// singular verdicts and the KCL residuals must agree to the bit, on the
// analog frontend's stage systems and their faulted copies, at DC and
// on both transient companions, across repeated solves on one warm
// workspace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "cells/link_frontend.hpp"
#include "fault/structural.hpp"
#include "spice/sparse.hpp"
#include "spice/stamp.hpp"
#include "spice/workspace.hpp"

namespace lsl::spice {
namespace {

/// A, b and the source pairing as the reference stamps them.
struct ReferenceSystem {
  SparseMatrix a;
  std::vector<double> b;
  std::vector<std::size_t> row_map;
  std::size_t n_volts = 0;
};

std::ptrdiff_t unknown(const Netlist& nl, NodeId node) {
  return node == kGround ? -1 : static_cast<std::ptrdiff_t>(nl.voltage_index(node));
}

/// Calls `term(r, c, capacitor, value)` for every linear term of the
/// system in the order they are added: gmin on each node diagonal, then
/// the devices in device order (a capacitor's value unscaled). Used
/// twice, once to note the pattern and once to add the values.
template <class Term>
void linear_terms(const StampContext& ctx, Term term) {
  const Netlist& nl = *ctx.nl;
  for (std::size_t i = 0; i + 1 < nl.node_count(); ++i) {
    term(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(i), false, ctx.gmin);
  }
  const auto conductance = [&](NodeId a, NodeId b, bool capacitor, double value) {
    const std::ptrdiff_t ia = unknown(nl, a);
    const std::ptrdiff_t ib = unknown(nl, b);
    if (ia >= 0) {
      term(ia, ia, capacitor, value);
      if (ib >= 0) term(ia, ib, capacitor, -value);
    }
    if (ib >= 0) {
      term(ib, ib, capacitor, value);
      if (ia >= 0) term(ib, ia, capacitor, -value);
    }
  };
  const auto incidence = [&](std::ptrdiff_t bi, NodeId p, NodeId n) {
    if (p != kGround) {
      term(unknown(nl, p), bi, false, 1.0);
      term(bi, unknown(nl, p), false, 1.0);
    }
    if (n != kGround) {
      term(unknown(nl, n), bi, false, -1.0);
      term(bi, unknown(nl, n), false, -1.0);
    }
  };
  const auto& devices = nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      conductance(r->a, r->b, false, 1.0 / r->ohms);
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      conductance(c->a, c->b, true, c->farads);
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      incidence(static_cast<std::ptrdiff_t>(nl.branch_index(di)), vs->p, vs->n);
    } else if (const auto* e = std::get_if<Vcvs>(&dev.impl)) {
      const auto bi = static_cast<std::ptrdiff_t>(nl.branch_index(di));
      incidence(bi, e->p, e->n);
      if (e->cp != kGround) term(bi, unknown(nl, e->cp), false, -e->gain);
      if (e->cn != kGround) term(bi, unknown(nl, e->cn), false, e->gain);
    }
  }
}

ReferenceSystem reference_system(const StampContext& ctx, const std::vector<double>& x) {
  const Netlist& nl = *ctx.nl;
  nl.reindex();
  const std::size_t n = nl.unknown_count();
  ReferenceSystem sys;
  sys.n_volts = nl.node_count() - 1;
  const auto& devices = nl.devices();

  // The pattern: every coordinate any configuration touches (capacitor
  // entries included at DC), and every MOSFET row d / s across columns
  // d, g, s.
  SparseMatrix& a = sys.a;
  a.begin_pattern(n);
  linear_terms(ctx, [&](std::ptrdiff_t r, std::ptrdiff_t c, bool, double) {
    a.note(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  });
  for (const Device& dev : devices) {
    const auto* m = std::get_if<Mosfet>(&dev.impl);
    if (!dev.enabled || m == nullptr) continue;
    for (const NodeId row : {m->d, m->s}) {
      if (row == kGround) continue;
      for (const NodeId col : {m->d, m->g, m->s}) {
        if (col != kGround) a.note(nl.voltage_index(row), nl.voltage_index(col));
      }
    }
  }
  a.finalize_pattern();
  const auto slot = [&](std::ptrdiff_t r, std::ptrdiff_t c) {
    return a.slot(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };

  // Source pairing: branch row bi swaps with the KCL row of p, else n,
  // skipping ground and nodes already paired.
  sys.row_map.resize(n);
  std::iota(sys.row_map.begin(), sys.row_map.end(), std::size_t{0});
  for (std::size_t di = 0; di < devices.size(); ++di) {
    if (!devices[di].enabled) continue;
    NodeId p = kGround;
    NodeId m = kGround;
    if (const auto* vs = std::get_if<VSource>(&devices[di].impl)) {
      p = vs->p;
      m = vs->n;
    } else if (const auto* e = std::get_if<Vcvs>(&devices[di].impl)) {
      p = e->p;
      m = e->n;
    } else {
      continue;
    }
    const std::size_t bi = nl.branch_index(di);
    for (const NodeId node : {p, m}) {
      if (node == kGround) continue;
      const std::size_t v = nl.voltage_index(node);
      if (sys.row_map[v] != v) continue;
      sys.row_map[v] = bi;
      sys.row_map[bi] = v;
      break;
    }
  }

  // The values: the linear terms (a capacitor's scaled by the
  // integrator and dt), then the MOSFET Jacobians, each added in turn.
  a.zero();
  const double k = ctx.integrator == Integrator::kTrapezoidal ? 2.0 : 1.0;
  linear_terms(ctx, [&](std::ptrdiff_t r, std::ptrdiff_t c, bool capacitor, double value) {
    if (!capacitor) {
      a.add(slot(r, c), value);
    } else if (ctx.dt > 0.0) {
      a.add(slot(r, c), k * value / ctx.dt);
    }
  });

  // b: capacitor companions and sources in device order, then the
  // MOSFETs' affine remainders.
  sys.b.assign(n, 0.0);
  const auto add_i = [&](std::ptrdiff_t from, std::ptrdiff_t to, double i) {
    if (from >= 0) sys.b[static_cast<std::size_t>(from)] -= i;
    if (to >= 0) sys.b[static_cast<std::size_t>(to)] += i;
  };
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      if (ctx.dt <= 0.0) continue;
      const double vab_prev = ctx.prev_node_v->at(c->a) - ctx.prev_node_v->at(c->b);
      if (ctx.integrator == Integrator::kTrapezoidal) {
        const double gc = 2.0 * c->farads / ctx.dt;
        add_i(unknown(nl, c->b), unknown(nl, c->a), gc * vab_prev + ctx.prev_cap_i->at(di));
      } else {
        const double gc = c->farads / ctx.dt;
        add_i(unknown(nl, c->b), unknown(nl, c->a), gc * vab_prev);
      }
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      sys.b[nl.branch_index(di)] = vs->volts * ctx.source_scale;
    } else if (const auto* is = std::get_if<ISource>(&dev.impl)) {
      add_i(unknown(nl, is->p), unknown(nl, is->n), is->amps * ctx.source_scale);
    }
  }
  for (const Device& dev : devices) {
    const auto* m = std::get_if<Mosfet>(&dev.impl);
    if (!dev.enabled || m == nullptr) continue;
    const std::ptrdiff_t xd = unknown(nl, m->d);
    const std::ptrdiff_t xg = unknown(nl, m->g);
    const std::ptrdiff_t xs = unknown(nl, m->s);
    const double vd = xd >= 0 ? x[static_cast<std::size_t>(xd)] : 0.0;
    const double vg = xg >= 0 ? x[static_cast<std::size_t>(xg)] : 0.0;
    const double vs = xs >= 0 ? x[static_cast<std::size_t>(xs)] : 0.0;
    const MosEval ev = eval_mosfet(mos_params(*m, nl.model()), vd, vg, vs);
    auto& av = a.values();
    if (xd >= 0) {
      av[slot(xd, xd)] += ev.d_vd;
      if (xg >= 0) av[slot(xd, xg)] += ev.d_vg;
      if (xs >= 0) av[slot(xd, xs)] += ev.d_vs;
    }
    if (xs >= 0) {
      if (xd >= 0) av[slot(xs, xd)] -= ev.d_vd;
      if (xg >= 0) av[slot(xs, xg)] -= ev.d_vg;
      av[slot(xs, xs)] -= ev.d_vs;
    }
    const double ieq = ev.id - ev.d_vd * vd - ev.d_vg * vg - ev.d_vs * vs;
    add_i(xd, xs, ieq);
  }
  return sys;
}

/// Row i of A·x − b, accumulated as the workspace's residual walks do,
/// and the row's scale Σ|terms| for the KCL exit check.
double row_residual(const ReferenceSystem& sys, const std::vector<double>& x, std::size_t i,
                    double& scale) {
  const auto& rp = sys.a.row_ptr();
  const auto& ci = sys.a.col_idx();
  const auto& av = sys.a.values();
  double r = -sys.b[i];
  scale = std::fabs(sys.b[i]);
  for (std::size_t s = rp[i]; s < rp[i + 1]; ++s) {
    const double term = av[s] * x[ci[s]];
    r += term;
    scale += std::fabs(term);
  }
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// How many solves the referee compared and how many both sides
/// rejected as singular, so the test can show it is not vacuous.
struct Tally {
  int solved = 0;
  int singular = 0;
  int kcl_passed = 0;
};

/// Solves `ctx` about each iterate on one warm workspace and on the
/// reference, comparing every bit.
void referee(const std::string& name, SolverWorkspace& ws, const StampContext& ctx,
             const std::vector<std::vector<double>>& iterates, Tally& tally) {
  for (std::size_t it = 0; it < iterates.size(); ++it) {
    const std::vector<double>& x = iterates[it];
    const std::string where = name + " iterate " + std::to_string(it);
    const ReferenceSystem sys = reference_system(ctx, x);
    const std::size_t n = sys.a.dim();
    SparseLu ref;
    ref.analyze(sys.a, sys.n_volts, sys.row_map);
    const bool ref_ok = ref.factor(sys.a, 1e-18);
    std::vector<double> x_ref(n, 0.0);
    if (ref_ok) ref.solve(sys.b, x_ref);

    SolverWorkspace::NewtonBinding binding;
    std::vector<double> x_new(n, 0.0);
    const bool ok = ws.solve_newton_system(ctx, binding, x, x_new);
    ASSERT_EQ(ok, ref_ok) << where;
    ++(ok ? tally.solved : tally.singular);
    if (ok) {
      EXPECT_EQ(std::memcmp(x_new.data(), x_ref.data(), n * sizeof(double)), 0) << where;
    }

    // The residual walks read A through the LU slot map.
    std::vector<double> r;
    ws.mna_residual(ctx, x, r);
    ASSERT_EQ(r.size(), n) << where;
    double worst = 0.0;
    bool kcl_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      double scale = 0.0;
      const double ri = row_residual(sys, x, i, scale);
      EXPECT_TRUE(same_bits(r[i], ri)) << where << " row " << i;
      if (i < sys.n_volts) {
        worst = std::max(worst, std::fabs(ri));
        kcl_ok = kcl_ok && std::fabs(ri) <= 1e-3 * scale + 1e-12;
      }
    }
    EXPECT_TRUE(same_bits(ws.kcl_residual_norm(ctx, x), worst)) << where;
    EXPECT_EQ(ws.kcl_satisfied(ctx, binding, x), kcl_ok) << where;
    tally.kcl_passed += kcl_ok ? 1 : 0;
  }
}

TEST(StampReferee, InPlaceKernelsMatchFactorOfAOnFrontendStageSystemsAndFaultedCopies) {
  // The DC stage runs the closed-loop frontend, scan and BIST the open
  // loop (scan mode and pump drives move source values only).
  cells::LinkFrontend open_loop;
  cells::LinkFrontendSpec closed_spec;
  closed_spec.close_coarse_loop = true;
  cells::LinkFrontend closed_loop(closed_spec);
  cells::LinkFrontend scan = open_loop;
  scan.set_scan_mode(true);
  cells::LinkFrontend bist = open_loop;
  bist.set_pump(true, false);

  std::vector<std::pair<std::string, cells::LinkFrontend>> systems = {
      {"dc (closed loop)", closed_loop}, {"scan", scan}, {"bist", bist}};
  const auto faults = fault::enumerate_structural_faults(open_loop.netlist(), {},
                                                        fault::test_circuitry_prefixes());
  ASSERT_FALSE(faults.empty());
  for (std::size_t k = 0; k < faults.size(); k += 29) {
    for (const auto* golden : {&open_loop, &closed_loop}) {
      cells::LinkFrontend faulty = *golden;
      const auto vdd = *faulty.netlist().find_node("vdd");
      ASSERT_TRUE(fault::inject(faulty.netlist(), faults[k],
                                fault::bulk_leak(faulty.netlist(), faults[k]), vdd));
      systems.emplace_back(faults[k].describe(), std::move(faulty));
    }
  }

  Tally tally;
  for (auto& [name, fe] : systems) {
    const Netlist& nl = fe.netlist();
    const DcResult op = fe.solve();
    std::vector<double> x_op = op.x;
    x_op.resize(nl.unknown_count(), 0.0);
    std::vector<double> x_half = x_op;
    for (double& v : x_half) v *= 0.5;
    const std::vector<std::vector<double>> iterates = {
        x_op, std::vector<double>(nl.unknown_count(), 0.0), x_half, x_op};

    // One workspace per system: the DC configuration, then both
    // transient companions, reuse one structure with three linear bases.
    SolverWorkspace ws;
    StampContext ctx;
    ctx.nl = &nl;
    referee(name + " (dc)", ws, ctx, iterates, tally);
    std::vector<double> prev_v(nl.node_count(), 0.0);
    for (NodeId node = 1; node < nl.node_count(); ++node) prev_v[node] = x_op[node - 1];
    std::vector<double> prev_i(nl.devices().size(), 0.0);
    for (std::size_t di = 0; di < prev_i.size(); ++di) prev_i[di] = 1e-6 * std::sin(di + 1.0);
    ctx.dt = 1e-11;
    ctx.prev_node_v = &prev_v;
    ctx.prev_cap_i = &prev_i;
    for (const Integrator integ : {Integrator::kTrapezoidal, Integrator::kBackwardEuler}) {
      ctx.integrator = integ;
      referee(name + (integ == Integrator::kTrapezoidal ? " (trap)" : " (be)"), ws, ctx,
              iterates, tally);
    }
    EXPECT_EQ(ws.stats().symbolic_builds, 1u) << name;
  }
  EXPECT_GE(tally.solved, static_cast<int>(10 * systems.size()));
  EXPECT_GE(tally.kcl_passed, static_cast<int>(systems.size()));
}

}  // namespace
}  // namespace lsl::spice
