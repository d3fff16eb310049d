#include "support/dense_referee.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace lsl::spice {

Matrix::Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

bool lu_solve_inplace(Matrix& a, std::vector<double>& b, double pivot_floor) {
  const std::size_t n = a.rows();
  if (n == 0 || a.cols() != n || b.size() != n) return false;

  // Doolittle LU with partial pivoting, factoring in place. Rows of b
  // are swapped in tandem with the pivot rows, so no permutation vector
  // is needed.
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::fabs(a.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double cand = std::fabs(a.at(r, k));
      if (cand > best) {
        best = cand;
        piv = r;
      }
    }
    if (best < pivot_floor) return false;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a.at(k, c), a.at(piv, c));
      std::swap(b[k], b[piv]);
    }
    const double inv_pivot = 1.0 / a.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a.at(r, k) * inv_pivot;
      if (factor == 0.0) continue;
      a.at(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) a.at(r, c) -= factor * a.at(k, c);
      b[r] -= factor * b[k];
    }
  }

  // Back substitution, in place: b[ri] for ri below the current row
  // already holds the solution entries it reads.
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a.at(ri, c) * b[c];
    b[ri] = sum / a.at(ri, ri);
  }
  return true;
}

bool lu_solve(Matrix a, std::vector<double> b, std::vector<double>& x, double pivot_floor) {
  if (!lu_solve_inplace(a, b, pivot_floor)) return false;
  x = std::move(b);
  return true;
}

void stamp_system(const StampContext& ctx, const std::vector<double>& x, Matrix& g,
                  std::vector<double>& b) {
  const Netlist& nl = *ctx.nl;
  const std::size_t n = nl.unknown_count();
  g.resize(n, n);
  b.assign(n, 0.0);

  auto v_of = [&](NodeId node) { return node_voltage(nl, x, node); };
  auto add_g = [&](NodeId a, NodeId bn, double cond) {
    if (a != kGround) {
      g.at(nl.voltage_index(a), nl.voltage_index(a)) += cond;
      if (bn != kGround) g.at(nl.voltage_index(a), nl.voltage_index(bn)) -= cond;
    }
    if (bn != kGround) {
      g.at(nl.voltage_index(bn), nl.voltage_index(bn)) += cond;
      if (a != kGround) g.at(nl.voltage_index(bn), nl.voltage_index(a)) -= cond;
    }
  };
  // Current `i` flowing from node p through an element to node n.
  auto add_i = [&](NodeId p, NodeId nn, double i) {
    if (p != kGround) b[nl.voltage_index(p)] -= i;
    if (nn != kGround) b[nl.voltage_index(nn)] += i;
  };

  // gmin to ground on every non-ground node.
  for (NodeId node = 1; node < nl.node_count(); ++node) {
    g.at(nl.voltage_index(node), nl.voltage_index(node)) += ctx.gmin;
  }

  const auto& devices = nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;

    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      if (r->ohms <= 0.0) throw std::invalid_argument("non-positive resistance: " + dev.name);
      add_g(r->a, r->b, 1.0 / r->ohms);
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      if (ctx.dt > 0.0) {
        const double vab_prev = ctx.prev_node_v->at(c->a) - ctx.prev_node_v->at(c->b);
        if (ctx.integrator == Integrator::kTrapezoidal) {
          // Trapezoidal companion: i(a->b) = (2C/dt)*(vab - vab_prev)
          // - i_prev; conductance 2C/dt with the previous voltage AND
          // the previous current in the history source.
          const double gc = 2.0 * c->farads / ctx.dt;
          add_g(c->a, c->b, gc);
          add_i(c->b, c->a, gc * vab_prev + ctx.prev_cap_i->at(di));
        } else {
          // Backward-Euler companion: i(a->b) = gc*(vab - vab_prev); the
          // history term is a current source b -> a of gc*vab_prev.
          const double gc = c->farads / ctx.dt;
          add_g(c->a, c->b, gc);
          add_i(c->b, c->a, gc * vab_prev);
        }
      }
      // DC: capacitor is open; gmin keeps isolated nodes defined.
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      double value = vs->volts;
      if (ctx.vsrc_override != nullptr) {
        for (const auto& [device, volts] : *ctx.vsrc_override) {
          if (device == di) value = volts;
        }
      }
      if (vs->p != kGround) {
        g.at(nl.voltage_index(vs->p), bi) += 1.0;
        g.at(bi, nl.voltage_index(vs->p)) += 1.0;
      }
      if (vs->n != kGround) {
        g.at(nl.voltage_index(vs->n), bi) -= 1.0;
        g.at(bi, nl.voltage_index(vs->n)) -= 1.0;
      }
      b[bi] = value * ctx.source_scale;
    } else if (const auto* is = std::get_if<ISource>(&dev.impl)) {
      add_i(is->p, is->n, is->amps * ctx.source_scale);
    } else if (const auto* e = std::get_if<Vcvs>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      if (e->p != kGround) {
        g.at(nl.voltage_index(e->p), bi) += 1.0;
        g.at(bi, nl.voltage_index(e->p)) += 1.0;
      }
      if (e->n != kGround) {
        g.at(nl.voltage_index(e->n), bi) -= 1.0;
        g.at(bi, nl.voltage_index(e->n)) -= 1.0;
      }
      if (e->cp != kGround) g.at(bi, nl.voltage_index(e->cp)) -= e->gain;
      if (e->cn != kGround) g.at(bi, nl.voltage_index(e->cn)) += e->gain;
    } else if (const auto* m = std::get_if<Mosfet>(&dev.impl)) {
      const double vd = v_of(m->d);
      const double vg = v_of(m->g);
      const double vsv = v_of(m->s);
      const MosEval ev = eval_mosfet(mos_params(*m, nl.model()), vd, vg, vsv);
      // Linearized drain current: id ~= id0 + J . (v - v0). Stamp the
      // Jacobian terms and fold the affine remainder into the RHS.
      auto stamp_row = [&](NodeId row, double sign) {
        if (row == kGround) return;
        const std::size_t ri = nl.voltage_index(row);
        if (m->d != kGround) g.at(ri, nl.voltage_index(m->d)) += sign * ev.d_vd;
        if (m->g != kGround) g.at(ri, nl.voltage_index(m->g)) += sign * ev.d_vg;
        if (m->s != kGround) g.at(ri, nl.voltage_index(m->s)) += sign * ev.d_vs;
      };
      stamp_row(m->d, +1.0);
      stamp_row(m->s, -1.0);
      const double ieq = ev.id - ev.d_vd * vd - ev.d_vg * vg - ev.d_vs * vsv;
      add_i(m->d, m->s, ieq);
    }
  }
}

double dense_newton_step(const StampContext& ctx, const std::vector<double>& x) {
  Matrix g;
  std::vector<double> b;
  stamp_system(ctx, x, g, b);
  if (!lu_solve_inplace(g, b)) return std::numeric_limits<double>::infinity();
  double step = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) step = std::max(step, std::fabs(b[i] - x[i]));
  return step;
}

bool kcl_balanced(const StampContext& ctx, const std::vector<double>& x) {
  Matrix g;
  std::vector<double> b;
  stamp_system(ctx, x, g, b);
  for (std::size_t i = 0; i + 1 < ctx.nl->node_count(); ++i) {
    double r = -b[i];
    double scale = std::fabs(b[i]);
    for (std::size_t j = 0; j < x.size(); ++j) {
      r += g.at(i, j) * x[j];
      scale += std::fabs(g.at(i, j) * x[j]);
    }
    if (!(std::fabs(r) <= 1e-3 * scale + 1e-12)) return false;
  }
  return true;
}

}  // namespace lsl::spice
