#include "spice/stamp.hpp"

#include <stdexcept>

#include "spice/workspace.hpp"

namespace lsl::spice {

double node_voltage(const Netlist& nl, const std::vector<double>& x, NodeId node) {
  if (node == kGround) return 0.0;
  return x.at(nl.voltage_index(node));
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

std::vector<double> mna_residual(const StampContext& ctx, const std::vector<double>& x) {
  // O(nnz) via the calling thread's solver workspace: the sparse stamp
  // produces the same G and b entries as stamp_system, and the residual
  // walk touches only the pattern instead of every (i, j) pair.
  std::vector<double> r;
  SolverWorkspace::tls().mna_residual(ctx, x, r);
  return r;
}

double kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x) {
  return SolverWorkspace::tls().kcl_residual_norm(ctx, x);
}

}  // namespace lsl::spice
