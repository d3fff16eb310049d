#include "spice/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "spice/stamp.hpp"
#include "spice/workspace.hpp"
#include "util/log.hpp"

namespace lsl::spice {

namespace {

using Complex = std::complex<double>;

/// Minimal dense complex LU solve, in place: factors `a` with partial
/// pivoting, permutes `b` in tandem, writes the solution into `x`.
/// Allocation-free when `x` is pre-sized.
bool lu_solve_complex(std::vector<Complex>& a, std::vector<Complex>& b, std::size_t n,
                      std::vector<Complex>& x) {
  auto at = [&](std::size_t r, std::size_t c) -> Complex& { return a[r * n + c]; };
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(at(r, k)) > best) {
        best = std::abs(at(r, k));
        piv = r;
      }
    }
    if (best < 1e-18) return false;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(at(k, c), at(piv, c));
      std::swap(b[k], b[piv]);
    }
    const Complex inv_pivot = 1.0 / at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex factor = at(r, k) * inv_pivot;
      if (factor == Complex{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) at(r, c) -= factor * at(k, c);
      b[r] -= factor * b[k];
    }
  }
  x.assign(n, Complex{});
  for (std::size_t ri = n; ri-- > 0;) {
    Complex sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a[ri * n + c] * x[c];
    x[ri] = sum / a[ri * n + ri];
  }
  return true;
}

}  // namespace

const std::vector<std::complex<double>>& AcResult::probe(const std::string& name) const {
  const auto it = v.find(name);
  if (it == v.end()) throw std::invalid_argument("no such AC probe: " + name);
  return it->second;
}

double AcResult::mag(const std::string& name, std::size_t i) const {
  return std::abs(probe(name).at(i));
}

double AcResult::mag_db(const std::string& name, std::size_t i) const {
  return 20.0 * std::log10(std::max(mag(name, i), 1e-30));
}

double AcResult::phase_deg(const std::string& name, std::size_t i) const {
  return std::arg(probe(name).at(i)) * 180.0 / M_PI;
}

std::vector<double> log_frequencies(double f_lo, double f_hi, std::size_t points) {
  std::vector<double> out;
  out.reserve(points);
  const double ratio = std::log10(f_hi / f_lo);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac = points == 1 ? 0.0 : static_cast<double>(i) / (points - 1);
    out.push_back(f_lo * std::pow(10.0, ratio * frac));
  }
  return out;
}

AcResult run_ac(const Netlist& nl, const std::string& ac_source_name,
                const std::vector<double>& freqs, const std::vector<std::string>& probes,
                const AcOptions& opts) {
  return run_ac(nl, ac_source_name, freqs, probes, opts, SolverWorkspace::tls());
}

AcResult run_ac(const Netlist& nl, const std::string& ac_source_name,
                const std::vector<double>& freqs, const std::vector<std::string>& probes,
                const AcOptions& opts, SolverWorkspace& ws) {
  nl.reindex();
  AcResult result;

  const auto src_idx = nl.find_device(ac_source_name);
  if (!src_idx.has_value() ||
      !std::holds_alternative<VSource>(nl.device(*src_idx).impl)) {
    throw std::invalid_argument("AC source must be an existing VSource: " + ac_source_name);
  }

  // Operating point.
  const DcResult op = solve_dc(nl, opts.op, ws);
  result.op_diag = op.diag;
  if (!op.converged) {
    result.status = op.status;
    util::log_warn("run_ac: operating point failed to converge (" + to_string(op.status) + ")");
    return result;
  }

  // Probe set.
  std::vector<std::pair<std::string, NodeId>> probe_nodes;
  if (probes.empty()) {
    for (NodeId id = 1; id < nl.node_count(); ++id) probe_nodes.emplace_back(nl.node_name(id), id);
  } else {
    for (const auto& name : probes) {
      const auto id = nl.find_node(name);
      if (!id.has_value()) throw std::invalid_argument("unknown AC probe node: " + name);
      probe_nodes.emplace_back(name, *id);
    }
  }
  for (const auto& [name, id] : probe_nodes) result.v.emplace(name, std::vector<Complex>{});

  const std::size_t n = nl.unknown_count();
  auto v_of = [&](NodeId node) { return node_voltage(nl, op.x, node); };

  // Workspace-owned complex buffers, reused across frequency points
  // (the per-point cost used to include an n² allocation + zero fill of
  // a fresh matrix; now it is just the zero fill).
  std::vector<Complex>& g = ws.ac_matrix();
  std::vector<Complex>& b = ws.ac_rhs();
  std::vector<Complex>& x = ws.ac_solution();

  for (const double f : freqs) {
    const double w = 2.0 * M_PI * f;
    g.assign(n * n, Complex{});
    b.assign(n, Complex{});
    auto gat = [&](std::size_t r, std::size_t c) -> Complex& { return g[r * n + c]; };

    auto add_adm = [&](NodeId a, NodeId bn, Complex y) {
      if (a != kGround) {
        gat(nl.voltage_index(a), nl.voltage_index(a)) += y;
        if (bn != kGround) gat(nl.voltage_index(a), nl.voltage_index(bn)) -= y;
      }
      if (bn != kGround) {
        gat(nl.voltage_index(bn), nl.voltage_index(bn)) += y;
        if (a != kGround) gat(nl.voltage_index(bn), nl.voltage_index(a)) -= y;
      }
    };

    // Small gmin for numerical robustness.
    for (NodeId node = 1; node < nl.node_count(); ++node) {
      gat(nl.voltage_index(node), nl.voltage_index(node)) += 1e-12;
    }

    const auto& devices = nl.devices();
    for (std::size_t di = 0; di < devices.size(); ++di) {
      const Device& dev = devices[di];
      if (!dev.enabled) continue;

      if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
        add_adm(r->a, r->b, Complex{1.0 / r->ohms, 0.0});
      } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
        add_adm(c->a, c->b, Complex{0.0, w * c->farads});
      } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
        const std::size_t bi = nl.branch_index(di);
        if (vs->p != kGround) {
          gat(nl.voltage_index(vs->p), bi) += 1.0;
          gat(bi, nl.voltage_index(vs->p)) += 1.0;
        }
        if (vs->n != kGround) {
          gat(nl.voltage_index(vs->n), bi) -= 1.0;
          gat(bi, nl.voltage_index(vs->n)) -= 1.0;
        }
        b[bi] = (di == *src_idx) ? Complex{1.0, 0.0} : Complex{};
      } else if (std::get_if<ISource>(&dev.impl) != nullptr) {
        // Independent current sources are AC opens.
      } else if (const auto* e = std::get_if<Vcvs>(&dev.impl)) {
        const std::size_t bi = nl.branch_index(di);
        if (e->p != kGround) {
          gat(nl.voltage_index(e->p), bi) += 1.0;
          gat(bi, nl.voltage_index(e->p)) += 1.0;
        }
        if (e->n != kGround) {
          gat(nl.voltage_index(e->n), bi) -= 1.0;
          gat(bi, nl.voltage_index(e->n)) -= 1.0;
        }
        if (e->cp != kGround) gat(bi, nl.voltage_index(e->cp)) -= e->gain;
        if (e->cn != kGround) gat(bi, nl.voltage_index(e->cn)) += e->gain;
      } else if (const auto* m = std::get_if<Mosfet>(&dev.impl)) {
        // Linearize at the operating point: general 3-terminal Jacobian,
        // same stamps as DC but without the affine remainder.
        const MosEval ev = eval_mosfet(*m, nl.model(), v_of(m->d), v_of(m->g), v_of(m->s));
        auto stamp_row = [&](NodeId row, double sign) {
          if (row == kGround) return;
          const std::size_t ri = nl.voltage_index(row);
          if (m->d != kGround) gat(ri, nl.voltage_index(m->d)) += sign * ev.d_vd;
          if (m->g != kGround) gat(ri, nl.voltage_index(m->g)) += sign * ev.d_vg;
          if (m->s != kGround) gat(ri, nl.voltage_index(m->s)) += sign * ev.d_vs;
        };
        stamp_row(m->d, +1.0);
        stamp_row(m->s, -1.0);
      }
    }

    if (!lu_solve_complex(g, b, n, x)) {
      result.status = SolveStatus::kSingularMatrix;
      result.failed_freq = f;
      util::log_warn("run_ac: singular system at f=" + std::to_string(f));
      return result;
    }
    result.freq.push_back(f);
    for (const auto& [name, id] : probe_nodes) {
      result.v[name].push_back(id == kGround ? Complex{} : x[nl.voltage_index(id)]);
    }
  }
  result.ok = true;
  result.status = SolveStatus::kConverged;
  return result;
}

}  // namespace lsl::spice
