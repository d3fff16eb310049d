#include "spice/workspace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/metrics.hpp"

namespace lsl::spice {

SolverTuning& solver_tuning() {
  static SolverTuning tuning;
  return tuning;
}

SolverWorkspace& SolverWorkspace::tls() {
  thread_local SolverWorkspace ws;
  return ws;
}

void SolverWorkspace::clear() {
  entries_.clear();
  lru_tick_ = 0;
}

void SolverWorkspace::seed_from(const std::vector<double>& x) {
  pending_seed_ = x;
  has_pending_seed_ = true;
}

void SolverWorkspace::seed_from(std::vector<double>&& x) {
  pending_seed_ = std::move(x);
  has_pending_seed_ = true;
}

bool SolverWorkspace::take_pending_seed(std::vector<double>& out) {
  if (!has_pending_seed_) return false;
  out.swap(pending_seed_);
  pending_seed_.clear();
  has_pending_seed_ = false;
  return true;
}

namespace {

inline std::ptrdiff_t unknown_of(const Netlist& nl, NodeId node) {
  if (node == kGround) return -1;
  return static_cast<std::ptrdiff_t>(nl.voltage_index(node));
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

inline void mix_double(std::uint64_t& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  mix(h, bits);
}

/// FNV-1a over everything that shapes the MNA matrix: node count, model
/// card, and each device's kind, enabled flag, terminals,
/// and matrix-entering values — in device order, so the sequence itself
/// is part of the key. Deliberately excluded: device *names* (fault
/// copies rename nothing else) and RHS-only values (VSource::volts,
/// ISource::amps), which the solver rereads every iteration. Disabled
/// devices still contribute their kind/terminals so that enabling one
/// changes the key.
std::uint64_t structural_key(const Netlist& nl) {
  std::uint64_t h = kFnvOffset;
  mix(h, nl.node_count());
  const ModelCard& mc = nl.model();
  mix_double(h, mc.kp_n);
  mix_double(h, mc.kp_p);
  mix_double(h, mc.vt_n);
  mix_double(h, mc.vt_p);
  mix_double(h, mc.lambda_n);
  mix_double(h, mc.lambda_p);
  const auto& devices = nl.devices();
  for (const Device& dev : devices) {
    mix(h, (static_cast<std::uint64_t>(dev.impl.index()) << 1) | (dev.enabled ? 1u : 0u));
    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      mix(h, r->a);
      mix(h, r->b);
      mix_double(h, r->ohms);
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      mix(h, c->a);
      mix(h, c->b);
      mix_double(h, c->farads);
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      mix(h, vs->p);
      mix(h, vs->n);
    } else if (const auto* is = std::get_if<ISource>(&dev.impl)) {
      mix(h, is->p);
      mix(h, is->n);
    } else if (const auto* vcvs = std::get_if<Vcvs>(&dev.impl)) {
      mix(h, vcvs->p);
      mix(h, vcvs->n);
      mix(h, vcvs->cp);
      mix(h, vcvs->cn);
      mix_double(h, vcvs->gain);
    } else if (const auto* mos = std::get_if<Mosfet>(&dev.impl)) {
      mix(h, mos->d);
      mix(h, mos->g);
      mix(h, mos->s);
      mix(h, mos->type == MosType::kNmos ? 1u : 2u);
      mix_double(h, mos->w);
      mix_double(h, mos->l);
      mix_double(h, mos->vt_delta);
    }
  }
  return h;
}

}  // namespace

std::uint64_t SolverWorkspace::entry_key(const StampContext& ctx) {
  const std::uint64_t gen = ctx.nl->generation();
  for (const KeyMemo& m : key_memo_) {
    if (m.valid && m.generation == gen) return m.key;
  }
  const std::uint64_t key = structural_key(*ctx.nl);
  KeyMemo& slot = key_memo_[key_memo_next_];
  key_memo_next_ = (key_memo_next_ + 1) % key_memo_.size();
  slot.valid = true;
  slot.generation = gen;
  slot.key = key;
  return key;
}

SolverWorkspace::Entry& SolverWorkspace::entry_for(const StampContext& ctx) {
  const std::uint64_t key = entry_key(ctx);
  ++lru_tick_;
  for (auto& e : entries_) {
    if (!e->used || e->key != key) continue;
    if (e->n == ctx.nl->unknown_count() && e->n_volts == ctx.nl->node_count() - 1) {
      e->last_use = lru_tick_;
      ++stats_.symbolic_reuse;
      return *e;
    }
    // Hash collision (same key, different structure): rebuild in place
    // so two entries never share a key.
    build_entry(*e, ctx);
    e->last_use = lru_tick_;
    ++stats_.symbolic_builds;
    return *e;
  }
  Entry* slot = nullptr;
  if (entries_.size() < kMaxEntries) {
    entries_.push_back(std::make_unique<Entry>());
    slot = entries_.back().get();
  } else {
    slot = entries_.front().get();
    for (auto& e : entries_) {
      if (e->last_use < slot->last_use) slot = e.get();
    }
  }
  build_entry(*slot, ctx);
  slot->key = key;
  slot->used = true;
  slot->last_use = lru_tick_;
  ++stats_.symbolic_builds;
  return *slot;
}

void SolverWorkspace::build_entry(Entry& e, const StampContext& ctx) {
  const Netlist& nl = *ctx.nl;
  const std::size_t n = nl.unknown_count();  // reindexes if needed
  e.n = n;
  e.n_volts = nl.node_count() - 1;
  e.base_valid = false;
  e.mos.clear();

  // Pattern: every coordinate any stamp configuration can touch. The
  // capacitor slots are noted unconditionally so the same pattern (and
  // symbolic factorization) serves DC (dt = 0) and every timestep.
  SparseMatrix& m = e.mat;
  m.begin_pattern(n);
  auto note_pair = [&](NodeId a, NodeId b) {
    const std::ptrdiff_t ia = unknown_of(nl, a);
    const std::ptrdiff_t ib = unknown_of(nl, b);
    if (ia >= 0 && ib >= 0) {
      m.note(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib));
      m.note(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia));
    }
    // Diagonals are in the pattern implicitly.
  };
  const auto& devices = nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      note_pair(r->a, r->b);
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      note_pair(c->a, c->b);
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      if (vs->p != kGround) {
        m.note(nl.voltage_index(vs->p), bi);
        m.note(bi, nl.voltage_index(vs->p));
      }
      if (vs->n != kGround) {
        m.note(nl.voltage_index(vs->n), bi);
        m.note(bi, nl.voltage_index(vs->n));
      }
    } else if (std::get_if<ISource>(&dev.impl) != nullptr) {
      // RHS only.
    } else if (const auto* vcvs = std::get_if<Vcvs>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      if (vcvs->p != kGround) {
        m.note(nl.voltage_index(vcvs->p), bi);
        m.note(bi, nl.voltage_index(vcvs->p));
      }
      if (vcvs->n != kGround) {
        m.note(nl.voltage_index(vcvs->n), bi);
        m.note(bi, nl.voltage_index(vcvs->n));
      }
      if (vcvs->cp != kGround) m.note(bi, nl.voltage_index(vcvs->cp));
      if (vcvs->cn != kGround) m.note(bi, nl.voltage_index(vcvs->cn));
    } else if (const auto* mos = std::get_if<Mosfet>(&dev.impl)) {
      const std::ptrdiff_t xd = unknown_of(nl, mos->d);
      const std::ptrdiff_t xg = unknown_of(nl, mos->g);
      const std::ptrdiff_t xs = unknown_of(nl, mos->s);
      for (const std::ptrdiff_t row : {xd, xs}) {
        if (row < 0) continue;
        for (const std::ptrdiff_t col : {xd, xg, xs}) {
          if (col >= 0) m.note(static_cast<std::size_t>(row), static_cast<std::size_t>(col));
        }
      }
    }
  }
  m.finalize_pattern();

  e.diag_slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) e.diag_slot[i] = m.slot(i, i);

  // Precomputed MOSFET stamp slots (the only per-iteration matrix work).
  // Device indices are raw; hash-equal netlists agree on them because
  // the device sequence is part of the key.
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    const auto* mos = std::get_if<Mosfet>(&dev.impl);
    if (mos == nullptr) continue;
    MosSlots ms;
    ms.device = di;
    ms.xd = unknown_of(nl, mos->d);
    ms.xg = unknown_of(nl, mos->g);
    ms.xs = unknown_of(nl, mos->s);
    auto row_slots = [&](std::ptrdiff_t row, std::size_t& sd, std::size_t& sg, std::size_t& ss) {
      if (row < 0) return;
      const std::size_t r = static_cast<std::size_t>(row);
      if (ms.xd >= 0) sd = m.slot(r, static_cast<std::size_t>(ms.xd));
      if (ms.xg >= 0) sg = m.slot(r, static_cast<std::size_t>(ms.xg));
      if (ms.xs >= 0) ss = m.slot(r, static_cast<std::size_t>(ms.xs));
    };
    row_slots(ms.xd, ms.dd, ms.dg, ms.ds);
    row_slots(ms.xs, ms.sd, ms.sg, ms.ss);
    e.mos.push_back(ms);
  }

  e.lu.analyze(m, e.n_volts);
  e.base_values.assign(m.nnz(), 0.0);
  e.b.assign(n, 0.0);
  e.refine_r.assign(n, 0.0);
  e.refine_dx.assign(n, 0.0);
}

void SolverWorkspace::ensure_linear_base(Entry& e, const StampContext& ctx) {
  if (e.base_valid && e.base_gmin == ctx.gmin && e.base_dt == ctx.dt &&
      e.base_integrator == ctx.integrator) {
    ++stats_.linear_stamp_reuse;
    return;
  }
  const Netlist& nl = *ctx.nl;
  SparseMatrix& m = e.mat;
  std::fill(e.base_values.begin(), e.base_values.end(), 0.0);
  // Stamp the linear skeleton directly into base_values via the pattern
  // slots. slot() is a binary search, but this runs once per (topology,
  // gmin, dt, integrator) configuration, not per iteration.
  auto base_add = [&](std::size_t r, std::size_t c, double v) {
    e.base_values[m.slot(r, c)] += v;
  };
  auto add_g = [&](NodeId a, NodeId b, double cond) {
    const std::ptrdiff_t ia = unknown_of(nl, a);
    const std::ptrdiff_t ib = unknown_of(nl, b);
    if (ia >= 0) {
      e.base_values[e.diag_slot[static_cast<std::size_t>(ia)]] += cond;
      if (ib >= 0) base_add(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib), -cond);
    }
    if (ib >= 0) {
      e.base_values[e.diag_slot[static_cast<std::size_t>(ib)]] += cond;
      if (ia >= 0) base_add(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia), -cond);
    }
  };

  for (std::size_t i = 0; i < e.n_volts; ++i) e.base_values[e.diag_slot[i]] += ctx.gmin;

  const auto& devices = nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      if (r->ohms <= 0.0) throw std::invalid_argument("non-positive resistance: " + dev.name);
      add_g(r->a, r->b, 1.0 / r->ohms);
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      if (ctx.dt > 0.0) {
        const double gc = (ctx.integrator == Integrator::kTrapezoidal ? 2.0 : 1.0) * c->farads /
                          ctx.dt;
        add_g(c->a, c->b, gc);
      }
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      if (vs->p != kGround) {
        base_add(nl.voltage_index(vs->p), bi, 1.0);
        base_add(bi, nl.voltage_index(vs->p), 1.0);
      }
      if (vs->n != kGround) {
        base_add(nl.voltage_index(vs->n), bi, -1.0);
        base_add(bi, nl.voltage_index(vs->n), -1.0);
      }
    } else if (const auto* vcvs = std::get_if<Vcvs>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      if (vcvs->p != kGround) {
        base_add(nl.voltage_index(vcvs->p), bi, 1.0);
        base_add(bi, nl.voltage_index(vcvs->p), 1.0);
      }
      if (vcvs->n != kGround) {
        base_add(nl.voltage_index(vcvs->n), bi, -1.0);
        base_add(bi, nl.voltage_index(vcvs->n), -1.0);
      }
      if (vcvs->cp != kGround) base_add(bi, nl.voltage_index(vcvs->cp), -vcvs->gain);
      if (vcvs->cn != kGround) base_add(bi, nl.voltage_index(vcvs->cn), vcvs->gain);
    }
    // ISource: RHS only. Mosfet: nonlinear, stamped per iteration.
  }

  e.base_valid = true;
  e.base_gmin = ctx.gmin;
  e.base_dt = ctx.dt;
  e.base_integrator = ctx.integrator;
  ++stats_.linear_stamp_builds;
}

void SolverWorkspace::stamp_rhs(Entry& e, const StampContext& ctx) {
  const Netlist& nl = *ctx.nl;
  std::fill(e.b.begin(), e.b.end(), 0.0);
  auto add_i = [&](NodeId p, NodeId nn, double i) {
    if (p != kGround) e.b[nl.voltage_index(p)] -= i;
    if (nn != kGround) e.b[nl.voltage_index(nn)] += i;
  };
  const auto& devices = nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      if (ctx.dt > 0.0) {
        const double vab_prev = ctx.prev_node_v->at(c->a) - ctx.prev_node_v->at(c->b);
        if (ctx.integrator == Integrator::kTrapezoidal) {
          const double gc = 2.0 * c->farads / ctx.dt;
          add_i(c->b, c->a, gc * vab_prev + ctx.prev_cap_i->at(di));
        } else {
          const double gc = c->farads / ctx.dt;
          add_i(c->b, c->a, gc * vab_prev);
        }
      }
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      double value = vs->volts;
      if (ctx.vsrc_override != nullptr) {
        const auto it = ctx.vsrc_override->find(di);
        if (it != ctx.vsrc_override->end()) value = it->second;
      }
      e.b[nl.branch_index(di)] = value * ctx.source_scale;
    } else if (const auto* is = std::get_if<ISource>(&dev.impl)) {
      add_i(is->p, is->n, is->amps * ctx.source_scale);
    }
    // Mosfet ieq is folded in by stamp_nonlinear.
  }
}

void SolverWorkspace::stamp_nonlinear(Entry& e, const StampContext& ctx,
                                      const std::vector<double>& x) {
  const Netlist& nl = *ctx.nl;
  std::vector<double>& vals = e.mat.values();
  const auto& devices = nl.devices();
  for (const MosSlots& ms : e.mos) {
    const auto& mos = std::get<Mosfet>(devices[ms.device].impl);
    const double vd = ms.xd >= 0 ? x[static_cast<std::size_t>(ms.xd)] : 0.0;
    const double vg = ms.xg >= 0 ? x[static_cast<std::size_t>(ms.xg)] : 0.0;
    const double vs = ms.xs >= 0 ? x[static_cast<std::size_t>(ms.xs)] : 0.0;
    const MosEval ev = eval_mosfet(mos, nl.model(), vd, vg, vs);
    if (ms.xd >= 0) {
      vals[ms.dd] += ev.d_vd;
      if (ms.xg >= 0) vals[ms.dg] += ev.d_vg;
      if (ms.xs >= 0) vals[ms.ds] += ev.d_vs;
    }
    if (ms.xs >= 0) {
      if (ms.xd >= 0) vals[ms.sd] -= ev.d_vd;
      if (ms.xg >= 0) vals[ms.sg] -= ev.d_vg;
      vals[ms.ss] -= ev.d_vs;
    }
    const double ieq = ev.id - ev.d_vd * vd - ev.d_vg * vg - ev.d_vs * vs;
    if (ms.xd >= 0) e.b[static_cast<std::size_t>(ms.xd)] -= ieq;
    if (ms.xs >= 0) e.b[static_cast<std::size_t>(ms.xs)] += ieq;
  }
}

bool SolverWorkspace::residual_acceptable(const Entry& e, const std::vector<double>& x_new) const {
  // Row-wise backward-error test: |A x - b|_i against the row's own
  // magnitude scale, with a small absolute slack. The slack matters:
  // fault edits leave near-isolated nodes whose rows are numerically
  // zero (scale ~1e-30); their residual carries no information and a
  // pure relative test would reject a perfectly good solve.
  const double rel = solver_tuning().sparse_residual_rel_tol;
  const auto& rp = e.mat.row_ptr();
  const auto& ci = e.mat.col_idx();
  const auto& av = e.mat.values();
  for (std::size_t i = 0; i < e.n; ++i) {
    double acc = -e.b[i];
    double scale = std::fabs(e.b[i]);
    for (std::size_t s = rp[i]; s < rp[i + 1]; ++s) {
      const double term = av[s] * x_new[ci[s]];
      acc += term;
      scale += std::fabs(term);
    }
    if (!(std::fabs(acc) <= rel * scale + 1e-30)) return false;  // NaN fails too
  }
  return true;
}

void SolverWorkspace::refine(Entry& e, std::vector<double>& x_new) {
  // One step of iterative refinement on the existing factorization:
  // r = G·x − b in working precision, then x −= G⁻¹r. O(nnz) — far
  // cheaper than the dense fallback, and recovers the digits lost to
  // element growth in the no-pivot factorization (fault circuits mix
  // short conductances ~1e3 S with gmin ~1e-12 S in one matrix).
  const auto& rp = e.mat.row_ptr();
  const auto& ci = e.mat.col_idx();
  const auto& av = e.mat.values();
  for (std::size_t i = 0; i < e.n; ++i) {
    double acc = -e.b[i];
    for (std::size_t s = rp[i]; s < rp[i + 1]; ++s) acc += av[s] * x_new[ci[s]];
    e.refine_r[i] = acc;
  }
  e.lu.solve(e.refine_r, e.refine_dx);
  for (std::size_t i = 0; i < e.n; ++i) x_new[i] -= e.refine_dx[i];
}

bool SolverWorkspace::dense_solve(const StampContext& ctx, const std::vector<double>& x,
                                  std::vector<double>& x_new) {
  stamp_system(ctx, x, dense_g_, dense_b_);
  if (!lu_solve_inplace(dense_g_, dense_b_)) return false;
  x_new = dense_b_;
  return true;
}

bool SolverWorkspace::solve_newton_system(const StampContext& ctx, const std::vector<double>& x,
                                          std::vector<double>& x_new, SolveDiagnostics* diag) {
  const Netlist& nl = *ctx.nl;
  const std::size_t n = nl.unknown_count();
  if (n == 0) return false;

  const SolverTuning& t = solver_tuning();
  const bool timing = diag != nullptr && util::Metrics::detailed_timing();
  using Clock = std::chrono::steady_clock;

  if (t.force_dense || (n < t.dense_crossover && !t.force_sparse)) {
    const auto t0 = timing ? Clock::now() : Clock::time_point{};
    const bool ok = dense_solve(ctx, x, x_new);
    ++stats_.dense_solves;
    if (timing) {
      // The dense path interleaves stamping and factoring; attribute it
      // all to factor time, matching the dominant cost.
      diag->factor_sec += std::chrono::duration<double>(Clock::now() - t0).count();
    }
    return ok;
  }

  const auto t0 = timing ? Clock::now() : Clock::time_point{};
  Entry& e = entry_for(ctx);
  ensure_linear_base(e, ctx);
  std::copy(e.base_values.begin(), e.base_values.end(), e.mat.values().begin());
  stamp_rhs(e, ctx);
  stamp_nonlinear(e, ctx, x);
  const auto t1 = timing ? Clock::now() : Clock::time_point{};
  if (timing) diag->stamp_sec += std::chrono::duration<double>(t1 - t0).count();

  bool ok = false;
  if (e.lu.factor(e.mat, 1e-18)) {
    if (x_new.size() != n) x_new.assign(n, 0.0);
    e.lu.solve(e.b, x_new);
    // Backward-error gate with a few O(nnz) refinement rescues.
    // Moderate element growth (no partial pivoting) contracts to the
    // gate in one or two steps; catastrophic growth (fault circuits
    // mixing ~1e3 S shorts with ~1e-12 S opens can hit ~1e15) leaves
    // the residual near 1.0 where refinement cannot help — those rows
    // genuinely need partial pivoting and take the dense fallback.
    ok = residual_acceptable(e, x_new);
    for (int step = 0; !ok && step < 4; ++step) {
      refine(e, x_new);
      ++stats_.refinement_steps;
      ok = residual_acceptable(e, x_new);
    }
    if (!ok) ++stats_.residual_rejects;
  } else {
    ++stats_.pivot_rejects;
  }
  if (ok) {
    ++stats_.sparse_solves;
  } else {
    ++stats_.dense_fallbacks;
    ok = dense_solve(ctx, x, x_new);
  }
  if (timing) diag->factor_sec += std::chrono::duration<double>(Clock::now() - t1).count();
  return ok;
}

void SolverWorkspace::mna_residual(const StampContext& ctx, const std::vector<double>& x,
                                   std::vector<double>& r) {
  const std::size_t n = ctx.nl->unknown_count();
  Entry& e = entry_for(ctx);
  ensure_linear_base(e, ctx);
  std::copy(e.base_values.begin(), e.base_values.end(), e.mat.values().begin());
  stamp_rhs(e, ctx);
  stamp_nonlinear(e, ctx, x);
  if (r.size() != n) r.resize(n);
  std::fill(r.begin(), r.end(), 0.0);
  e.mat.accumulate_residual(x, e.b, r);
}

double SolverWorkspace::kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x) {
  Entry& e = entry_for(ctx);
  ensure_linear_base(e, ctx);
  std::copy(e.base_values.begin(), e.base_values.end(), e.mat.values().begin());
  stamp_rhs(e, ctx);
  stamp_nonlinear(e, ctx, x);
  // Residual of the node (KCL) rows only, without materializing r.
  const auto& rp = e.mat.row_ptr();
  const auto& ci = e.mat.col_idx();
  const auto& av = e.mat.values();
  double worst = 0.0;
  for (std::size_t i = 0; i < e.n_volts; ++i) {
    double acc = -e.b[i];
    for (std::size_t s = rp[i]; s < rp[i + 1]; ++s) acc += av[s] * x[ci[s]];
    worst = std::max(worst, std::fabs(acc));
  }
  return worst;
}

}  // namespace lsl::spice
