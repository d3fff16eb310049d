#include "spice/workspace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "util/metrics.hpp"

namespace lsl::spice {

namespace {

/// Newton's exit check (kcl_satisfied): a node row passes when
/// |r_i| <= kKclRelTol·Σ|terms_i| + kKclAbsTol, the terms being the
/// row's stamped currents A_is·x_s and its RHS b_i.
constexpr double kKclRelTol = 1e-3;
constexpr double kKclAbsTol = 1e-12;  // amperes

}  // namespace

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
  pending_chained_ = false;
}

void SolverWorkspace::seed_from(std::vector<double>&& x, bool chained) {
  pending_seed_ = std::move(x);
  has_pending_seed_ = true;
  pending_chained_ = chained;
}

bool SolverWorkspace::take_pending_seed(std::vector<double>& out, bool* chained) {
  if (!has_pending_seed_) return false;
  out.swap(pending_seed_);
  pending_seed_.clear();
  has_pending_seed_ = false;
  if (chained != nullptr) *chained = pending_chained_;
  pending_chained_ = false;
  return true;
}

namespace {

inline std::ptrdiff_t unknown_of(const Netlist& nl, NodeId node) {
  if (node == kGround) return -1;
  return static_cast<std::ptrdiff_t>(nl.voltage_index(node));
}

/// The splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014): every
/// input bit flips each output bit with probability about 1/2.
inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

/// The netlist's structure as a sequence of 64-bit words — node count,
/// model card, and each device's kind, enabled flag, terminals and
/// matrix-entering values, in device order, so the sequence itself is
/// part of the key — hashed as it is read through splitmix64 in eight
/// interleaved lanes (word i feeds lane i mod 8, so the lanes' multiply
/// chains overlap), which a last pass folds together with the word
/// count. Two node ids share a word (a netlist with 2^32 nodes would
/// not fit in memory). Deliberately excluded: device *names* (fault
/// copies rename nothing else) and RHS-only values (VSource::volts,
/// ISource::amps), which the solver rereads every iteration. Disabled
/// devices still contribute their kind/terminals so that enabling one
/// changes the key.
std::uint64_t structural_key(const Netlist& nl) {
  std::array<std::uint64_t, 8> lane{};
  std::size_t count = 0;
  const auto put = [&](std::initializer_list<std::uint64_t> words) {
    for (const std::uint64_t w : words) {
      std::uint64_t& l = lane[count++ % lane.size()];
      l = splitmix64(l ^ w);
    }
  };
  const auto pair = [](NodeId a, NodeId b) { return (std::uint64_t{a} << 32) ^ b; };
  const ModelCard& mc = nl.model();
  put({nl.node_count(), bits_of(mc.kp_n), bits_of(mc.kp_p), bits_of(mc.vt_n), bits_of(mc.vt_p),
       bits_of(mc.lambda_n), bits_of(mc.lambda_p)});
  for (const Device& dev : nl.devices()) {
    const std::uint64_t head =
        (static_cast<std::uint64_t>(dev.impl.index()) << 1) | (dev.enabled ? 1u : 0u);
    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      put({head, pair(r->a, r->b), bits_of(r->ohms)});
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      put({head, pair(c->a, c->b), bits_of(c->farads)});
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      put({head, pair(vs->p, vs->n)});
    } else if (const auto* is = std::get_if<ISource>(&dev.impl)) {
      put({head, pair(is->p, is->n)});
    } else if (const auto* vcvs = std::get_if<Vcvs>(&dev.impl)) {
      put({head, pair(vcvs->p, vcvs->n), pair(vcvs->cp, vcvs->cn), bits_of(vcvs->gain)});
    } else if (const auto* mos = std::get_if<Mosfet>(&dev.impl)) {
      put({head | (mos->type == MosType::kNmos ? 0u : 16u) | (std::uint64_t{mos->s} << 32),
           pair(mos->d, mos->g), bits_of(mos->w), bits_of(mos->l), bits_of(mos->vt_delta)});
    }
  }
  std::uint64_t h = splitmix64(count);
  for (const std::uint64_t l : lane) h = splitmix64(h ^ l);
  return h;
}

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

SolverWorkspace::Entry& SolverWorkspace::entry_for(const StampContext& ctx, bool& built) {
  const std::uint64_t key = entry_key(ctx);
  ++lru_tick_;
  built = true;
  Entry* slot = nullptr;
  for (auto& e : entries_) {
    if (!e->used || e->key != key) continue;
    if (e->n == ctx.nl->unknown_count() && e->n_volts == ctx.nl->node_count() - 1) {
      e->last_use = lru_tick_;
      ++stats_.symbolic_reuse;
      built = false;
      return *e;
    }
    // Hash collision (same key, different structure): rebuild in place
    // so two entries never share a key.
    slot = e.get();
    break;
  }
  if (slot == nullptr && entries_.size() < kMaxEntries) {
    entries_.push_back(std::make_unique<Entry>());
    slot = entries_.back().get();
  } else if (slot == nullptr) {
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
  e.used = false;  // until entry_for keys it, so a throw leaves no half-built entry in use
  e.n = n;
  e.n_volts = nl.node_count() - 1;
  e.base_valid = false;
  e.linear.clear();
  e.mos.clear();
  e.rhs.clear();
  const auto& devices = nl.devices();
  // Exact table sizes (up to four linear terms per R, C or V, six per
  // E), so a cached entry carries no growth slack.
  std::size_t n_linear = 0;
  std::size_t n_mos = 0;
  std::size_t n_rhs = 0;
  for (const Device& dev : devices) {
    if (!dev.enabled) continue;
    if (std::holds_alternative<Mosfet>(dev.impl)) {
      ++n_mos;
    } else if (std::holds_alternative<Vcvs>(dev.impl)) {
      n_linear += 6;
    } else {
      n_linear += std::holds_alternative<ISource>(dev.impl) ? 0 : 4;
      n_rhs += std::holds_alternative<Resistor>(dev.impl) ? 0 : 1;
    }
  }
  e.linear.reserve(n_linear);
  e.mos.reserve(n_mos);
  e.rhs.reserve(n_rhs);
  const bool timing = util::Metrics::detailed_timing();
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto t0 = timing ? Clock::now() : Clock::time_point{};

  // One walk over the devices notes the pattern — every coordinate any
  // stamp configuration can touch; the capacitor slots are noted
  // unconditionally so the same pattern (and symbolic factorization)
  // serves DC (dt = 0) and every timestep — and builds the device
  // tables. Each table entry holds the index of the note for its
  // matrix entry until finalize_pattern turns note indices into value
  // slots; notes 0..n-1 are the diagonal.
  SparseMatrix& m = e.mat;
  m.begin_pattern(n);
  const auto note = [&](std::ptrdiff_t r, std::ptrdiff_t c) {
    return m.note(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };
  // Linear terms are recorded in the order the linear base adds them.
  const auto linear = [&](std::size_t note_index, bool capacitor, double value) {
    e.linear.push_back({value, static_cast<std::uint32_t>(note_index), capacitor});
  };
  // A conductance between two nodes: per live terminal, its diagonal,
  // then its off-diagonal entry.
  const auto conductance = [&](NodeId a, NodeId b, bool capacitor, double value) {
    const std::ptrdiff_t ia = unknown_of(nl, a);
    const std::ptrdiff_t ib = unknown_of(nl, b);
    if (ia >= 0) {
      linear(static_cast<std::size_t>(ia), capacitor, value);
      if (ib >= 0) linear(note(ia, ib), capacitor, -value);
    }
    if (ib >= 0) {
      linear(static_cast<std::size_t>(ib), capacitor, value);
      if (ia >= 0) linear(note(ib, ia), capacitor, -value);
    }
  };
  const auto fixed = [&](std::size_t r, std::size_t c, double value) {
    linear(m.note(r, c), false, value);
  };
  // A branch row's incidence on its terminals: +1 on p, -1 on n.
  const auto incidence = [&](std::size_t bi, NodeId p, NodeId nn) {
    if (p != kGround) {
      fixed(nl.voltage_index(p), bi, 1.0);
      fixed(bi, nl.voltage_index(p), 1.0);
    }
    if (nn != kGround) {
      fixed(nl.voltage_index(nn), bi, -1.0);
      fixed(bi, nl.voltage_index(nn), -1.0);
    }
  };
  // Source pairing (sparse.hpp): branch row bi swaps places with the KCL
  // row of terminal p, else n, skipping ground and a node already
  // paired. A source with neither terminal free stays unpaired.
  std::vector<std::size_t> row_map(n);
  std::iota(row_map.begin(), row_map.end(), std::size_t{0});
  const auto pair_branch = [&](std::size_t bi, NodeId p, NodeId nn) {
    for (const NodeId node : {p, nn}) {
      if (node == kGround) continue;
      const std::size_t v = nl.voltage_index(node);
      if (row_map[v] != v) continue;
      row_map[v] = bi;
      row_map[bi] = v;
      return;
    }
  };
  // Device indices are raw; hash-equal netlists agree on them, and on
  // every MOSFET parameter, because the device sequence is part of the
  // key.
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    RhsTerm t;
    t.device = di;
    if (const auto* r = std::get_if<Resistor>(&dev.impl)) {
      if (r->ohms <= 0.0) throw std::invalid_argument("non-positive resistance: " + dev.name);
      conductance(r->a, r->b, false, 1.0 / r->ohms);
    } else if (const auto* c = std::get_if<Capacitor>(&dev.impl)) {
      conductance(c->a, c->b, true, c->farads);
      // Companion history current flows b -> a.
      t.kind = RhsTerm::Kind::kCapacitor;
      t.from = unknown_of(nl, c->b);
      t.to = unknown_of(nl, c->a);
      t.a = c->a;
      t.b = c->b;
      t.farads = c->farads;
      e.rhs.push_back(t);
    } else if (const auto* vs = std::get_if<VSource>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      incidence(bi, vs->p, vs->n);
      pair_branch(bi, vs->p, vs->n);
      t.kind = RhsTerm::Kind::kVSource;
      t.to = static_cast<std::ptrdiff_t>(bi);
      e.rhs.push_back(t);
    } else if (const auto* is = std::get_if<ISource>(&dev.impl)) {
      t.kind = RhsTerm::Kind::kISource;
      t.from = unknown_of(nl, is->p);
      t.to = unknown_of(nl, is->n);
      e.rhs.push_back(t);
    } else if (const auto* vcvs = std::get_if<Vcvs>(&dev.impl)) {
      const std::size_t bi = nl.branch_index(di);
      incidence(bi, vcvs->p, vcvs->n);
      if (vcvs->cp != kGround) fixed(bi, nl.voltage_index(vcvs->cp), -vcvs->gain);
      if (vcvs->cn != kGround) fixed(bi, nl.voltage_index(vcvs->cn), vcvs->gain);
      pair_branch(bi, vcvs->p, vcvs->n);
    } else if (const auto* mos = std::get_if<Mosfet>(&dev.impl)) {
      MosStamp ms;
      ms.params = mos_params(*mos, nl.model());
      ms.xd = unknown_of(nl, mos->d);
      ms.xg = unknown_of(nl, mos->g);
      ms.xs = unknown_of(nl, mos->s);
      const auto row_notes = [&](std::ptrdiff_t row, std::size_t& sd, std::size_t& sg,
                                 std::size_t& ss) {
        if (row < 0) return;
        if (ms.xd >= 0) sd = note(row, ms.xd);
        if (ms.xg >= 0) sg = note(row, ms.xg);
        if (ms.xs >= 0) ss = note(row, ms.xs);
      };
      row_notes(ms.xd, ms.dd, ms.dg, ms.ds);
      row_notes(ms.xs, ms.sd, ms.sg, ms.ss);
      e.mos.push_back(ms);
    }
  }
  const auto t1 = timing ? Clock::now() : Clock::time_point{};
  const std::vector<std::size_t> note_slot = m.finalize_pattern();
  // The values live in the LU storage (stamp), never in the matrix.
  std::vector<double>().swap(m.values());

  const auto t2 = timing ? Clock::now() : Clock::time_point{};
  double ordering_sec = 0.0;
  e.lu.analyze(m, e.n_volts, row_map, timing ? &ordering_sec : nullptr);
  // Every table slot goes from note index to A slot to LU slot.
  const auto lu_slot = [&](std::size_t note_index) { return e.lu.lu_slot(note_slot[note_index]); };
  e.diag_slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) e.diag_slot[i] = lu_slot(i);
  for (LinearTerm& t : e.linear) t.slot = static_cast<std::uint32_t>(lu_slot(t.slot));
  for (MosStamp& ms : e.mos) {
    for (std::size_t* s : {&ms.dd, &ms.dg, &ms.ds, &ms.sd, &ms.sg, &ms.ss}) {
      if (*s != kNoSlot) *s = lu_slot(*s);
    }
  }
  e.base_values.assign(e.lu.fill_nnz(), 0.0);
  e.b.assign(n, 0.0);
  if (timing) {
    const auto t3 = Clock::now();
    stats_.build_tables_sec += seconds(t0, t1);
    stats_.build_pattern_sec += seconds(t1, t2);
    stats_.build_ordering_sec += ordering_sec;
    stats_.build_fill_sec += seconds(t2, t3) - ordering_sec;
  }
}

void SolverWorkspace::ensure_linear_base(Entry& e, const StampContext& ctx) {
  if (e.base_valid && e.base_gmin == ctx.gmin && e.base_dt == ctx.dt &&
      e.base_integrator == ctx.integrator) {
    ++stats_.linear_stamp_reuse;
    return;
  }
  // gmin on every node diagonal, then the linear devices' terms in
  // device order — the same additions in the same order, whatever the
  // configuration, so a rebuilt base is bit-identical. The base is in
  // LU layout; the fill slots stay +0.0.
  std::fill(e.base_values.begin(), e.base_values.end(), 0.0);
  double* base = e.base_values.data();
  for (std::size_t i = 0; i < e.n_volts; ++i) base[e.diag_slot[i]] += ctx.gmin;
  const double k = ctx.integrator == Integrator::kTrapezoidal ? 2.0 : 1.0;
  for (const LinearTerm& t : e.linear) {
    if (!t.capacitor) {
      base[t.slot] += t.value;
    } else if (ctx.dt > 0.0) {
      base[t.slot] += k * t.value / ctx.dt;
    }
  }

  e.base_valid = true;
  e.base_gmin = ctx.gmin;
  e.base_dt = ctx.dt;
  e.base_integrator = ctx.integrator;
  ++stats_.linear_stamp_builds;
}

double SolverWorkspace::Entry::row_residual(const std::vector<double>& x, std::size_t i,
                                            double& scale) const {
  const auto& rp = mat.row_ptr();
  const auto& ci = mat.col_idx();
  const double* a = lu.values().data();
  double r = -b[i];
  scale = std::fabs(b[i]);
  for (std::size_t s = rp[i]; s < rp[i + 1]; ++s) {
    const double term = a[lu.lu_slot(s)] * x[ci[s]];
    r += term;
    scale += std::fabs(term);
  }
  return r;
}

void SolverWorkspace::stamp(Entry& e, const StampContext& ctx, const std::vector<double>& x) {
  // Straight into the LU storage: every A entry starts from its base
  // value (each a sum onto +0.0, so never -0.0) and the MOSFETs add to
  // it in place, so the stored value equals the 0.0 + A[s] a scatter
  // of A would write.
  std::copy(e.base_values.begin(), e.base_values.end(), e.lu.values().begin());

  // RHS in device order: source values are read live (they are not part
  // of the structural key), a drive override replacing a V source's.
  double* b = e.b.data();
  std::fill(e.b.begin(), e.b.end(), 0.0);
  const auto add_i = [b](std::ptrdiff_t from, std::ptrdiff_t to, double i) {
    if (from >= 0) b[from] -= i;
    if (to >= 0) b[to] += i;
  };
  const auto& devices = ctx.nl->devices();
  const std::pair<std::size_t, double>* ov = nullptr;
  const std::pair<std::size_t, double>* ov_end = nullptr;
  if (ctx.vsrc_override != nullptr) {
    ov = ctx.vsrc_override->data();
    ov_end = ov + ctx.vsrc_override->size();
  }
  for (const RhsTerm& t : e.rhs) {
    switch (t.kind) {
      case RhsTerm::Kind::kCapacitor:
        if (ctx.dt > 0.0) {
          const double vab_prev = ctx.prev_node_v->at(t.a) - ctx.prev_node_v->at(t.b);
          if (ctx.integrator == Integrator::kTrapezoidal) {
            const double gc = 2.0 * t.farads / ctx.dt;
            add_i(t.from, t.to, gc * vab_prev + ctx.prev_cap_i->at(t.device));
          } else {
            const double gc = t.farads / ctx.dt;
            add_i(t.from, t.to, gc * vab_prev);
          }
        }
        break;
      case RhsTerm::Kind::kVSource: {
        double value = std::get<VSource>(devices[t.device].impl).volts;
        while (ov != ov_end && ov->first < t.device) ++ov;
        if (ov != ov_end && ov->first == t.device) value = ov->second;
        b[t.to] = value * ctx.source_scale;
        break;
      }
      case RhsTerm::Kind::kISource:
        add_i(t.from, t.to, std::get<ISource>(devices[t.device].impl).amps * ctx.source_scale);
        break;
    }
  }

  // MOSFET Jacobians into the matrix, their affine remainders into b.
  double* vals = e.lu.values().data();
  for (const MosStamp& ms : e.mos) {
    const double vd = ms.xd >= 0 ? x[static_cast<std::size_t>(ms.xd)] : 0.0;
    const double vg = ms.xg >= 0 ? x[static_cast<std::size_t>(ms.xg)] : 0.0;
    const double vs = ms.xs >= 0 ? x[static_cast<std::size_t>(ms.xs)] : 0.0;
    const MosEval ev = eval_mosfet(ms.params, vd, vg, vs);
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
    if (ms.xd >= 0) b[ms.xd] -= ieq;
    if (ms.xs >= 0) b[ms.xs] += ieq;
  }
}

bool SolverWorkspace::solve_newton_system(const StampContext& ctx, NewtonBinding& binding,
                                          const std::vector<double>& x,
                                          std::vector<double>& x_new, SolveDiagnostics* diag) {
  const Netlist& nl = *ctx.nl;
  const std::size_t n = nl.unknown_count();
  if (n == 0) return false;

  const bool timing = diag != nullptr && util::Metrics::detailed_timing();
  using Clock = std::chrono::steady_clock;
  auto t0 = timing ? Clock::now() : Clock::time_point{};

  if (binding.entry == nullptr) {
    bool built = false;
    binding.entry = &entry_for(ctx, built);
    if (timing && built) {
      // A new structure's symbolic build is timed on its own, not as
      // stamping.
      const auto tb = Clock::now();
      diag->symbolic_sec += std::chrono::duration<double>(tb - t0).count();
      t0 = tb;
    }
    ensure_linear_base(*binding.entry, ctx);
  } else {
    // Later iterations of the loop: the same cached entry and base.
    ++stats_.symbolic_reuse;
    ++stats_.linear_stamp_reuse;
  }

  Entry& e = *binding.entry;
  stamp(e, ctx, x);
  const auto t1 = timing ? Clock::now() : Clock::time_point{};
  if (timing) diag->stamp_sec += std::chrono::duration<double>(t1 - t0).count();

  // A pivot under the floor means the static-order factorization cannot
  // be trusted: the iteration fails as singular, and the DC ladder or
  // the transient step halving takes it from there. Accuracy is checked
  // once, at Newton's exit (kcl_satisfied), not after every solve.
  const bool ok = e.lu.factor_in_place(1e-18);
  if (ok) {
    if (x_new.size() != n) x_new.assign(n, 0.0);
    e.lu.solve(e.b, x_new);
    ++stats_.sparse_solves;
  } else {
    ++stats_.pivot_rejects;
  }
  if (timing) diag->factor_sec += std::chrono::duration<double>(Clock::now() - t1).count();
  return ok;
}

bool SolverWorkspace::kcl_satisfied(const StampContext& ctx, const NewtonBinding& binding,
                                    const std::vector<double>& x, SolveDiagnostics* diag) {
  const bool timing = diag != nullptr && util::Metrics::detailed_timing();
  using Clock = std::chrono::steady_clock;
  const auto t0 = timing ? Clock::now() : Clock::time_point{};
  // Stamped about x itself, each node row sums the devices' actual
  // currents, so r_i is the true KCL residual of node i.
  Entry& e = *binding.entry;
  stamp(e, ctx, x);
  bool ok = true;
  for (std::size_t i = 0; ok && i < e.n_volts; ++i) {
    double scale = 0.0;
    const double r = e.row_residual(x, i, scale);
    ok = std::fabs(r) <= kKclRelTol * scale + kKclAbsTol;  // NaN fails
  }
  if (!ok) ++stats_.kcl_rejects;
  if (timing) diag->stamp_sec += std::chrono::duration<double>(Clock::now() - t0).count();
  return ok;
}

void SolverWorkspace::mna_residual(const StampContext& ctx, const std::vector<double>& x,
                                   std::vector<double>& r) {
  const std::size_t n = ctx.nl->unknown_count();
  bool built = false;
  Entry& e = entry_for(ctx, built);
  ensure_linear_base(e, ctx);
  stamp(e, ctx, x);
  if (r.size() != n) r.resize(n);
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) r[i] = e.row_residual(x, i, scale);
}

double SolverWorkspace::kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x) {
  bool built = false;
  Entry& e = entry_for(ctx, built);
  ensure_linear_base(e, ctx);
  stamp(e, ctx, x);
  // Residual of the node (KCL) rows only, without materializing r.
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < e.n_volts; ++i) {
    worst = std::max(worst, std::fabs(e.row_residual(x, i, scale)));
  }
  return worst;
}

}  // namespace lsl::spice
