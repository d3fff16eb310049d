// Bit-identity referee for spice::SparseLu. The library's LU runs a
// compiled refactorization (precomputed scatter and update slots) on a
// bitset minimum-degree ordering; the reference below is the plain
// up-looking factorization with a dense scatter row and a sorted-list
// minimum-degree, kept here only as a referee. Both must produce the
// same fill, accept and reject the same matrices, and return solutions
// with the same bits, on random patterns around the 64- and 128-bit
// word boundaries of the bitsets and on the analog frontend's own
// stage systems, healthy and faulted. On those stage systems the dense
// referee (tests/support) also checks solve_dc's operating point: one
// dense Newton step from it stays under Newton's 1 µV stop, and its
// KCL rows balance.
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
#include "support/dense_referee.hpp"
#include "util/rng.hpp"

namespace lsl::spice {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Sorted-unique union of `dst` and `src` excluding `skip`.
void merge_into(std::vector<std::size_t>& dst, const std::vector<std::size_t>& src,
                std::size_t skip) {
  std::vector<std::size_t> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < dst.size() || j < src.size()) {
    std::size_t v;
    if (j >= src.size() || (i < dst.size() && dst[i] <= src[j])) {
      v = dst[i++];
      if (j < src.size() && src[j] == v) ++j;
    } else {
      v = src[j++];
    }
    if (v != skip && (out.empty() || out.back() != v)) out.push_back(v);
  }
  dst.swap(out);
}

/// The reference LU: same contract as SparseLu, straightforward loops.
class ReferenceLu {
 public:
  void analyze(const SparseMatrix& a, std::size_t n_volts,
               const std::vector<std::size_t>& row_map) {
    n_ = a.dim();
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    std::vector<std::vector<std::size_t>> adj(n_);
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t s = rp[row_map[r]]; s < rp[row_map[r] + 1]; ++s) {
        if (ci[s] == r) continue;
        adj[r].push_back(ci[s]);
        adj[ci[s]].push_back(r);
      }
    }
    for (auto& row : adj) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
    // Minimum degree, degrees recounted from scratch every step.
    perm_.clear();
    std::vector<char> eliminated(n_, 0);
    for (std::size_t step = 0; step < n_volts; ++step) {
      std::size_t best = kNone;
      std::size_t best_deg = kNone;
      for (std::size_t v = 0; v < n_volts; ++v) {
        if (eliminated[v]) continue;
        std::size_t deg = 0;
        for (const std::size_t u : adj[v]) deg += !eliminated[u];
        if (deg < best_deg) {
          best_deg = deg;
          best = v;
        }
      }
      perm_.push_back(best);
      eliminated[best] = 1;
      std::vector<std::size_t> nbrs;
      for (const std::size_t u : adj[best]) {
        if (!eliminated[u]) nbrs.push_back(u);
      }
      for (const std::size_t u : nbrs) merge_into(adj[u], nbrs, u);
    }
    for (std::size_t v = n_volts; v < n_; ++v) perm_.push_back(v);
    pinv_.assign(n_, 0);
    row_src_.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      pinv_[perm_[i]] = i;
      row_src_[i] = row_map[perm_[i]];
    }
    // Symbolic fill: scan every k < i.
    std::vector<std::vector<std::size_t>> urows(n_);
    row_ptr_.assign(n_ + 1, 0);
    col_.clear();
    diag_.assign(n_, 0);
    std::vector<char> w(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::vector<std::size_t> cols;
      for (std::size_t s = rp[row_src_[i]]; s < rp[row_src_[i] + 1]; ++s) {
        const std::size_t c = pinv_[ci[s]];
        if (!w[c]) {
          w[c] = 1;
          cols.push_back(c);
        }
      }
      if (!w[i]) {
        w[i] = 1;
        cols.push_back(i);
      }
      for (std::size_t k = 0; k < i; ++k) {
        if (!w[k]) continue;
        for (const std::size_t j : urows[k]) {
          if (!w[j]) {
            w[j] = 1;
            cols.push_back(j);
          }
        }
      }
      std::sort(cols.begin(), cols.end());
      for (const std::size_t c : cols) {
        if (c == i) diag_[i] = col_.size();
        if (c > i) urows[i].push_back(c);
        col_.push_back(c);
        w[c] = 0;
      }
      row_ptr_[i + 1] = col_.size();
    }
    val_.assign(col_.size(), 0.0);
    work_.assign(n_, 0.0);
  }

  std::size_t fill_nnz() const { return col_.size(); }

  bool factor(const SparseMatrix& a, double pivot_floor) {
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& av = a.values();
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) work_[col_[s]] = 0.0;
      for (std::size_t s = rp[row_src_[i]]; s < rp[row_src_[i] + 1]; ++s) {
        work_[pinv_[ci[s]]] += av[s];
      }
      for (std::size_t s = row_ptr_[i]; s < diag_[i]; ++s) {
        const std::size_t k = col_[s];
        const double lik = work_[k] / val_[diag_[k]];
        work_[k] = lik;
        if (lik == 0.0) continue;
        for (std::size_t t = diag_[k] + 1; t < row_ptr_[k + 1]; ++t) {
          work_[col_[t]] -= lik * val_[t];
        }
      }
      if (!(std::fabs(work_[i]) >= pivot_floor)) return false;
      for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) val_[s] = work_[col_[s]];
    }
    return true;
  }

  void solve(const std::vector<double>& b, std::vector<double>& x) {
    for (std::size_t i = 0; i < n_; ++i) work_[i] = b[row_src_[i]];
    for (std::size_t i = 0; i < n_; ++i) {
      double sum = work_[i];
      for (std::size_t s = row_ptr_[i]; s < diag_[i]; ++s) sum -= val_[s] * work_[col_[s]];
      work_[i] = sum;
    }
    for (std::size_t i = n_; i-- > 0;) {
      double sum = work_[i];
      for (std::size_t s = diag_[i] + 1; s < row_ptr_[i + 1]; ++s) {
        sum -= val_[s] * work_[col_[s]];
      }
      work_[i] = sum / val_[diag_[i]];
    }
    for (std::size_t i = 0; i < n_; ++i) x[perm_[i]] = work_[i];
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> perm_, pinv_, row_src_, row_ptr_, col_, diag_;
  std::vector<double> val_, work_;
};

/// One system to referee: a matrix, its node/branch split, a row map,
/// and a few value sets / right-hand sides on the same pattern.
struct Case {
  std::string name;
  SparseMatrix a;
  std::size_t n_volts = 0;
  std::vector<std::size_t> row_map;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<double>> rhs;
};

/// How many value sets both LUs accepted (solutions compared) and
/// rejected, so a test can show its cases are not vacuous.
struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Factors and solves every value set of `c` with both LUs on one
/// analysis each (so stale values from the previous refactorization
/// would show) and compares fill, acceptance and solution bits.
void referee(Case& c, Tally& tally, double pivot_floor = 1e-18) {
  SparseLu lu;
  ReferenceLu ref;
  lu.analyze(c.a, c.n_volts, c.row_map);
  ref.analyze(c.a, c.n_volts, c.row_map);
  ASSERT_EQ(lu.fill_nnz(), ref.fill_nnz()) << c.name;
  const std::size_t n = c.a.dim();
  for (std::size_t v = 0; v < c.values.size(); ++v) {
    c.a.values() = c.values[v];
    const bool ok = lu.factor(c.a, pivot_floor);
    const bool ref_ok = ref.factor(c.a, pivot_floor);
    ASSERT_EQ(ok, ref_ok) << c.name << " value set " << v;
    ++(ok ? tally.accepted : tally.rejected);
    if (!ok) continue;
    std::vector<double> x(n, 0.0);
    std::vector<double> x_ref(n, 0.0);
    lu.solve(c.rhs[v], x);
    ref.solve(c.rhs[v], x_ref);
    EXPECT_EQ(std::memcmp(x.data(), x_ref.data(), n * sizeof(double)), 0)
        << c.name << " value set " << v;
  }
}

/// Pairs each branch row with a free terminal row, the way the solver
/// workspace does; `terminals[b]` lists branch b's node unknowns.
std::vector<std::size_t> pair_rows(std::size_t n, std::size_t n_volts,
                                   const std::vector<std::vector<std::size_t>>& terminals) {
  std::vector<std::size_t> row_map(n);
  std::iota(row_map.begin(), row_map.end(), std::size_t{0});
  for (std::size_t b = 0; b < terminals.size(); ++b) {
    const std::size_t bi = n_volts + b;
    for (const std::size_t v : terminals[b]) {
      if (row_map[v] != v) continue;
      row_map[v] = bi;
      row_map[bi] = v;
      break;
    }
  }
  return row_map;
}

/// A random MNA-shaped system: a sparse, mostly symmetric node block
/// with some one-sided entries, and n - n_volts branch unknowns with
/// ±1 incidence (plus VCVS-like control entries). Each branch drives
/// its own node p, against ground or a node no branch drives, so the
/// sources form a forest and the system is nonsingular; about a
/// quarter of the branch rows are then left unpaired.
Case random_case(util::Pcg32& rng, std::size_t n, std::size_t n_branch) {
  Case c;
  c.n_volts = n - n_branch;
  c.name = "random n=" + std::to_string(n) + " branches=" + std::to_string(n_branch);
  const std::size_t nv = c.n_volts;
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  for (std::size_t i = 0; i < nv; ++i) {
    const std::size_t links = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < links; ++k) {
      const std::size_t j = rng.next_below(static_cast<std::uint32_t>(nv));
      if (j == i) continue;
      coords.emplace_back(i, j);
      if (rng.next_double() < 0.85) coords.emplace_back(j, i);
    }
  }
  std::vector<std::size_t> nodes(nv);
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  std::shuffle(nodes.begin(), nodes.end(), rng);
  std::vector<std::vector<std::size_t>> terminals(n_branch);
  // nodes[0, n_branch) are the driven nodes; any other node is free.
  const auto free_node = [&] {
    return nodes[n_branch + rng.next_below(static_cast<std::uint32_t>(nv - n_branch))];
  };
  for (std::size_t b = 0; b < n_branch; ++b) {
    const std::size_t bi = nv + b;
    terminals[b].push_back(nodes[b]);
    if (rng.next_bool()) terminals[b].push_back(free_node());
    for (const std::size_t v : terminals[b]) {
      coords.emplace_back(v, bi);
      coords.emplace_back(bi, v);
    }
    if (rng.next_double() < 0.2) coords.emplace_back(bi, free_node());
  }
  c.a.begin_pattern(n);
  for (const auto& [r, col] : coords) c.a.note(r, col);
  c.a.finalize_pattern();
  c.row_map = pair_rows(n, nv, terminals);
  for (std::size_t bi = nv; bi < n; ++bi) {
    if (c.row_map[bi] != bi && rng.next_double() < 0.25) {
      c.row_map[c.row_map[bi]] = c.row_map[bi];
      c.row_map[bi] = bi;
    }
  }

  const auto& rp = c.a.row_ptr();
  const auto& ci = c.a.col_idx();
  for (int set = 0; set < 3; ++set) {
    std::vector<double> vals(c.a.nnz(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      double off = 0.0;
      for (std::size_t s = rp[r]; s < rp[r + 1]; ++s) {
        if (ci[s] == r) continue;
        if (r < nv && ci[s] < nv) {
          vals[s] = -rng.next_range(1e-6, 1e-2);
          off += -vals[s];
        } else if (r >= nv && ci[s] < nv &&
                   std::count(terminals[r - nv].begin(), terminals[r - nv].end(), ci[s]) == 0) {
          vals[s] = rng.next_range(0.5, 2.0);  // control gain
        } else {
          vals[s] = rng.next_bool() ? 1.0 : -1.0;  // incidence
        }
      }
      if (r < nv) vals[c.a.slot(r, r)] = off + rng.next_range(1e-12, 1e-3);
    }
    if (set == 2) {
      // Drive one node row below the pivot floor: both LUs must reject
      // (or both accept, if pairing moved the row off the diagonal).
      const std::size_t r = rng.next_below(static_cast<std::uint32_t>(nv));
      for (std::size_t s = rp[r]; s < rp[r + 1]; ++s) vals[s] *= 1e-30;
    }
    c.values.push_back(std::move(vals));
    std::vector<double> b(n);
    for (auto& v : b) v = rng.next_range(-1.0, 1.0);
    c.rhs.push_back(std::move(b));
  }
  return c;
}

TEST(SparseEngine, RefereeRandomPatternsAroundWordBoundaries) {
  util::Pcg32 rng(2024);
  Tally tally;
  for (const std::size_t n : {3u, 17u, 63u, 64u, 65u, 100u, 127u, 128u, 129u, 200u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t n_branch = 1 + rng.next_below(static_cast<std::uint32_t>(n / 3));
      Case c = random_case(rng, n, n_branch);
      c.name += " trial " + std::to_string(trial);
      referee(c, tally);
    }
  }
  EXPECT_GE(tally.accepted, 100);
  EXPECT_GE(tally.rejected, 10);
}

TEST(SparseEngine, RefereeRejectsExactlyWhatTheReferenceRejects) {
  // An unpaired branch row has a structural-zero diagonal that only
  // fill can fix, and a row of zeros fails any floor: both LUs must
  // agree on each, at several floors.
  util::Pcg32 rng(77);
  Tally tally;
  for (int trial = 0; trial < 20; ++trial) {
    Case c = random_case(rng, 40 + trial, 6);
    std::iota(c.row_map.begin(), c.row_map.end(), std::size_t{0});  // nothing paired
    for (const double floor : {1e-18, 1e-6, 1.0}) referee(c, tally, floor);
  }
  EXPECT_GE(tally.accepted, 20);
  EXPECT_GE(tally.rejected, 20);
}

/// Stamps `nl` densely at `x` (capacitor companions on) and converts it
/// to the solver's CSR shape with the workspace's source pairing.
Case stage_case(const std::string& name, const Netlist& nl, const std::vector<double>& x) {
  nl.reindex();
  const std::size_t n = nl.unknown_count();
  const std::size_t nv = nl.node_count() - 1;
  const std::vector<double> prev_v(nl.node_count(), 0.0);
  const std::vector<double> prev_i(nl.devices().size(), 0.0);
  StampContext ctx;
  ctx.nl = &nl;
  Case c;
  c.name = name;
  c.n_volts = nv;
  c.a.begin_pattern(n);
  std::vector<Matrix> gs;
  for (const double dt : {0.0, 1e-11}) {
    ctx.dt = dt;
    ctx.integrator = Integrator::kTrapezoidal;
    ctx.prev_node_v = &prev_v;
    ctx.prev_cap_i = &prev_i;
    Matrix g;
    std::vector<double> b;
    stamp_system(ctx, x, g, b);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        if (g.at(r, col) != 0.0) c.a.note(r, col);
      }
    }
    gs.push_back(std::move(g));
    c.rhs.push_back(std::move(b));
  }
  c.a.finalize_pattern();
  for (const Matrix& g : gs) {
    std::vector<double> vals(c.a.nnz(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        const std::size_t s = c.a.slot(r, col);
        if (s != kNoSlot) vals[s] = g.at(r, col);
      }
    }
    c.values.push_back(std::move(vals));
  }
  std::vector<std::vector<std::size_t>> terminals(n - nv);
  const auto& devices = nl.devices();
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
    auto& t = terminals[nl.branch_index(di) - nv];
    for (const NodeId node : {p, m}) {
      if (node != kGround) t.push_back(nl.voltage_index(node));
    }
  }
  c.row_map = pair_rows(n, nv, terminals);
  return c;
}

TEST(SparseEngine, RefereeFrontendStageSystemsAndFaultedCopies) {
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
    const DcResult op = fe.solve();
    ASSERT_TRUE(op.converged) << name;
    // From solve_dc's answer, one Newton step on the dense referee's
    // stamp and LU moves no unknown by more than 1 µV (Newton's stop),
    // and the referee's KCL rows balance.
    StampContext ctx;  // solve_dc's final system: gmin_final, full scale
    ctx.nl = &fe.netlist();
    ctx.gmin = DcOptions{}.gmin_final;
    EXPECT_LE(dense_newton_step(ctx, op.x), 1e-6) << name;
    EXPECT_TRUE(kcl_balanced(ctx, op.x)) << name;
    std::vector<double> x = op.x;
    x.resize(fe.netlist().unknown_count(), 0.0);
    Case c = stage_case(name, fe.netlist(), x);
    referee(c, tally);
    // And once from the flat start, where every MOSFET sits in cutoff.
    Case flat = stage_case(name + " (flat start)", fe.netlist(),
                           std::vector<double>(fe.netlist().unknown_count(), 0.0));
    referee(flat, tally);
  }
  EXPECT_GE(tally.accepted, static_cast<int>(2 * systems.size()));
}

}  // namespace
}  // namespace lsl::spice
