#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lsl::spice {

// --- SparseMatrix ------------------------------------------------------

void SparseMatrix::begin_pattern(std::size_t n) {
  n_ = n;
  building_ = true;
  coords_.clear();
  coords_.reserve(8 * n);
  // The diagonal is always present: gmin lands there for node rows, and
  // the LU elimination needs every pivot slot to exist (branch-row
  // diagonals are structural zeros that *receive* fill).
  for (std::size_t i = 0; i < n; ++i) coords_.emplace_back(i, i);
}

void SparseMatrix::note(std::size_t r, std::size_t c) {
  if (!building_) throw std::logic_error("SparseMatrix::note outside pattern phase");
  if (r >= n_ || c >= n_) throw std::out_of_range("SparseMatrix::note out of range");
  coords_.emplace_back(r, c);
}

void SparseMatrix::finalize_pattern() {
  building_ = false;
  std::sort(coords_.begin(), coords_.end());
  coords_.erase(std::unique(coords_.begin(), coords_.end()), coords_.end());

  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  col_idx_.reserve(coords_.size());
  for (const auto& [r, c] : coords_) {
    ++row_ptr_[r + 1];
    col_idx_.push_back(c);
  }
  for (std::size_t i = 0; i < n_; ++i) row_ptr_[i + 1] += row_ptr_[i];
  values_.assign(col_idx_.size(), 0.0);
  coords_.clear();
  coords_.shrink_to_fit();
}

std::size_t SparseMatrix::slot(std::size_t r, std::size_t c) const {
  const auto first = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kNoSlot;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

void SparseMatrix::accumulate_residual(const std::vector<double>& x,
                                       const std::vector<double>& b,
                                       std::vector<double>& r) const {
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = -b[i];
    for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) {
      acc += values_[s] * x[col_idx_[s]];
    }
    r[i] += acc;
  }
}

// --- SparseLu ----------------------------------------------------------

namespace {

/// Sorted-unique union of `dst` and `src` excluding `skip`; `tmp` is
/// scratch. Used by the minimum-degree elimination-graph updates.
void merge_into(std::vector<std::size_t>& dst, const std::vector<std::size_t>& src,
                std::size_t skip, std::vector<std::size_t>& tmp) {
  tmp.clear();
  tmp.reserve(dst.size() + src.size());
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
    if (v != skip && (tmp.empty() || tmp.back() != v)) tmp.push_back(v);
  }
  dst.swap(tmp);
}

}  // namespace

void SparseLu::analyze(const SparseMatrix& a, std::size_t n_volts,
                       const std::vector<std::size_t>& row_map) {
  n_ = a.dim();
  analyzed_ = false;
  if (n_volts > n_) throw std::invalid_argument("SparseLu::analyze: n_volts > dim");

  // Symmetrized adjacency of the row-mapped matrix (structure of
  // B + B^T with B's row r = A's row row_map[r], diagonal excluded).
  std::vector<std::vector<std::size_t>> adj(n_);
  {
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t s = rp[row_map[r]]; s < rp[row_map[r] + 1]; ++s) {
        const std::size_t c = ci[s];
        if (c == r) continue;
        adj[r].push_back(c);
        adj[c].push_back(r);
      }
    }
    for (auto& row : adj) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
  }

  // Minimum-degree over the node block. Classic elimination-graph
  // update: eliminating v turns its uneliminated neighbors into a
  // clique. Lowest index wins ties, so the ordering is deterministic.
  perm_.clear();
  perm_.reserve(n_);
  std::vector<char> eliminated(n_, 0);
  std::vector<std::size_t> nbrs;
  std::vector<std::size_t> tmp;
  for (std::size_t step = 0; step < n_volts; ++step) {
    std::size_t best = kNoSlot;
    std::size_t best_deg = static_cast<std::size_t>(-1);
    for (std::size_t v = 0; v < n_volts; ++v) {
      if (eliminated[v]) continue;
      std::size_t deg = 0;
      for (const std::size_t u : adj[v]) deg += !eliminated[u];
      if (deg < best_deg) {
        best_deg = deg;
        best = v;
      }
    }
    const std::size_t v = best;
    perm_.push_back(v);
    eliminated[v] = 1;
    nbrs.clear();
    for (const std::size_t u : adj[v]) {
      if (!eliminated[u]) nbrs.push_back(u);
    }
    for (const std::size_t u : nbrs) merge_into(adj[u], nbrs, u, tmp);
  }
  for (std::size_t v = n_volts; v < n_; ++v) perm_.push_back(v);

  pinv_.assign(n_, 0);
  row_src_.assign(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    pinv_[perm_[i]] = i;
    row_src_[i] = row_map[perm_[i]];
  }

  // Symbolic fill of P·B·P^T: process permuted rows top-down; row i
  // inherits the U-part (columns > k) of every earlier row k it has an
  // L entry in. Scanning k in ascending order makes the propagation a
  // single pass — fill at column j < i introduced while processing
  // k < j is picked up when the scan reaches j.
  std::vector<std::vector<std::size_t>> urows(n_);  // U part per row, sorted
  lu_row_ptr_.assign(n_ + 1, 0);
  lu_col_idx_.clear();
  diag_pos_.assign(n_, 0);
  std::vector<char> w(n_, 0);
  std::vector<std::size_t> rowcols;
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  for (std::size_t i = 0; i < n_; ++i) {
    rowcols.clear();
    const std::size_t orig = row_src_[i];
    for (std::size_t s = rp[orig]; s < rp[orig + 1]; ++s) {
      const std::size_t c = pinv_[ci[s]];
      if (!w[c]) {
        w[c] = 1;
        rowcols.push_back(c);
      }
    }
    if (!w[i]) {  // diagonal always in the pattern, but belt and braces
      w[i] = 1;
      rowcols.push_back(i);
    }
    for (std::size_t k = 0; k < i; ++k) {
      if (!w[k]) continue;
      for (const std::size_t j : urows[k]) {
        if (!w[j]) {
          w[j] = 1;
          rowcols.push_back(j);
        }
      }
    }
    std::sort(rowcols.begin(), rowcols.end());
    for (const std::size_t c : rowcols) {
      if (c == i) diag_pos_[i] = lu_col_idx_.size();
      if (c > i) urows[i].push_back(c);
      lu_col_idx_.push_back(c);
      w[c] = 0;
    }
    lu_row_ptr_[i + 1] = lu_col_idx_.size();
  }

  lu_values_.assign(lu_col_idx_.size(), 0.0);
  work_.assign(n_, 0.0);
  analyzed_ = true;
}

bool SparseLu::factor(const SparseMatrix& a, double pivot_floor) {
  if (!analyzed_ || n_ == 0 || a.dim() != n_) return false;
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& av = a.values();

  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t row_begin = lu_row_ptr_[i];
    const std::size_t row_end = lu_row_ptr_[i + 1];
    // Scatter permuted row i of B over the LU row pattern.
    for (std::size_t s = row_begin; s < row_end; ++s) work_[lu_col_idx_[s]] = 0.0;
    const std::size_t orig = row_src_[i];
    for (std::size_t s = rp[orig]; s < rp[orig + 1]; ++s) {
      work_[pinv_[ci[s]]] += av[s];
    }
    // Up-looking elimination: L columns in ascending order.
    for (std::size_t s = row_begin; s < diag_pos_[i]; ++s) {
      const std::size_t k = lu_col_idx_[s];
      const double lik = work_[k] / lu_values_[diag_pos_[k]];
      work_[k] = lik;
      if (lik == 0.0) continue;
      for (std::size_t t = diag_pos_[k] + 1; t < lu_row_ptr_[k + 1]; ++t) {
        work_[lu_col_idx_[t]] -= lik * lu_values_[t];
      }
    }
    // Pivot health: absolute floor only (the comparison also rejects
    // NaN), mirroring the dense singular test. A relative-to-row test
    // would misfire here: eliminating a gmin-pivoted node (e.g. a
    // floating gate no source drives) legitimately puts ~1/gmin-scale
    // multipliers and fill into downstream rows, dwarfing healthy
    // pivots. Numerical quality is instead judged after the solve by
    // the caller's O(nnz) residual verification, which falls back to
    // dense partial-pivot LU on any doubt.
    const double pivot = work_[i];
    if (!(std::fabs(pivot) >= pivot_floor)) return false;
    // Gather the finished row.
    for (std::size_t s = row_begin; s < row_end; ++s) {
      lu_values_[s] = work_[lu_col_idx_[s]];
    }
  }
  return true;
}

void SparseLu::solve(const std::vector<double>& b, std::vector<double>& x) const {
  // work_ = P·R b (R = the row map), then forward/backward substitution
  // in place.
  for (std::size_t i = 0; i < n_; ++i) work_[i] = b[row_src_[i]];
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = work_[i];
    for (std::size_t s = lu_row_ptr_[i]; s < diag_pos_[i]; ++s) {
      sum -= lu_values_[s] * work_[lu_col_idx_[s]];
    }
    work_[i] = sum;
  }
  for (std::size_t i = n_; i-- > 0;) {
    double sum = work_[i];
    for (std::size_t s = diag_pos_[i] + 1; s < lu_row_ptr_[i + 1]; ++s) {
      sum -= lu_values_[s] * work_[lu_col_idx_[s]];
    }
    work_[i] = sum / lu_values_[diag_pos_[i]];
  }
  for (std::size_t i = 0; i < n_; ++i) x[perm_[i]] = work_[i];
}

}  // namespace lsl::spice
