#include "spice/sparse.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
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

void SparseMatrix::throw_bad_note() const {
  if (!building_) throw std::logic_error("SparseMatrix::note outside pattern phase");
  throw std::out_of_range("SparseMatrix::note out of range");
}

std::vector<std::size_t> SparseMatrix::finalize_pattern() {
  building_ = false;
  if (coords_.size() > 0xffffffffu) {  // the notes include the n diagonals
    throw std::out_of_range("SparseMatrix::finalize_pattern: pattern exceeds 32-bit indices");
  }
  // A counting sort of the notes by column, then a stable one by row,
  // orders them by (row, column) with duplicates adjacent, without a
  // comparison sort.
  const std::size_t notes = coords_.size();
  std::vector<std::uint32_t> order(2 * notes);  // by column, then by row
  std::uint32_t* by_col = order.data();
  std::uint32_t* by_row = by_col + notes;
  std::vector<std::size_t> next(n_ + 1, 0);
  for (const auto& rc : coords_) ++next[rc.second + 1];
  for (std::size_t i = 0; i < n_; ++i) next[i + 1] += next[i];
  for (std::size_t k = 0; k < notes; ++k) {
    by_col[next[coords_[k].second]++] = static_cast<std::uint32_t>(k);
  }
  std::fill(next.begin(), next.end(), 0);
  for (const auto& rc : coords_) ++next[rc.first + 1];
  for (std::size_t i = 0; i < n_; ++i) next[i + 1] += next[i];
  for (std::size_t j = 0; j < notes; ++j) by_row[next[coords_[by_col[j]].first]++] = by_col[j];
  // next[r] now ends row r's run of by_row.

  // One walk hands every note the slot of its (row, column).
  std::vector<std::size_t> note_slot(notes);
  std::vector<std::size_t> cols(notes);
  row_ptr_.assign(n_ + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t r = 0, i = 0; r < n_; ++r) {
    for (const std::size_t row_start = nnz; i < next[r]; ++i) {
      const std::size_t c = coords_[by_row[i]].second;
      if (nnz == row_start || cols[nnz - 1] != c) cols[nnz++] = c;
      note_slot[by_row[i]] = nnz - 1;
    }
    row_ptr_[r + 1] = nnz;
  }
  col_idx_.assign(cols.begin(), cols.begin() + static_cast<std::ptrdiff_t>(nnz));
  values_.assign(col_idx_.size(), 0.0);
  coords_.clear();
  coords_.shrink_to_fit();
  return note_slot;
}

std::size_t SparseMatrix::slot(std::size_t r, std::size_t c) const {
  const auto first = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kNoSlot;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

// --- SparseLu ----------------------------------------------------------

namespace {

/// Fixed-width bitset rows (one row per unknown) for the symbolic phase:
/// at MNA sizes (~120 unknowns, two words a row) whole-row unions and
/// popcounts beat sorted-list merges.
class BitRows {
 public:
  BitRows(std::size_t rows, std::size_t bits)
      : words_((bits + 63) / 64), data_(rows * words_, 0) {}
  std::size_t words() const { return words_; }
  std::uint64_t* row(std::size_t r) { return data_.data() + r * words_; }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> data_;
};

inline void set_bit(std::uint64_t* row, std::size_t j) {
  row[j >> 6] |= std::uint64_t{1} << (j & 63);
}
inline void clear_bit(std::uint64_t* row, std::size_t j) {
  row[j >> 6] &= ~(std::uint64_t{1} << (j & 63));
}

/// Lowest set bit at or after `from`, or `end` when none is below it.
std::size_t next_bit(const std::uint64_t* row, std::size_t words, std::size_t from,
                     std::size_t end) {
  std::size_t w = from >> 6;
  if (w >= words) return end;
  std::uint64_t bits = row[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w >= words) return end;
    bits = row[w];
  }
  const std::size_t j = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
  return j < end ? j : end;
}

/// Calls f(j) for every set bit j of `row`, ascending; bits set after
/// their word was read are not visited.
template <class F>
void for_each_bit(const std::uint64_t* row, std::size_t words, F f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      f((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Set bits of `row`. A SWAR popcount: on baseline x86-64 (no POPCNT)
/// std::popcount is an out-of-line libgcc call.
std::size_t count_bits(const std::uint64_t* row, std::size_t words) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t x = row[w];
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    c += static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
  }
  return c;
}

}  // namespace

void SparseLu::analyze(const SparseMatrix& a, std::size_t n_volts,
                       const std::vector<std::size_t>& row_map, double* ordering_sec) {
  n_ = a.dim();
  analyzed_ = false;
  if (n_volts > n_) throw std::invalid_argument("SparseLu::analyze: n_volts > dim");
  if (row_map.size() != n_) throw std::invalid_argument("SparseLu::analyze: row_map size");
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();

  using Clock = std::chrono::steady_clock;
  const auto ordering_start = ordering_sec != nullptr ? Clock::now() : Clock::time_point{};

  // Symmetrized adjacency of the row-mapped matrix (structure of
  // B + B^T with B's row r = A's row row_map[r], diagonal excluded).
  BitRows adj(n_, n_);
  const std::size_t words = adj.words();
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t s = rp[row_map[r]]; s < rp[row_map[r] + 1]; ++s) {
      const std::size_t c = ci[s];
      if (c == r) continue;
      set_bit(adj.row(r), c);
      set_bit(adj.row(c), r);
    }
  }

  // Minimum-degree over the node block. Classic elimination-graph
  // update: eliminating v turns its uneliminated neighbors into a
  // clique. Node rows hold live neighbors only, so a degree is a row's
  // popcount and only the eliminated vertex's neighbors change.
  // Branch rows are never eliminated here and are left stale. The live
  // node vertices sit in per-degree bitset buckets: the pick is the
  // lowest set bit of the lowest non-empty bucket, i.e. minimum degree
  // with the lowest index winning ties, so the ordering is
  // deterministic.
  std::vector<std::uint64_t> alive(words, 0);
  for (std::size_t v = 0; v < n_; ++v) set_bit(alive.data(), v);
  BitRows bucket(n_, n_);  // bucket.row(d): live node vertices of degree d
  std::vector<std::size_t> degree(n_volts);
  std::size_t min_degree = n_;
  for (std::size_t v = 0; v < n_volts; ++v) {
    degree[v] = count_bits(adj.row(v), words);
    set_bit(bucket.row(degree[v]), v);
    min_degree = std::min(min_degree, degree[v]);
  }
  std::vector<std::uint64_t> nbrs(words);
  perm_.clear();
  perm_.reserve(n_);
  for (std::size_t step = 0; step < n_volts; ++step) {
    std::size_t v = n_volts;
    while ((v = next_bit(bucket.row(min_degree), words, 0, n_volts)) == n_volts) ++min_degree;
    perm_.push_back(static_cast<Index>(v));
    clear_bit(alive.data(), v);
    clear_bit(bucket.row(min_degree), v);
    const std::uint64_t* vrow = adj.row(v);
    for (std::size_t w = 0; w < words; ++w) nbrs[w] = vrow[w] & alive[w];
    for_each_bit(nbrs.data(), words, [&](std::size_t u) {
      if (u >= n_volts) return;  // branch rows stay stale
      std::uint64_t* urow = adj.row(u);
      for (std::size_t w = 0; w < words; ++w) urow[w] = (urow[w] | nbrs[w]) & alive[w];
      clear_bit(urow, u);
      clear_bit(bucket.row(degree[u]), u);
      degree[u] = count_bits(urow, words);
      set_bit(bucket.row(degree[u]), u);
      min_degree = std::min(min_degree, degree[u]);
    });
  }
  for (std::size_t v = n_volts; v < n_; ++v) perm_.push_back(static_cast<Index>(v));
  if (ordering_sec != nullptr) {
    *ordering_sec += std::chrono::duration<double>(Clock::now() - ordering_start).count();
  }

  std::vector<std::size_t> pinv(n_);
  row_src_.assign(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    pinv[perm_[i]] = i;
    row_src_[i] = static_cast<Index>(row_map[perm_[i]]);
  }

  // Symbolic fill of P·B·P^T: process permuted rows top-down; row i
  // inherits the U part (columns > k) of every earlier row k it has an
  // L entry in. Walking the row's set columns below i in ascending
  // order makes the propagation a single pass — fill at column j < i
  // introduced by some k < j is reached when the walk gets to j. Each
  // row's pattern is kept as a bitset, so the index arrays below are
  // sized exactly before they are written.
  BitRows lrows(n_, n_);  // row i's whole LU pattern
  BitRows urows(n_, n_);  // its U part
  lu_row_ptr_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    std::uint64_t* row = lrows.row(i);
    const std::size_t orig = row_src_[i];
    for (std::size_t s = rp[orig]; s < rp[orig + 1]; ++s) set_bit(row, pinv[ci[s]]);
    set_bit(row, i);  // the diagonal is always in the pattern
    for (std::size_t k = next_bit(row, words, 0, i); k < i; k = next_bit(row, words, k + 1, i)) {
      const std::uint64_t* uk = urows.row(k);
      for (std::size_t w = k >> 6; w < words; ++w) row[w] |= uk[w];
    }
    std::uint64_t* ui = urows.row(i);
    const std::size_t diag_word = i >> 6;
    for (std::size_t w = diag_word; w < words; ++w) ui[w] = row[w];
    ui[diag_word] &= (i & 63) == 63 ? 0 : ~std::uint64_t{0} << ((i & 63) + 1);
    const std::size_t len = count_bits(row, words);
    if (lu_row_ptr_[i] + len > std::numeric_limits<Index>::max()) {
      throw std::out_of_range("SparseLu::analyze: fill exceeds 32-bit slots");
    }
    lu_row_ptr_[i + 1] = lu_row_ptr_[i] + static_cast<Index>(len);
  }
  lu_col_idx_.resize(lu_row_ptr_[n_]);
  diag_pos_.assign(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    Index slot = lu_row_ptr_[i];
    for_each_bit(lrows.row(i), words, [&](std::size_t c) {
      if (c == i) diag_pos_[i] = slot;
      lu_col_idx_[slot++] = static_cast<Index>(c);
    });
  }

  // Compile the refactorization. For each LU row i, `pos` maps a column
  // to its slot in row i; every A entry of the row and every U(k) entry
  // that an L entry (i, k) subtracts resolves to one slot of row i.
  std::size_t updates = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (Index s = lu_row_ptr_[i]; s < diag_pos_[i]; ++s) {
      const Index k = lu_col_idx_[s];
      updates += lu_row_ptr_[k + 1] - diag_pos_[k] - 1;
    }
  }
  std::vector<Index> pos(n_, 0);
  a_to_lu_.assign(a.nnz(), 0);
  update_slot_.resize(updates);
  Index* target = update_slot_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    for (Index s = lu_row_ptr_[i]; s < lu_row_ptr_[i + 1]; ++s) pos[lu_col_idx_[s]] = s;
    const std::size_t orig = row_src_[i];
    for (std::size_t s = rp[orig]; s < rp[orig + 1]; ++s) a_to_lu_[s] = pos[pinv[ci[s]]];
    for (Index s = lu_row_ptr_[i]; s < diag_pos_[i]; ++s) {
      const Index k = lu_col_idx_[s];
      for (Index t = diag_pos_[k] + 1; t < lu_row_ptr_[k + 1]; ++t) *target++ = pos[lu_col_idx_[t]];
    }
  }

  lu_values_.assign(lu_col_idx_.size(), 0.0);
  work_.assign(n_, 0.0);
  analyzed_ = true;
}

bool SparseLu::factor(const SparseMatrix& a, double pivot_floor) {
  if (!analyzed_ || n_ == 0 || a.dim() != n_ || a.nnz() != a_to_lu_.size()) return false;
  // Scatter B = row-mapped, permuted A into the LU storage.
  double* lu = lu_values_.data();
  std::fill(lu_values_.begin(), lu_values_.end(), 0.0);
  const double* av = a.values().data();
  const Index* dst = a_to_lu_.data();
  for (std::size_t s = 0; s < a_to_lu_.size(); ++s) lu[dst[s]] += av[s];
  return factor_in_place(pivot_floor);
}

bool SparseLu::factor_in_place(double pivot_floor) {
  if (!analyzed_ || n_ == 0) return false;
  // Up-looking elimination in place: row by row, L columns in
  // ascending order, each multiplier subtracting its U row through
  // the precompiled target slots.
  double* lu = lu_values_.data();
  const Index* target = update_slot_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    for (Index s = lu_row_ptr_[i]; s < diag_pos_[i]; ++s) {
      const Index k = lu_col_idx_[s];
      const double lik = lu[s] / lu[diag_pos_[k]];
      lu[s] = lik;
      const double* uk = lu + diag_pos_[k] + 1;
      const Index len = lu_row_ptr_[k + 1] - diag_pos_[k] - 1;
      if (lik != 0.0) {
        for (Index t = 0; t < len; ++t) lu[target[t]] -= lik * uk[t];
      }
      target += len;
    }
    // Pivot health: absolute floor only (the comparison also rejects
    // NaN). A relative-to-row test would misfire here: eliminating a
    // gmin-pivoted node (e.g. a floating gate no source drives)
    // legitimately puts ~1/gmin-scale multipliers and fill into
    // downstream rows, dwarfing healthy pivots. Numerical quality is
    // instead judged by the Newton loop's KCL check at its exit.
    if (!(std::fabs(lu[diag_pos_[i]]) >= pivot_floor)) return false;
  }
  return true;
}

void SparseLu::solve(const std::vector<double>& b, std::vector<double>& x) const {
  // Forward substitution on P·R b (R = the row map), gathered as it is
  // read; backward substitution, each unknown scattered back through
  // the ordering as it is finished.
  double* w = work_.data();
  const double* lu = lu_values_.data();
  const Index* col = lu_col_idx_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = b[row_src_[i]];
    for (Index s = lu_row_ptr_[i]; s < diag_pos_[i]; ++s) sum -= lu[s] * w[col[s]];
    w[i] = sum;
  }
  for (std::size_t i = n_; i-- > 0;) {
    double sum = w[i];
    for (Index s = diag_pos_[i] + 1; s < lu_row_ptr_[i + 1]; ++s) sum -= lu[s] * w[col[s]];
    w[i] = sum / lu[diag_pos_[i]];
    x[perm_[i]] = w[i];
  }
}

}  // namespace lsl::spice
