// Sparse linear algebra for the MNA solver: a CSR matrix whose sparsity
// pattern is fixed once per netlist topology, plus an LU factorization
// that separates the one-off *symbolic* work (fill-reducing ordering,
// fill pattern) from the per-Newton-iteration *numeric* refactorization.
//
// MNA systems here are overwhelmingly sparse (a handful of entries per
// row) but small (tens to a few hundred unknowns), so the design favors
// simplicity with the right asymptotics over supernodal machinery:
//
//  - Source pairing: a voltage-source branch row has a structural zero
//    on its diagonal, and the node it drives often has only gmin
//    (1e-12 S) on its own diagonal, e.g. a source-driven MOSFET gate.
//    With those as pivots, a 0-V source's terminal voltage comes out
//    as ±1e-16 V of roundoff, a relative residual of 1.0 on its
//    branch row. So the caller supplies a static row map that swaps
//    each V/E branch row with the KCL row of one of its terminals (as
//    SPICE-class solvers do for zero-diagonal source rows): the
//    terminal's column is pivoted on the branch row's ±1 incidence
//    entry and the branch column on the terminal's KCL ±1 entry.
//  - Ordering: minimum-degree over the node-voltage unknowns, with the
//    branch-current unknowns of V/E sources appended in natural order.
//    The elimination graph is a bitset per vertex and the live
//    vertices sit in per-degree bitset buckets, so a step costs its
//    neighbours' updates, not a scan of every vertex.
//    A branch row paired with no terminal (both terminals ground or
//    already taken) keeps its structural-zero diagonal, which *receives*
//    fill once its node neighbors are eliminated, so branch columns go
//    last.
//  - Numeric factorization: up-looking row LU on the static pattern, no
//    pivoting, compiled at analyze() time into two flat index tables
//    (where each A slot lands in LU storage, and for every L entry the
//    row slots its U row updates), so factoring is one straight pass
//    of divide-and-update over the LU values. A caller that stamps A
//    straight into the LU storage (lu_slot, values) factors it where it
//    lies (factor_in_place): no zero-fill and no scatter per iteration;
//    factor(A) is that plus the scatter. A per-row pivot-health check
//    (absolute floor) rejects factorizations that static ordering
//    cannot handle; the caller treats them as singular.
//  - Triangular solve: the row map and ordering are folded into the
//    substitutions (the forward pass gathers b through them, the
//    backward pass scatters x), so a solve is two passes over the LU
//    values and no permutation pass. On the TABLE-I fault structures
//    (116 unknowns, 546 LU entries) factor(A) takes about 1.3-1.6 µs
//    and a solve about 0.6-0.7 µs (perf_engines --json,
//    newton_kernels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lsl::spice {

inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Row-major CSR matrix with a two-phase life cycle: a pattern phase
/// (note every coordinate the stamps will ever touch; duplicates fine)
/// followed by a value phase (zero / add into resolved slots). The
/// diagonal is always part of the pattern. Re-entering the pattern
/// phase (begin_pattern) is the only way to change the structure.
class SparseMatrix {
 public:
  // --- pattern phase (cold: once per netlist topology) ---
  /// Starts a pattern of dimension n. Notes 0..n-1 are the diagonal.
  void begin_pattern(std::size_t n);
  /// Notes entry (r, c) and returns the note's index.
  std::size_t note(std::size_t r, std::size_t c) {
    if (!building_ || r >= n_ || c >= n_) throw_bad_note();
    coords_.emplace_back(r, c);
    return coords_.size() - 1;
  }
  /// Fixes the pattern and returns, per note index, the entry's value
  /// slot, so a caller that keeps its note indices resolves every slot
  /// it will stamp without a slot() search. Two counting sorts (by
  /// column, then stably by row) order the notes: O(notes + n), no
  /// comparison sort. Frees the note scratch.
  std::vector<std::size_t> finalize_pattern();

  std::size_t dim() const { return n_; }
  std::size_t nnz() const { return col_idx_.size(); }
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }

  /// Slot of entry (r, c), or kNoSlot if outside the pattern. Binary
  /// search — cold-path only; hot paths precompute slots.
  std::size_t slot(std::size_t r, std::size_t c) const;

  // --- value phase (hot: every Newton iteration) ---
  void zero() { std::fill(values_.begin(), values_.end(), 0.0); }
  void add(std::size_t slot, double v) { values_[slot] += v; }
  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

 private:
  [[noreturn]] void throw_bad_note() const;

  std::size_t n_ = 0;
  bool building_ = false;
  std::vector<std::pair<std::size_t, std::size_t>> coords_;  // pattern phase
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// LU factorization of a SparseMatrix with cached symbolic analysis.
/// analyze() once per pattern; factor()/solve() every iteration.
class SparseLu {
 public:
  /// Symbolic phase: fill-reducing ordering, fill pattern and the
  /// compiled refactorization tables of the row-permuted matrix B whose
  /// row r is A's row `row_map[r]` (`row_map` must be a permutation of
  /// [0, dim)). Unknowns [0, n_volts) are node voltages (minimum-degree
  /// ordered); unknowns [n_volts, n) are branch currents, kept last in
  /// natural order. Allocates; never called from the hot loop. When
  /// `ordering_sec` is non-null, the ordering's wall time is added to it.
  void analyze(const SparseMatrix& a, std::size_t n_volts,
               const std::vector<std::size_t>& row_map, double* ordering_sec = nullptr);

  std::size_t fill_nnz() const { return lu_col_idx_.size(); }

  /// LU storage slot of A's value slot `a_slot` (A slots land in
  /// distinct LU slots; the others are fill).
  std::size_t lu_slot(std::size_t a_slot) const { return a_to_lu_[a_slot]; }
  /// The LU value storage, fill_nnz() long. A caller that writes A's
  /// entries at their lu_slot()s and zeros at every fill slot can
  /// factor_in_place() without going through a SparseMatrix.
  std::vector<double>& values() { return lu_values_; }
  const std::vector<double>& values() const { return lu_values_; }

  /// Numeric refactorization of the matrix held in values() on the
  /// cached symbolic structure, in place. Allocation-free. Returns
  /// false when a pivot falls below the absolute floor (or is NaN) —
  /// the static-order factorization is then untrustworthy and the
  /// caller treats the system as singular. Quality beyond that is the
  /// caller's job, since static ordering has no partial pivoting: the
  /// Newton loop checks KCL at its exit.
  bool factor_in_place(double pivot_floor);
  /// The same for `a` (same pattern as analyzed): zero-fills the LU
  /// storage, scatters A into it and factors it in place.
  bool factor(const SparseMatrix& a, double pivot_floor);

  /// Solves A x = b using the last successful factor(). Allocation-free;
  /// `x` must be pre-sized to dim(). `x` and `b` may not alias.
  void solve(const std::vector<double>& b, std::vector<double>& x) const;

 private:
  // 32-bit indices keep the per-topology tables small (analyze() throws
  // if a system ever outgrows them).
  using Index = std::uint32_t;

  std::size_t n_ = 0;
  bool analyzed_ = false;
  std::vector<Index> perm_;     // permuted unknown i <- original perm_[i]
  std::vector<Index> row_src_;  // LU row i <- A's row row_map[perm_[i]]
  // LU pattern over permuted indices, rows sorted; diag_pos_[i] is the
  // slot of the diagonal inside row i (L strictly left, U from there).
  std::vector<Index> lu_row_ptr_;
  std::vector<Index> lu_col_idx_;
  std::vector<Index> diag_pos_;
  // Compiled refactorization: A slot s lands in LU slot a_to_lu_[s];
  // the L entries (i, k), taken in factor order, own consecutive runs
  // of update_slot_, one LU slot of row i per entry of U(k).
  std::vector<Index> a_to_lu_;
  std::vector<Index> update_slot_;
  std::vector<double> lu_values_;
  mutable std::vector<double> work_;  // solve scratch
};

}  // namespace lsl::spice
