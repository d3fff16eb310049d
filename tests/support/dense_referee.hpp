// The dense referee of the MNA solver. The library solves every Newton
// system on one sparse engine (spice/workspace.hpp); this is an
// independent dense reimplementation kept under tests/ to check it:
// a row-major matrix, Doolittle LU with partial pivoting, and a dense
// stamp that reads the netlist device by device, with none of the
// workspace's cached tables, slot maps or source pairing. The sparse
// engine's tests, its property tests and perf_engines' kernel ledger
// link it; nothing in src/ does.
#pragma once

#include <cstddef>
#include <vector>

#include "spice/stamp.hpp"

namespace lsl::spice {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void fill(double v);
  void resize(std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b destructively: factors `a` in place (LU with partial
/// pivoting, rows of `b` permuted in tandem) and overwrites `b` with the
/// solution. Returns false if the matrix is numerically singular (pivot
/// below `pivot_floor`); `a` and `b` hold partial factorization state
/// in that case.
bool lu_solve_inplace(Matrix& a, std::vector<double>& b, double pivot_floor = 1e-18);

/// lu_solve_inplace on copies: `x` is only written on success.
bool lu_solve(Matrix a, std::vector<double> b, std::vector<double>& x,
              double pivot_floor = 1e-18);

/// Builds the linearized MNA system G·x = b about solution estimate
/// `x`, in the unknown ordering of stamp.hpp. G and b are resized and
/// zeroed internally.
void stamp_system(const StampContext& ctx, const std::vector<double>& x, Matrix& g,
                  std::vector<double>& b);

/// One dense Newton step about `x`: the largest |x_new_i − x_i| of the
/// solution of the system stamped there, or +inf when it is singular.
/// At a converged solution of the same system the step is Newton's
/// remaining error.
double dense_newton_step(const StampContext& ctx, const std::vector<double>& x);

/// True when every node row of the system stamped about `x` balances to
/// Newton's exit bound, |r_i| <= 1e-3·Σ|terms_i| + 1e-12 A, the terms
/// being the row's stamped currents G_ij·x_j and its RHS b_i.
bool kcl_balanced(const StampContext& ctx, const std::vector<double>& x);

}  // namespace lsl::spice
