// SolverWorkspace: reusable per-thread state for the MNA solve path.
//
// Every Newton iteration in this repo used to reallocate an n×n dense
// matrix, re-stamp every linear device, copy the system by value into
// lu_solve, and run dense O(n³) elimination on a matrix that is ~95%
// zeros. The workspace removes all of that, with reuse at three levels:
//
//  1. **Buffers** — matrices, RHS vectors, and scratch are owned by the
//     workspace and recycled, so the Newton inner loop performs zero
//     heap allocations after warm-up.
//  2. **Split linear/nonlinear stamping** — the linear skeleton
//     (resistors, capacitor companions' conductances, V/E incidence,
//     gmin) is stamped once per (topology, gmin, dt, integrator)
//     configuration into a cached base; each iteration memcpys the base
//     and stamps only the MOSFET Jacobians and the RHS.
//  3. **Sparse LU with cached symbolic analysis** — the sparsity
//     pattern, fill-reducing ordering, and fill pattern are computed
//     once per netlist *structure* and reused across all Newton
//     iterations, timesteps, sweep points, and retry-ladder rungs;
//     only the numeric refactorization runs per iteration. A
//     pivot-health check plus an O(nnz) residual verification route any
//     questionable solve to the dense partial-pivot fallback, so
//     singular-matrix semantics are exactly the dense engine's.
//
// Cache keying: entries are keyed by a structural hash of the netlist
// (node count, model card, and every device's kind/terminals/
// matrix-shaping values — names and RHS-only source values excluded).
// Distinct netlists with identical structure — the thousands of
// per-fault copies a campaign makes of the same golden stage stimulus —
// therefore share one symbolic analysis, one fill pattern, and one
// linear base. A memo ring keyed on Netlist::generation() makes the
// hash itself a cheap lookup on the warm path. Hash-equal structures
// produce bit-identical stamps, so sharing never changes results; a
// collision (same hash, different structure) is caught by the
// unknown-count check and simply rebuilds the entry.
//
// For campaign warm starts, seed_from() parks a pending initial guess
// on the workspace; the next solve_dc on this workspace consumes it as
// an extra first ladder rung ("golden-warm-start").
//
// Ownership: one workspace per thread. The default instance is
// thread-local (SolverWorkspace::tls()), which gives every campaign /
// Monte-Carlo pool worker its own warm workspace for free; explicit
// instances can be passed to solve_dc / dc_sweep / run_transient /
// run_ac for tests and benchmarks. A workspace may be reused across
// arbitrarily many netlists. Caches never change results: a warm solve
// is numerically identical to a cold solve of the same system.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "spice/matrix.hpp"
#include "spice/solve_status.hpp"
#include "spice/sparse.hpp"
#include "spice/stamp.hpp"

namespace lsl::spice {

/// Process-wide solver tuning knobs. Read on every solve; mutate only
/// while no solves are in flight (tests and benches flip force_dense
/// for A/B comparisons).
struct SolverTuning {
  /// Systems with fewer unknowns than this stay on the dense path —
  /// at tiny n dense partial-pivot LU is both faster and the most
  /// battle-tested code, and the unit-test circuits live there.
  std::size_t dense_crossover = 16;
  /// Force every solve onto the dense path (A/B benchmarking, and the
  /// reference side of the sparse/dense equivalence tests).
  bool force_dense = false;
  /// Force the sparse path even below the crossover (tests).
  bool force_sparse = false;
  /// Per-row relative residual bound for post-solve verification; a
  /// sparse solve whose residual exceeds it falls back to dense. This
  /// is the sole numerical-quality gate for the no-pivot sparse
  /// factorization (the factor itself only enforces an absolute
  /// ~1e-18 pivot floor).
  double sparse_residual_rel_tol = 1e-8;
};

SolverTuning& solver_tuning();

class SolverWorkspace {
 public:
  SolverWorkspace() = default;
  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  /// The calling thread's default workspace. Campaign and Monte-Carlo
  /// pool workers each see their own instance.
  static SolverWorkspace& tls();

  /// Monotonic instrumentation, cheap plain counters (the workspace is
  /// single-threaded). The solver layers flush per-solve deltas into
  /// the metrics registry (docs/OBSERVABILITY.md).
  struct Stats {
    std::uint64_t symbolic_builds = 0;    // pattern + ordering + fill computed
    std::uint64_t symbolic_reuse = 0;     // iterations served by a cached pattern
    std::uint64_t linear_stamp_builds = 0;  // linear base (re)stamped
    std::uint64_t linear_stamp_reuse = 0;   // iterations served by a cached base
    std::uint64_t sparse_solves = 0;      // iterations solved sparse
    std::uint64_t dense_solves = 0;       // iterations solved dense by design
    std::uint64_t dense_fallbacks = 0;    // sparse attempt rejected -> dense
    std::uint64_t pivot_rejects = 0;      // ...because a pivot failed the health check
    std::uint64_t residual_rejects = 0;   // ...because the solve failed verification
    std::uint64_t refinement_steps = 0;   // O(nnz) refinements that rescued a solve
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Drops every cached topology (tests; never required for
  /// correctness — structural keys make stale reuse impossible).
  void clear();

  /// Parks an initial guess for the next solve_dc on this workspace
  /// (the campaign's golden warm start). Consumed — and always cleared
  /// — by exactly one solve; a guess whose size does not match that
  /// solve's unknown count is discarded.
  void seed_from(const std::vector<double>& x);
  void seed_from(std::vector<double>&& x);
  /// Takes (and clears) the pending seed. False when none is armed.
  bool take_pending_seed(std::vector<double>& out);

  /// One Newton linear solve: builds the linearized MNA system about
  /// iterate `x` (cached linear base + fresh nonlinear/RHS stamps) and
  /// solves G·x_new = b. Returns false when the system is singular
  /// (decided by the dense partial-pivot fallback, exactly as before).
  /// When `diag` is non-null and detailed timing is on, stamp/factor
  /// time is accumulated into it. Allocation-free after warm-up.
  bool solve_newton_system(const StampContext& ctx, const std::vector<double>& x,
                           std::vector<double>& x_new, SolveDiagnostics* diag = nullptr);

  /// O(nnz) nonlinear MNA residual r = G(x)·x − b(x) (same definition
  /// as the free mna_residual, minus the dense row sweep and the
  /// per-call allocations). `r` is resized to the unknown count.
  void mna_residual(const StampContext& ctx, const std::vector<double>& x,
                    std::vector<double>& r);

  /// Max |r| over the node-voltage rows, via the sparse pattern.
  double kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x);

  /// Per-solve iterate scratch shared by the Newton drivers (dc and
  /// transient), so repeated solves recycle one x_new buffer.
  std::vector<double>& iterate_scratch() { return iterate_scratch_; }

  /// Scratch for the complex AC solves (run_ac reuses these across
  /// frequency points instead of reallocating n² per point).
  std::vector<std::complex<double>>& ac_matrix() { return ac_g_; }
  std::vector<std::complex<double>>& ac_rhs() { return ac_b_; }
  std::vector<std::complex<double>>& ac_solution() { return ac_x_; }

 private:
  struct MosSlots {
    std::size_t device = 0;
    // Unknown indices of the terminals, -1 = ground.
    std::ptrdiff_t xd = -1, xg = -1, xs = -1;
    // Value slots for row d / row s across columns d, g, s.
    std::size_t dd = kNoSlot, dg = kNoSlot, ds = kNoSlot;
    std::size_t sd = kNoSlot, sg = kNoSlot, ss = kNoSlot;
  };

  struct Entry {
    bool used = false;
    std::uint64_t key = 0;  // structural hash of the netlist
    std::uint64_t last_use = 0;
    std::size_t n = 0;
    std::size_t n_volts = 0;
    SparseMatrix mat;  // pattern fixed; values restamped per iteration
    SparseLu lu;
    std::vector<std::size_t> diag_slot;
    std::vector<MosSlots> mos;
    // Cached linear stamp base and the configuration that shaped it.
    bool base_valid = false;
    double base_gmin = 0.0;
    double base_dt = 0.0;
    Integrator base_integrator = Integrator::kBackwardEuler;
    std::vector<double> base_values;
    // Per-iteration staging.
    std::vector<double> b;
    // Iterative-refinement scratch (residual and correction).
    std::vector<double> refine_r;
    std::vector<double> refine_dx;
  };

  std::uint64_t entry_key(const StampContext& ctx);
  Entry& entry_for(const StampContext& ctx);
  void build_entry(Entry& e, const StampContext& ctx);
  void ensure_linear_base(Entry& e, const StampContext& ctx);
  void stamp_rhs(Entry& e, const StampContext& ctx);
  void stamp_nonlinear(Entry& e, const StampContext& ctx, const std::vector<double>& x);
  bool residual_acceptable(const Entry& e, const std::vector<double>& x_new) const;
  void refine(Entry& e, std::vector<double>& x_new);
  bool dense_solve(const StampContext& ctx, const std::vector<double>& x,
                   std::vector<double>& x_new);

  static constexpr std::size_t kMaxEntries = 16;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::uint64_t lru_tick_ = 0;
  Stats stats_;

  // Memo ring for the structural hash: generation → key, so the warm
  // path never rehashes the device list.
  struct KeyMemo {
    bool valid = false;
    std::uint64_t generation = 0;
    std::uint64_t key = 0;
  };
  std::array<KeyMemo, 32> key_memo_{};
  std::size_t key_memo_next_ = 0;

  // Pending campaign warm-start seed (see seed_from).
  std::vector<double> pending_seed_;
  bool has_pending_seed_ = false;

  // Dense path / fallback buffers.
  Matrix dense_g_;
  std::vector<double> dense_b_;
  std::vector<double> iterate_scratch_;

  // AC scratch.
  std::vector<std::complex<double>> ac_g_;
  std::vector<std::complex<double>> ac_b_;
  std::vector<std::complex<double>> ac_x_;
};

}  // namespace lsl::spice
