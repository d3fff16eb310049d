// SolverWorkspace: reusable per-thread state for the MNA solve path.
//
// Every Newton linear solve, DC and transient, whatever its unknown
// count, runs here on one sparse engine, with reuse at three levels:
//
//  1. **Buffers** — matrices, RHS vectors, and scratch are owned by the
//     workspace and recycled, so the Newton inner loop performs zero
//     heap allocations after warm-up.
//  2. **Split linear/nonlinear stamping over per-topology device
//     tables** — the linear skeleton (resistors, capacitor companions'
//     conductances, V/E incidence, gmin) is stamped once per (topology,
//     gmin, dt, integrator) configuration into a cached base, kept in
//     the LU factor's layout with zeros at the fill slots; each
//     iteration copies the base straight into the factor's storage and
//     stamps only the MOSFET Jacobians (at slots mapped into the LU
//     layout when the entry is built) and the RHS, and the factor runs
//     in place, with no zero-fill and no scatter of A. The KCL checks
//     read A's entries through the same slot map. All three walk flat
//     tables built with the entry:
//     the linear terms (value slot and value, a capacitor's scaled by
//     the integrator and dt), each MOSFET's level-1 parameters with its
//     unknowns and value slots, and an RHS list in device order
//     (capacitor companions, V and I sources with their rows). Source
//     values are not part of the structure, so the RHS list reads them
//     from the netlist (or the transient drive overrides) on every
//     iteration.
//  3. **Sparse LU with cached symbolic analysis** — the sparsity
//     pattern, fill-reducing ordering, and fill pattern are computed
//     once per netlist *structure* and reused across all Newton
//     iterations, timesteps, sweep points, and retry-ladder rungs.
//     The analysis also compiles the refactorization into index
//     tables (sparse.hpp), so each iteration's numeric factor is one
//     flat pass over the LU values, and the triangular solve is two
//     (the permutations folded into them). Each V/E branch row is paired with
//     a terminal node's KCL row (a static row permutation, see
//     sparse.hpp), so source rows pivot on their ±1 incidence entries.
//     A pivot under the health floor fails the iteration as singular.
//     The solves themselves are not verified one by one: Newton checks
//     accuracy once, at its exit, with one O(nnz) KCL test of the
//     accepted iterate (kcl_satisfied).
//
// Cost of a new structure: one walk over the devices notes the pattern
// and fills the device tables with note indices; finalize_pattern's
// counting sorts turn them into value slots, so no slot is searched
// for; the ordering and fill run on bitsets (sparse.hpp). On the
// TABLE-I fault structures (116 unknowns) a new structure costs about
// 35-55 µs, key and linear base included, or about ten warm Newton
// iterations (perf_engines --json: newton_kernels splits it by phase).
// A warm iteration there costs about 3-3.5 µs (perf_engines newton_us,
// median on a shared 4-core host): about 1-1.2 µs of stamping (the
// 546-value copy of the base into the factor, the MOSFET evaluations,
// the RHS), the rest the in-place factor and the solve.
//
// Cache keying: entries are keyed by a structural hash of the netlist
// (node count, model card, and every device's kind/terminals/
// matrix-shaping values — names and RHS-only source values excluded).
// Distinct netlists with identical structure — the thousands of
// per-fault copies a campaign makes of the same golden stage stimulus —
// therefore share one symbolic analysis, one fill pattern, one set of
// device tables and one linear base. Up to 16 structures stay cached
// per workspace (least recently used goes first). A memo ring from
// Netlist::generation() to the hash makes the key a cheap lookup on
// the warm path, and a Newton loop resolves its entry once, on its
// first iteration (NewtonBinding). Hash-equal structures produce
// bit-identical stamps, so sharing never changes results; a collision
// (same hash, different structure) is caught by the unknown-count
// check and simply rebuilds the entry.
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

#include "spice/solve_status.hpp"
#include "spice/sparse.hpp"
#include "spice/stamp.hpp"

namespace lsl::spice {

/// Hash of everything that shapes the MNA matrix of `nl`: node count,
/// model card, and each device's kind, enabled flag, terminals and
/// matrix-entering values, in device order (device names and source
/// values excluded). The workspace's cache key, see above.
std::uint64_t structural_key(const Netlist& nl);

class SolverWorkspace {
  struct Entry;  // one cached structure (defined below)

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
    std::uint64_t sparse_solves = 0;      // iterations solved
    std::uint64_t pivot_rejects = 0;      // sparse factors under the pivot floor (singular)
    std::uint64_t kcl_rejects = 0;        // Newton exits refused by the KCL check
    // Symbolic-build time by phase, accumulated only under detailed
    // timing (util::Metrics::detailed_timing).
    double build_tables_sec = 0.0;    // device walk: pattern notes and device tables
    double build_pattern_sec = 0.0;   // finalize_pattern and the note-to-slot resolve
    double build_ordering_sec = 0.0;  // minimum-degree ordering
    double build_fill_sec = 0.0;      // symbolic fill and the compiled refactorization
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Drops every cached topology (tests; never required for
  /// correctness — structural keys make stale reuse impossible).
  void clear();

  /// Parks an initial guess for the next solve_dc on this workspace
  /// (the campaign's golden warm start). Consumed — and always cleared
  /// — by exactly one solve; a guess whose size does not match that
  /// solve's unknown count is discarded. `chained` marks a guess
  /// predicted from the fault's previous solve (seed.hpp), which
  /// solve_dc counts apart.
  void seed_from(const std::vector<double>& x);
  void seed_from(std::vector<double>&& x, bool chained = false);
  /// Takes (and clears) the pending seed, and whether it was chained.
  /// False when none is armed.
  bool take_pending_seed(std::vector<double>& out, bool* chained = nullptr);

  /// The cache entry a Newton loop solves on. Default-constructed
  /// (null) it is unresolved; the first solve_newton_system call that
  /// receives it resolves the context's entry (building it if the
  /// structure is new) and later calls reuse it, so a loop pays the key
  /// lookup once. Only valid while the context's netlist structure,
  /// gmin, dt and integrator stay as they were on that first call.
  struct NewtonBinding {
    Entry* entry = nullptr;
  };

  /// One Newton linear solve: builds the linearized MNA system about
  /// iterate `x` (cached linear base + fresh nonlinear/RHS stamps) and
  /// solves G·x_new = b. Returns false when the system is singular: a
  /// pivot under the floor.
  /// When `diag` is non-null and detailed timing is on, symbolic-build,
  /// stamp and factor time are accumulated into it. Allocation-free
  /// after warm-up.
  bool solve_newton_system(const StampContext& ctx, NewtonBinding& binding,
                           const std::vector<double>& x, std::vector<double>& x_new,
                           SolveDiagnostics* diag = nullptr);
  /// The same for a one-off solve (the entry is resolved per call).
  bool solve_newton_system(const StampContext& ctx, const std::vector<double>& x,
                           std::vector<double>& x_new, SolveDiagnostics* diag = nullptr) {
    NewtonBinding binding;
    return solve_newton_system(ctx, binding, x, x_new, diag);
  }

  /// Newton's exit check, on the binding a loop solved with (resolved
  /// by solve_newton_system): stamps the system about the accepted
  /// iterate `x` and requires every node row to balance,
  /// |r_i| <= 1e-3·Σ|terms_i| + 1e-12 A, the terms being the row's
  /// stamped currents and its RHS. O(nnz); a failure counts in
  /// Stats::kcl_rejects. Stamp time joins `diag` under detailed timing.
  bool kcl_satisfied(const StampContext& ctx, const NewtonBinding& binding,
                     const std::vector<double>& x, SolveDiagnostics* diag = nullptr);

  /// O(nnz) nonlinear MNA residual r = G(x)·x − b(x), walking the
  /// cached sparse pattern (the free mna_residual runs this on the
  /// calling thread's workspace). `r` is resized to the unknown count.
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
  /// One term of the linear stamp base, in the order the base adds
  /// them: a fixed value (a resistor's ±conductance, a V/E incidence
  /// ±1 or gain) or a capacitor companion's ±farads, which the base
  /// scales by the integrator's factor and dt.
  struct LinearTerm {
    double value = 0.0;
    std::uint32_t slot = 0;  // LU slot (analyze keeps them below 2^32)
    bool capacitor = false;
  };

  /// One MOSFET of a cached topology: its level-1 parameters, terminal
  /// unknowns (-1 = ground) and the LU value slots of rows d and s
  /// across columns d, g, s.
  struct MosStamp {
    MosParams params;
    std::ptrdiff_t xd = -1, xg = -1, xs = -1;
    std::size_t dd = kNoSlot, dg = kNoSlot, ds = kNoSlot;
    std::size_t sd = kNoSlot, sg = kNoSlot, ss = kNoSlot;
  };

  /// One right-hand-side term, in device order. Capacitor companions
  /// and current sources inject a current from row `from` to row `to`
  /// (-1 = ground); a voltage source sets its branch row `to`.
  struct RhsTerm {
    enum class Kind { kCapacitor, kVSource, kISource };
    Kind kind = Kind::kCapacitor;
    std::size_t device = 0;
    std::ptrdiff_t from = -1, to = -1;
    NodeId a = kGround, b = kGround;  // capacitor terminals
    double farads = 0.0;
  };

  struct Entry {
    bool used = false;
    std::uint64_t key = 0;  // structural hash of the netlist
    std::uint64_t last_use = 0;
    std::size_t n = 0;
    std::size_t n_volts = 0;
    SparseMatrix mat;  // A's pattern; its values live in lu.values()
    SparseLu lu;
    std::vector<std::size_t> diag_slot;  // LU slot of each diagonal
    std::vector<LinearTerm> linear;
    std::vector<MosStamp> mos;
    std::vector<RhsTerm> rhs;
    // Cached linear stamp base (LU layout) and the configuration that
    // shaped it.
    bool base_valid = false;
    double base_gmin = 0.0;
    double base_dt = 0.0;
    Integrator base_integrator = Integrator::kBackwardEuler;
    std::vector<double> base_values;
    // Per-iteration staging.
    std::vector<double> b;

    /// Row i of A·x − b for the system last stamped, A read from the
    /// LU storage through the slot map; `scale` gets the row's
    /// |b_i| + Σ|A_is·x_s|.
    double row_residual(const std::vector<double>& x, std::size_t i, double& scale) const;
  };

  std::uint64_t entry_key(const StampContext& ctx);
  Entry& entry_for(const StampContext& ctx, bool& built);
  void build_entry(Entry& e, const StampContext& ctx);
  void ensure_linear_base(Entry& e, const StampContext& ctx);
  void stamp(Entry& e, const StampContext& ctx, const std::vector<double>& x);

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
  bool pending_chained_ = false;

  std::vector<double> iterate_scratch_;

  // AC scratch.
  std::vector<std::complex<double>> ac_g_;
  std::vector<std::complex<double>> ac_b_;
  std::vector<std::complex<double>> ac_x_;
};

}  // namespace lsl::spice
