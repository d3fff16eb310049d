// Structured solver outcome taxonomy. Fault campaigns feed the solvers
// deliberately broken circuits — floating nodes, rail shorts, dead
// feedback loops — so "did not converge" is an expected, classifiable
// event, not an error path. Every analysis (DC, transient, AC) returns
// one of these statuses plus per-solve diagnostics instead of a silent
// boolean, so the campaign layer can retry, fall back, or quarantine.
#pragma once

#include <string>

namespace lsl::spice {

enum class SolveStatus {
  kConverged,          // solution found within tolerance
  kSingularMatrix,     // LU pivot below floor: no unique solution exists
  kMaxIterations,      // Newton exhausted its budget on every ladder rung
  kTimestepUnderflow,  // transient step halving hit the dt floor
  kNonFinite,          // NaN/Inf appeared in the solution vector
  kTimeout,            // wall-clock budget exceeded
};

constexpr bool solve_ok(SolveStatus s) { return s == SolveStatus::kConverged; }

/// Stable machine-readable name ("converged", "singular_matrix", ...),
/// used in logs and JSONL checkpoints.
std::string to_string(SolveStatus s);

/// Inverse of to_string. Returns false (out untouched) on unknown text.
bool solve_status_from_string(const std::string& text, SolveStatus& out);

/// Per-solve diagnostics carried alongside every result. The fallback
/// fields record how deep into the retry ladder the solve had to go —
/// campaigns log them to spot circuits that are about to tip over.
struct SolveDiagnostics {
  int iterations = 0;         // Newton iterations summed over all rungs
  int fallback_depth = 0;     // 0 = plain Newton succeeded (or no attempt)
  std::string fallback;       // name of the rung that produced the result
  double final_max_dv = 0.0;  // worst per-node voltage update, last iteration (V)
  std::string worst_node;     // node with that worst final update
  double elapsed_sec = 0.0;
  /// Where the Newton time went, split between building the cache entry
  /// of a new structure (pattern, ordering, fill, device tables),
  /// building the linearized MNA system and LU-factoring/solving it.
  /// Only populated when util::Metrics::detailed_timing() is on (the
  /// extra clock reads sit inside the inner loop); 0.0 otherwise.
  double symbolic_sec = 0.0;
  double stamp_sec = 0.0;
  double factor_sec = 0.0;
};

}  // namespace lsl::spice
