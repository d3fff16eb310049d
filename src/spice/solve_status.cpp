#include "spice/solve_status.hpp"

namespace lsl::spice {

std::string to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kSingularMatrix: return "singular_matrix";
    case SolveStatus::kMaxIterations: return "max_iterations";
    case SolveStatus::kTimestepUnderflow: return "timestep_underflow";
    case SolveStatus::kNonFinite: return "non_finite";
  }
  return "unknown";
}

}  // namespace lsl::spice
