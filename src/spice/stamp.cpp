#include "spice/stamp.hpp"

#include "spice/workspace.hpp"

namespace lsl::spice {

double node_voltage(const Netlist& nl, const std::vector<double>& x, NodeId node) {
  if (node == kGround) return 0.0;
  return x.at(nl.voltage_index(node));
}

std::vector<double> mna_residual(const StampContext& ctx, const std::vector<double>& x) {
  std::vector<double> r;
  SolverWorkspace::tls().mna_residual(ctx, x, r);
  return r;
}

double kcl_residual_norm(const StampContext& ctx, const std::vector<double>& x) {
  return SolverWorkspace::tls().kcl_residual_norm(ctx, x);
}

}  // namespace lsl::spice
