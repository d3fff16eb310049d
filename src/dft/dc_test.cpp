#include "dft/dc_test.hpp"

namespace lsl::dft {

DcTestReference dc_test_reference(const cells::LinkFrontend& golden,
                                  const spice::SolveHints* hints) {
  DcTestReference ref;
  cells::LinkFrontend fe = golden;
  fe.set_data(true, true);
  const auto r1 = fe.solve();
  if (r1.converged) spice::capture_seed(hints, "dc.1", fe.netlist(), r1.x);
  fe.set_data(false, false);
  const auto r0 = fe.solve();
  if (r0.converged) spice::capture_seed(hints, "dc.0", fe.netlist(), r0.x);
  if (!r1.converged || !r0.converged) return ref;
  ref.obs1 = fe.observe(r1);
  ref.obs0 = fe.observe(r0);
  ref.valid = true;
  return ref;
}

DcTestOutcome run_dc_test(const cells::LinkFrontend& fe_in, const DcTestReference& ref,
                          const spice::DcOptions& solve, const spice::SolveHints* hints) {
  DcTestOutcome out;
  cells::LinkFrontend fe = fe_in;

  fe.set_data(true, true);
  spice::arm_warm_start(hints, "dc.1", fe.netlist());
  const auto r1 = fe.solve(solve);
  out.iterations += r1.iterations;
  if (!r1.converged) {
    out.anomalous = true;
    out.status = r1.status;
    return out;
  }
  if (!fe.observe(r1).same_static(ref.obs1)) {
    out.detected = true;
    return out;
  }

  fe.set_data(false, false);
  spice::arm_warm_start(hints, "dc.0", fe.netlist());
  const auto r0 = fe.solve(solve);
  out.iterations += r0.iterations;
  if (!r0.converged) {
    out.anomalous = true;
    out.status = r0.status;
    return out;
  }
  out.detected = !fe.observe(r0).same_static(ref.obs0);
  return out;
}

}  // namespace lsl::dft
