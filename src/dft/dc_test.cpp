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
                          const spice::DcOptions& solve, const spice::SolveHints* hints,
                          bool full_evaluation) {
  DcTestOutcome out;
  cells::LinkFrontend fe = fe_in;
  for (const bool d : {true, false}) {
    if (out.stops(full_evaluation)) break;
    fe.set_data(d, d);
    spice::arm_warm_start(hints, d ? "dc.1" : "dc.0", fe.netlist());
    const auto r = fe.solve(solve);
    out.iterations += r.iterations;
    if (!r.converged) {
      out.record(kSubDc, std::string(cells::LinkObservation::kBitCount, '!'), false, true,
                 r.status);
      continue;
    }
    const cells::LinkObservation obs = fe.observe(r);
    out.record(kSubDc, observation_marks(obs), !obs.same_static(d ? ref.obs1 : ref.obs0), false,
               r.status);
  }
  out.finish({kSubDc});
  return out;
}

}  // namespace lsl::dft
