#include "dft/dc_test.hpp"

namespace lsl::dft {

DcTestOutcome run_dc_test(const cells::LinkFrontend& fe_in, const DcTestOutcome& golden,
                          const spice::DcOptions& solve, const spice::SolveHints* hints,
                          bool full_evaluation) {
  DcTestOutcome out;
  out.golden = &golden;
  cells::LinkFrontend fe = fe_in;
  for (const bool d : {true, false}) {
    if (out.stops(full_evaluation)) break;
    fe.set_data(d, d);
    const char* key = d ? "dc.1" : "dc.0";
    spice::arm_warm_start(hints, key, fe.netlist());
    const auto r = fe.solve(solve);
    out.iterations += r.iterations;
    if (r.converged) spice::capture_seed(hints, key, fe.netlist(), r.x);
    out.record(kSubDc,
               r.converged ? observation_marks(fe.observe(r))
                           : std::string(cells::LinkObservation::kBitCount, '!'),
               r.status);
  }
  out.finish(kStageDc);
  return out;
}

}  // namespace lsl::dft
