#include "dft/dc_test.hpp"

namespace lsl::dft {

DcTestOutcome run_dc_test(cells::LinkFrontend fe, const DcTestOutcome& golden,
                          const spice::DcOptions& solve, const spice::SolveHints* hints,
                          bool full_evaluation) {
  DcTestOutcome out;
  out.golden = &golden;
  // "dc.0" follows "dc.1" on the same netlist: it starts from dc.1's
  // solution plus the golden's change (spice/seed.hpp).
  spice::SeedChain chain(hints);
  for (const bool d : {true, false}) {
    if (out.stops(full_evaluation)) break;
    fe.set_data(d, d);
    chain.arm(d ? "dc.1" : "dc.0", fe.netlist());
    const auto r = fe.solve(solve);
    out.iterations += r.iterations;
    chain.record(fe.netlist(), r.converged, r.x);
    out.record(kSubDc,
               r.converged ? observation_marks(fe.observe(r))
                           : std::string(cells::LinkObservation::kBitCount, '!'),
               r.status);
  }
  out.finish();
  return out;
}

}  // namespace lsl::dft
