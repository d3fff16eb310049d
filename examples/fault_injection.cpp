// Fault-injection walkthrough: pick a structural fault (by device name
// and class), inject it into a copy of the golden analog frontend, and
// watch which of the paper's three test stages flags it.
//
//   $ ./build/examples/fault_injection                      # a default tour
//   $ ./build/examples/fault_injection cp.m_swup drain-open # one fault
//
#include <cstdio>
#include <cstring>
#include <string>

#include "core/testable_link.hpp"
#include "dft/bist_test.hpp"
#include "dft/dc_test.hpp"
#include "dft/scan_test.hpp"

namespace {

using lsl::fault::FaultClass;

bool parse_class(const std::string& s, FaultClass& out) {
  for (const FaultClass c : lsl::fault::kAllFaultClasses) {
    if (lsl::fault::fault_class_name(c) == s) {
      out = c;
      return true;
    }
  }
  return false;
}

/// The golden machine's stage outcomes, which every fault is compared with.
struct Goldens {
  lsl::cells::LinkFrontend golden_closed;
  lsl::dft::DcTestOutcome dc;
  lsl::dft::ScanTestOutcome scan;
  lsl::dft::BistTestReference bist;
};

void show_fault(const lsl::core::TestableLink& link, const Goldens& goldens,
                const std::string& device, FaultClass cls) {
  lsl::cells::LinkFrontend faulty = link.frontend();
  lsl::cells::LinkFrontend faulty_closed = goldens.golden_closed;
  const auto vdd = *faulty.netlist().find_node("vdd");
  const lsl::fault::StructuralFault fault{device, cls};
  const auto leak = lsl::fault::bulk_leak(faulty.netlist(), fault);
  if (!lsl::fault::inject(faulty.netlist(), fault, leak, vdd) ||
      !lsl::fault::inject(faulty_closed.netlist(), fault, leak,
                          *faulty_closed.netlist().find_node("vdd"))) {
    std::printf("%-40s  cannot inject (no such device / wrong kind)\n", fault.describe().c_str());
    return;
  }
  const auto dc = lsl::dft::run_dc_test(faulty_closed, goldens.dc);
  const auto scan = lsl::dft::run_scan_test(faulty, goldens.scan);
  const auto bist = lsl::dft::run_bist_test(faulty, goldens.bist);
  std::printf("%-40s  DC:%-4s scan:%-4s BIST:%-4s -> %s\n", fault.describe().c_str(),
              dc.detected() ? "HIT" : "-", scan.detected() ? "HIT" : "-",
              bist.detected() ? "HIT" : "-",
              (dc.detected() || scan.detected() || bist.detected()) ? "DETECTED" : "ESCAPES");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Structural fault injection tour ==\n");
  std::printf("running the golden machine (a few seconds of MNA solves)...\n\n");

  lsl::core::TestableLink link;
  lsl::cells::LinkFrontendSpec closed_spec = link.config().analog;
  closed_spec.close_coarse_loop = true;
  const lsl::cells::LinkFrontend golden_closed(closed_spec);
  const Goldens goldens{golden_closed,
                     lsl::dft::run_dc_test(golden_closed, {}, {}, nullptr, true),
                     lsl::dft::run_scan_test(link.frontend(), {}, {}, nullptr, true),
                     lsl::dft::bist_test_reference(link.frontend())};

  if (argc == 3) {
    FaultClass cls;
    if (!parse_class(argv[2], cls)) {
      std::printf("unknown fault class '%s'\n", argv[2]);
      std::printf("classes: ");
      for (const FaultClass c : lsl::fault::kAllFaultClasses) {
        std::printf("%s ", lsl::fault::fault_class_name(c).c_str());
      }
      std::printf("\n");
      return 1;
    }
    show_fault(link, goldens, argv[1], cls);
    return 0;
  }

  // A curated tour mirroring the paper's discussion.
  std::printf("-- faults the DC test catches (mismatch at the termination) --\n");
  show_fault(link, goldens, "tx.p.c_main", FaultClass::kCapacitorShort);
  show_fault(link, goldens, "tx.n.m_drvp", FaultClass::kDrainSourceShort);
  show_fault(link, goldens, "tx.p.m_drvn", FaultClass::kSourceOpen);

  std::printf("\n-- DC-invisible dynamic faults (the 100 MHz toggle test) --\n");
  show_fault(link, goldens, "term.termp.m_tgn", FaultClass::kDrainOpen);
  show_fault(link, goldens, "term.termn.m_tgp", FaultClass::kDrainOpen);

  std::printf("\n-- charge-pump faults via the scan bias-collapse procedure --\n");
  show_fault(link, goldens, "cp.m_swup", FaultClass::kDrainOpen);
  show_fault(link, goldens, "cp.m_srcn", FaultClass::kSourceOpen);

  std::printf("\n-- faults only the at-speed BIST sees --\n");
  show_fault(link, goldens, "cp.m_srcp", FaultClass::kDrainSourceShort);
  show_fault(link, goldens, "cp.m_swdnb", FaultClass::kDrainOpen);
  show_fault(link, goldens, "cp.m_a_inp", FaultClass::kDrainOpen);

  std::printf("\n-- genuine escapes (redundant or function-preserving) --\n");
  show_fault(link, goldens, "cp.m_bpd", FaultClass::kGateDrainShort);
  show_fault(link, goldens, "cp.m_serp", FaultClass::kDrainSourceShort);
  return 0;
}
