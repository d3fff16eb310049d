// Diagnosis resolution of the paper's DFT: with the same observers used
// for detection (DC comparators, scan captures, toggle strobes, CP-BIST
// readout, BIST verdict), how precisely can failure analysis name the
// defect? Builds the full fault dictionary (a full-evaluation campaign
// on the pool) and reports the equivalence structure, then demonstrates
// a diagnosis round-trip.
//
// Flags:  --fast   cap the universe (smoke run)
// Any other flag prints the usage line and exits with status 2.
#include <cstdio>
#include <cstring>

#include "cli.hpp"
#include "dft/dictionary.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  lsl::dft::DictionaryOptions opts;
  opts.num_threads = 0;  // all hardware cores
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") != 0) lsl::bench::usage_exit(argv[0], "[--fast]");
    opts.max_faults = 60;
  }
  opts.progress = [](std::size_t i, std::size_t n) {
    if (i % 50 == 0) std::fprintf(stderr, "  fault %zu / %zu\n", i, n);
  };

  std::printf("Fault dictionary and diagnosis resolution of the DFT observers\n\n");

  lsl::cells::LinkFrontend golden;
  const auto dict = lsl::dft::build_dictionary(golden, opts);
  const auto r = dict.resolution();

  lsl::util::Table table({"Metric", "Value"});
  table.set_title("Diagnosis resolution");
  table.add_row({"faults in dictionary", std::to_string(r.faults)});
  table.add_row({"detected (signature != golden)", std::to_string(r.detected)});
  table.add_row({"distinct signatures", std::to_string(r.classes)});
  table.add_row({"uniquely diagnosable faults", std::to_string(r.uniquely_diagnosed)});
  table.add_row({"largest ambiguity class", std::to_string(r.largest_class)});
  table.add_row({"average class size", lsl::util::Table::num(r.avg_class_size, 2)});
  table.print();

  // Round-trip demo: a "failed part" comes back; the dictionary names
  // the candidates. Use a detected fault that is actually in the
  // dictionary (works under --fast too), and observe the part with a
  // second campaign over just that device, injected as the dictionary
  // injects it (gate opens leak toward the bulk).
  lsl::fault::StructuralFault injected{"tx.p.c_main", lsl::fault::FaultClass::kCapacitorShort};
  for (const auto& e : dict.entries()) {
    if (e.signature != dict.golden_signature()) {
      injected = e.fault;
      break;
    }
  }
  lsl::dft::DictionaryOptions part_opts;
  part_opts.prefixes = {injected.device};
  const auto part = lsl::dft::build_dictionary(golden, part_opts);
  std::string observed;
  for (const auto& e : part.entries()) {
    if (e.fault.device == injected.device && e.fault.cls == injected.cls) observed = e.signature;
  }
  const auto candidates = dict.diagnose(observed);
  std::printf("\nDiagnosis round-trip for an injected '%s':\n", injected.describe().c_str());
  std::printf("  %zu candidate(s):\n", candidates.size());
  for (const auto* c : candidates) std::printf("    %s\n", c->fault.describe().c_str());
  return 0;
}
