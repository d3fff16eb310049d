// Ablations of the DFT design choices called out in DESIGN.md:
//   1. scan test without the 100 MHz toggling pattern (loses the
//      dynamic-mismatch faults, e.g. single-device tgate opens);
//   2. no BIST stage at all (loses the charge-pump faults the scan test
//      provably masks);
//   3. pessimistic both-leak-variants gate-open scoring.
//
// Two campaigns: one full-evaluation run (every sub-stage of every
// stage on every fault) gives the baseline and, projected onto fewer
// sub-stages, ablations 1 and 2; the pessimistic convention is the
// second run.
//
// Flags:  --fast       cap the universe at 150 faults (smoke run)
//         --threads N  campaign workers (0 = all hardware cores; default 0)
// Any other flag, or a flag missing its value, prints the usage line
// and exits with status 2.
#include <cstdio>
#include <cstring>

#include "cli.hpp"
#include "core/testable_link.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  lsl::dft::CampaignOptions opts;
  opts.num_threads = 0;  // all hardware cores unless --threads says otherwise
  const char* flags = "[--fast] [--threads N]";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      opts.max_faults = 150;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.num_threads = lsl::bench::count_value(argc, argv, i, flags);
    } else {
      lsl::bench::usage_exit(argv[0], flags);
    }
  }

  std::printf("DFT design-choice ablations (structural fault campaign%s)\n\n",
              opts.max_faults != 0 ? ", reduced universe" : "");

  lsl::core::TestableLink link;
  lsl::util::Table table({"Configuration", "DC", "+scan", "+BIST (total)"});
  table.set_title("Cumulative coverage under ablations");
  const auto row = [&](const char* label, const lsl::dft::CampaignReport& r) {
    table.add_row({label, lsl::util::Table::pct(r.total.cum_dc.percent()),
                   lsl::util::Table::pct(r.total.cum_scan.percent()),
                   lsl::util::Table::pct(r.total.cum_all.percent())});
  };

  namespace dft = lsl::dft;
  dft::CampaignOptions full = opts;
  full.adaptive_stage_order = false;
  std::fprintf(stderr, "running: full evaluation\n");
  const auto r = link.run_fault_campaign(full);
  row("full DFT (baseline)", r);
  row("no 100 MHz toggle test",
      dft::project_report(r, dft::kAllSubStages & ~dft::sub_bit(dft::kSubToggle)));
  row("no BIST stage", dft::project_report(r, dft::kAllSubStages & ~dft::kBistSubStages));
  dft::CampaignOptions pessimistic = opts;
  pessimistic.pessimistic_gate_opens = true;
  std::fprintf(stderr, "running: pessimistic gate opens\n");
  row("pessimistic gate opens", link.run_fault_campaign(pessimistic));
  table.print();

  std::printf(
      "\nReadings: dropping the toggle test strands the DC-invisible dynamic\n"
      "faults; dropping the BIST strands the charge-pump faults that the\n"
      "bias-collapse scan mode provably masks; the pessimistic gate-open\n"
      "convention is the floor of the gate-open row in Table I.\n");
  return 0;
}
