// Regenerates the Section IV coverage progression: DC test alone, then
// + scan, then + BIST — the paper's 50.4% -> 74.3% -> 94.8% — plus the
// digital stuck-at figure (paper: 100%).
//
// Flags:  --fast       cap the analog universe at 80 faults (smoke run)
//         --threads N  campaign workers (0 = all hardware cores; default 0)
//         --trace <path>    Chrome trace_event JSON of the run (Perfetto)
//         --metrics <path>  util::Metrics snapshot JSON at exit
// Any other flag, or a flag missing its value, prints the usage line
// and exits with status 2.
#include <cstdio>
#include <cstring>

#include "cli.hpp"
#include "core/testable_link.hpp"
#include "observability.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  lsl::dft::CampaignOptions opts;
  opts.num_threads = 0;  // all hardware cores unless --threads says otherwise
  // The scan/BIST set relation below needs every stage to run on every
  // fault; the adaptive short-circuit would skip later stages once an
  // earlier one detects. Cumulative coverage is the same either way.
  opts.adaptive_stage_order = false;
  lsl::bench::Observability obs;
  const char* flags = "[--fast] [--threads N] [--trace <path>] [--metrics <path>]";
  for (int i = 1; i < argc; ++i) {
    if (obs.parse_flag(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--fast") == 0) {
      opts.max_faults = 80;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.num_threads = lsl::bench::count_value(argc, argv, i, flags);
    } else {
      lsl::bench::usage_exit(argv[0], flags);
    }
  }
  opts.progress = [](std::size_t i, std::size_t n) {
    if (i % 50 == 0) std::fprintf(stderr, "  fault %zu / %zu\n", i, n);
  };

  std::printf("Reproducing Section IV: cumulative structural fault coverage per test stage\n\n");

  obs.start();
  lsl::core::TestableLink link;
  const auto report = link.run_fault_campaign(opts);
  char speedup[32] = "n/a";
  if (const auto sp = report.exec.speedup()) std::snprintf(speedup, sizeof(speedup), "%.2fx", *sp);
  std::fprintf(stderr, "campaign: %zu faults on %zu thread(s), %.1fs wall, %.1fs fault CPU (%s)\n",
               report.outcomes.size(), report.exec.threads_used, report.exec.wall_clock_sec,
               report.exec.fault_cpu_sec, speedup);

  lsl::util::Table table({"Test stage", "Coverage (measured)", "Coverage (paper)"});
  table.set_title("Cumulative analog structural-fault coverage");
  table.add_row({"DC test (2 vectors)", lsl::util::Table::pct(report.total.cum_dc.percent()),
                 "50.4%"});
  table.add_row({"+ scan test", lsl::util::Table::pct(report.total.cum_scan.percent()), "74.3%"});
  table.add_row({"+ BIST", lsl::util::Table::pct(report.total.cum_all.percent()), "94.8%"});
  table.print();

  // The paper: "The fault sets covered by the scan test and BIST are
  // intersecting but not subsets of each other."
  std::size_t scan_only = 0;
  std::size_t bist_only = 0;
  std::size_t both = 0;
  for (const auto& o : report.outcomes) {
    if (o.scan && !o.bist) ++scan_only;
    if (o.bist && !o.scan) ++bist_only;
    if (o.scan && o.bist) ++both;
  }
  std::printf("\nScan/BIST fault-set relation: scan-only %zu, BIST-only %zu, both %zu\n",
              scan_only, bist_only, both);
  if (scan_only > 0 && bist_only > 0 && both > 0) {
    std::printf("(intersecting, and neither is a subset of the other, as the paper notes)\n");
  } else {
    std::printf("(NOT the paper's relation: the sets should intersect with neither a subset)\n");
  }

  std::printf("\nDigital control logic (scan chains A and B), single stuck-at:\n");
  const auto digital = link.run_digital_campaign(128, 7);
  lsl::util::Table dtable({"Metric", "Measured", "Paper"});
  dtable.add_row({"Stuck-at coverage (hard + potential)",
                  lsl::util::Table::pct(digital.combined.percent()), "100%"});
  dtable.add_row({"Stuck-at coverage (hard only)", lsl::util::Table::pct(digital.hard.percent()),
                  "-"});
  dtable.print();
  if (!digital.undetected.empty()) {
    std::printf("Undetected digital faults: %zu\n", digital.undetected.size());
  }
  obs.finish();
  return 0;
}
