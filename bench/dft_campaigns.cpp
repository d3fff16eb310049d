// The paper's Section IV analog results and the DFT studies built on
// them, from two structural fault campaigns:
//   1. warm, full evaluation (every sub-stage on every fault) with
//      pessimistic gate opens, so each gate open runs its bulk leak and
//      then the opposite one. Its bulk-leak projection gives the DC ->
//      +scan -> +BIST progression (paper: 50.4% -> 74.3% -> 94.8%), the
//      scan/BIST fault-set relation and three ablation rows (full DFT,
//      no toggle test, no BIST); the record itself gives the fourth
//      row, pessimistic gate opens;
//   2. cold-started (build_dictionary): the fault dictionary and a
//      diagnosis round-trip.
// Between the progression and the ablations it prints the digital
// stuck-at figure (paper: 100%).
//
// Flags:  --fast       cap the analog universe at 60 faults (smoke run)
//         --threads N  workers of every campaign (0 = all hardware cores;
//                      default 0)
//         --trace <path>    Chrome trace_event JSON of the run (Perfetto)
//         --metrics <path>  util::Metrics snapshot JSON at exit
// Any other flag, or a flag missing its value, prints the usage line
// and exits with status 2.
#include <cstdio>
#include <cstring>

#include "cli.hpp"
#include "core/testable_link.hpp"
#include "dft/dictionary.hpp"
#include "observability.hpp"
#include "util/table.hpp"

namespace {

namespace dft = lsl::dft;
using lsl::util::Table;

/// Section IV per test stage, and the paper's "the fault sets covered by
/// the scan test and BIST are intersecting but not subsets of each other".
void print_progression(const dft::CampaignReport& report) {
  std::printf("Reproducing Section IV: cumulative structural fault coverage per test stage\n\n");
  Table table({"Test stage", "Coverage (measured)", "Coverage (paper)"});
  table.set_title("Cumulative analog structural-fault coverage");
  table.add_row({"DC test (2 vectors)", Table::pct(report.total.cum_dc.percent()), "50.4%"});
  table.add_row({"+ scan test", Table::pct(report.total.cum_scan.percent()), "74.3%"});
  table.add_row({"+ BIST", Table::pct(report.total.cum_all.percent()), "94.8%"});
  table.print();

  std::size_t scan_only = 0;
  std::size_t bist_only = 0;
  std::size_t both = 0;
  for (const auto& o : report.outcomes) {
    const bool scan = dft::stage_result(o.record, dft::kStageScan) == dft::StageResult::kDetected;
    const bool bist = dft::stage_result(o.record, dft::kStageBist) == dft::StageResult::kDetected;
    if (scan && !bist) ++scan_only;
    if (bist && !scan) ++bist_only;
    if (scan && bist) ++both;
  }
  std::printf("\nScan/BIST fault-set relation: scan-only %zu, BIST-only %zu, both %zu\n",
              scan_only, bist_only, both);
  if (scan_only > 0 && bist_only > 0 && both > 0) {
    std::printf("(intersecting, and neither is a subset of the other, as the paper notes)\n");
  } else {
    std::printf("(NOT the paper's relation: the sets should intersect with neither a subset)\n");
  }
}

void print_digital(const lsl::core::TestableLink& link) {
  std::printf("\nDigital control logic (scan chains A and B), single stuck-at:\n");
  const auto digital = link.run_digital_campaign(128, 7);
  Table table({"Metric", "Measured", "Paper"});
  table.add_row({"Stuck-at coverage (hard + potential)", Table::pct(digital.combined.percent()),
                 "100%"});
  table.add_row({"Stuck-at coverage (hard only)", Table::pct(digital.hard.percent()), "-"});
  table.print();
  const std::size_t undetected = digital.undetected.size();
  if (undetected > 0) std::printf("Undetected digital faults: %zu\n", undetected);
}

/// The design-choice ablations; "no toggle" and "no BIST" are
/// projections of the bulk-leak record `full`.
void print_ablations(const dft::CampaignReport& full, const dft::CampaignReport& pessimistic,
                     bool reduced) {
  std::printf("\nDFT design-choice ablations (structural fault campaign%s)\n\n",
              reduced ? ", reduced universe" : "");
  Table table({"Configuration", "DC", "+scan", "+BIST (total)"});
  table.set_title("Cumulative coverage under ablations");
  const auto row = [&](const char* label, const dft::CampaignReport& r) {
    table.add_row({label, Table::pct(r.total.cum_dc.percent()),
                   Table::pct(r.total.cum_scan.percent()), Table::pct(r.total.cum_all.percent())});
  };
  row("full DFT (baseline)", full);
  row("no 100 MHz toggle test",
      dft::project_report(full, dft::kAllSubStages & ~dft::sub_bit(dft::kSubToggle)));
  row("no BIST stage", dft::project_report(full, dft::kAllSubStages & ~dft::kBistSubStages));
  row("pessimistic gate opens", pessimistic);
  table.print();

  std::printf(
      "\nReadings: dropping the toggle test strands the DC-invisible dynamic\n"
      "faults; dropping the BIST strands the charge-pump faults that the\n"
      "bias-collapse scan mode provably masks; the pessimistic gate-open\n"
      "convention is the floor of the gate-open row in Table I.\n");
}

/// Diagnosis resolution, then a round-trip: a campaign over just the
/// device of the first detected fault observes the "failed part", and
/// the dictionary names the candidates.
void print_diagnosis(const lsl::cells::LinkFrontend& golden, const dft::FaultDictionary& dict,
                     std::size_t threads) {
  std::printf("\nFault dictionary and diagnosis resolution of the DFT observers\n\n");
  const auto r = dict.resolution();
  Table table({"Metric", "Value"});
  table.set_title("Diagnosis resolution");
  table.add_row({"faults in dictionary", std::to_string(r.faults)});
  table.add_row({"detected (signature != golden)", std::to_string(r.detected)});
  table.add_row({"distinct signatures", std::to_string(r.classes)});
  table.add_row({"uniquely diagnosable faults", std::to_string(r.uniquely_diagnosed)});
  table.add_row({"largest ambiguity class", std::to_string(r.largest_class)});
  table.add_row({"average class size", Table::num(r.avg_class_size, 2)});
  table.print();

  lsl::fault::StructuralFault injected{"tx.p.c_main", lsl::fault::FaultClass::kCapacitorShort};
  for (const auto& e : dict.entries()) {
    if (e.signature != dict.golden_signature()) {
      injected = e.fault;
      break;
    }
  }
  dft::DictionaryOptions part_opts;
  part_opts.num_threads = threads;
  part_opts.prefixes = {injected.device};
  const auto part = dft::build_dictionary(golden, part_opts);
  std::string observed;
  for (const auto& e : part.entries()) {
    if (e.fault.device == injected.device && e.fault.cls == injected.cls) observed = e.signature;
  }
  const auto candidates = dict.diagnose(observed);
  std::printf("\nDiagnosis round-trip for an injected '%s':\n", injected.describe().c_str());
  std::printf("  %zu candidate(s):\n", candidates.size());
  for (const auto* c : candidates) std::printf("    %s\n", c->fault.describe().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  dft::CampaignOptions opts;
  opts.num_threads = 0;  // all hardware cores unless --threads says otherwise
  lsl::bench::Observability obs;
  const char* flags = "[--fast] [--threads N] [--trace <path>] [--metrics <path>]";
  for (int i = 1; i < argc; ++i) {
    if (obs.parse_flag(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--fast") == 0) {
      opts.max_faults = 60;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.num_threads = lsl::bench::count_value(argc, argv, i, flags);
    } else {
      lsl::bench::usage_exit(argv[0], flags);
    }
  }
  opts.progress = [](std::size_t i, std::size_t n) {
    if (i % 50 == 0) std::fprintf(stderr, "  fault %zu / %zu\n", i, n);
  };

  obs.start();
  const lsl::core::TestableLink link;

  // The relation and the projections need every sub-stage on every
  // fault; the adaptive order skips stages after a detection. Both
  // gate-open conventions read the one pessimistic record: the default
  // one is its bulk-leak projection.
  dft::CampaignOptions full_opts = opts;
  full_opts.adaptive_stage_order = false;
  full_opts.pessimistic_gate_opens = true;
  std::fprintf(stderr, "running: full evaluation, both leaks of every gate open\n");
  const auto pessimistic = link.run_fault_campaign(full_opts);
  char speedup[32] = "n/a";
  if (const auto sp = pessimistic.exec.speedup()) {
    std::snprintf(speedup, sizeof(speedup), "%.2fx", *sp);
  }
  std::fprintf(stderr, "campaign: %zu faults on %zu thread(s), %.1fs wall, %.1fs fault CPU (%s)\n",
               pessimistic.outcomes.size(), pessimistic.exec.threads_used,
               pessimistic.exec.wall_clock_sec, pessimistic.exec.fault_cpu_sec, speedup);
  const auto full =
      dft::project_report(pessimistic, dft::kAllSubStages, dft::GateOpenConvention::kBulkLeak);
  print_progression(full);
  print_digital(link);
  print_ablations(full, pessimistic, opts.max_faults != 0);

  // Cold starts move a few dictionary signatures, so the dictionary
  // keeps its own campaign rather than projecting the warm record.
  std::fprintf(stderr, "running: fault dictionary (cold starts)\n");
  print_diagnosis(link.frontend(), dft::build_dictionary(link.frontend(), opts),
                  opts.num_threads);
  obs.finish();
  return 0;
}
