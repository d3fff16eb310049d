// Regenerates the paper's TABLE I: structural fault coverage per defect
// class after all three test stages (DC + scan + BIST).
//
// Flags:  --fast        cap the universe at 80 faults (smoke run)
//         --pessimistic use the both-leak-variants gate-open convention
//         --threads N   campaign workers (0 = all hardware cores; default 0)
//         --json <path> append a flat-JSON result line (threads, per-worker
//                       fault counts, wall clock, speedup) for bench tracking
//         --compare-serial  run serial first, then parallel, and verify the
//                       canonical reports are byte-identical; records the
//                       measured parallel speedup over the serial run
//         --no-incremental  disable every incremental-campaign mechanism
//                       (golden warm starts, fault collapsing, the early
//                       stage stop) — the A/B baseline for the
//                       incremental engine
//         --trace <path>    Chrome trace_event JSON of the run (Perfetto)
//         --metrics <path>  util::Metrics snapshot JSON at exit
// Any other flag, or a flag missing its value, prints the usage line
// and exits with status 2.
#include <cstdio>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "core/testable_link.hpp"
#include "observability.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

namespace {

/// One flat JSON line per campaign execution (nested arrays are not
/// supported by the writer, so per-worker counts are comma-joined).
void append_bench_json(const std::string& path, const char* mode,
                       const lsl::dft::CampaignReport& report,
                       double serial_wall_sec) {
  const auto& exec = report.exec;
  lsl::util::JsonObject o;
  o.set("bench", "table1_fault_coverage");
  o.set("mode", mode);
  o.set("threads_used", exec.threads_used);
  std::string per_worker;
  for (std::size_t i = 0; i < exec.per_worker_faults.size(); ++i) {
    if (i) per_worker += ",";
    per_worker += std::to_string(exec.per_worker_faults[i]);
  }
  o.set("per_worker_faults", per_worker);
  o.set("faults", report.outcomes.size());
  o.set("wall_clock_sec", exec.wall_clock_sec);
  o.set("fault_cpu_sec", exec.fault_cpu_sec);
  if (const auto speedup = exec.speedup()) o.set("cpu_over_wall_speedup", *speedup);
  if (serial_wall_sec > 0.0 && exec.wall_clock_sec > 0.0) {
    o.set("measured_speedup_vs_serial", serial_wall_sec / exec.wall_clock_sec);
  }
  o.set("coverage_pct", report.total.cum_all.percent());
  if (!lsl::util::append_line(path, o.str())) {
    std::fprintf(stderr, "warning: could not append bench JSON to %s\n", path.c_str());
  }
}

}  // namespace

namespace {

struct PaperRow {
  lsl::fault::FaultClass cls;
  const char* name;
  double paper;
};

constexpr PaperRow kPaperRows[] = {
    {lsl::fault::FaultClass::kGateOpen, "Gate open", 87.8},
    {lsl::fault::FaultClass::kDrainOpen, "Drain open", 93.9},
    {lsl::fault::FaultClass::kSourceOpen, "Source open", 93.9},
    {lsl::fault::FaultClass::kGateDrainShort, "Gate drain short", 93.9},
    {lsl::fault::FaultClass::kGateSourceShort, "Gate source short", 100.0},
    {lsl::fault::FaultClass::kDrainSourceShort, "Drain source short", 100.0},
    {lsl::fault::FaultClass::kCapacitorShort, "Capacitor short", 100.0},
};

}  // namespace

int main(int argc, char** argv) {
  lsl::dft::CampaignOptions opts;
  opts.num_threads = 0;  // all hardware cores unless --threads says otherwise
  std::string json_path;
  bool compare_serial = false;
  lsl::bench::Observability obs;
  const char* flags =
      "[--fast] [--pessimistic] [--threads N] [--json <path>] "
      "[--compare-serial] [--no-incremental] [--trace <path>] [--metrics <path>]";
  for (int i = 1; i < argc; ++i) {
    if (obs.parse_flag(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--fast") == 0) {
      opts.max_faults = 80;
    } else if (std::strcmp(argv[i], "--pessimistic") == 0) {
      opts.pessimistic_gate_opens = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.num_threads = lsl::bench::count_value(argc, argv, i, flags);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = lsl::bench::flag_value(argc, argv, i, flags);
    } else if (std::strcmp(argv[i], "--compare-serial") == 0) {
      compare_serial = true;
    } else if (std::strcmp(argv[i], "--no-incremental") == 0) {
      opts.reuse_golden = false;
      opts.collapse_faults = false;
      opts.adaptive_stage_order = false;
    } else {
      lsl::bench::usage_exit(argv[0], flags);
    }
  }
  opts.progress = [](std::size_t i, std::size_t n) {
    if (i % 50 == 0) std::fprintf(stderr, "  fault %zu / %zu\n", i, n);
  };

  std::printf("Reproducing TABLE I: coverage of different types of faults\n");
  std::printf("(structural fault campaign over the analog link frontend)\n\n");
  obs.start();

  lsl::core::TestableLink link;
  lsl::dft::CampaignReport report;
  if (compare_serial) {
    std::fprintf(stderr, "serial reference run (num_threads = 1)...\n");
    lsl::dft::CampaignOptions serial_opts = opts;
    serial_opts.num_threads = 1;
    const auto serial = link.run_fault_campaign(serial_opts);
    const double serial_wall_sec = serial.exec.wall_clock_sec;
    std::fprintf(stderr, "parallel run (num_threads = %zu requested)...\n", opts.num_threads);
    report = link.run_fault_campaign(opts);
    const bool identical = lsl::dft::report_canonical_jsonl(serial) ==
                           lsl::dft::report_canonical_jsonl(report);
    const double speedup = report.exec.wall_clock_sec > 0.0
                               ? serial_wall_sec / report.exec.wall_clock_sec
                               : 0.0;
    std::printf("Serial/parallel canonical reports identical: %s\n", identical ? "yes" : "NO");
    std::printf("Speedup: %.2fx (%zu threads, serial %.1fs -> parallel %.1fs)\n\n", speedup,
                report.exec.threads_used, serial_wall_sec, report.exec.wall_clock_sec);
    if (!json_path.empty()) {
      append_bench_json(json_path, "serial_reference", serial, 0.0);
      append_bench_json(json_path, "parallel", report, serial_wall_sec);
    }
    if (!identical) {
      obs.finish();
      std::fprintf(stderr, "ERROR: parallel campaign diverged from serial reference\n");
      return 1;
    }
  } else {
    report = link.run_fault_campaign(opts);
    if (!json_path.empty()) append_bench_json(json_path, "single", report, 0.0);
  }
  obs.finish();

  lsl::util::Table table({"Defect", "Faults", "Coverage (measured)", "Coverage (paper)"});
  table.set_title("TABLE I: Coverage of different types of faults");
  for (const auto& row : kPaperRows) {
    const auto it = report.per_class.find(row.cls);
    if (it == report.per_class.end()) continue;
    table.add_row({row.name, std::to_string(it->second.cum_all.total),
                   lsl::util::Table::pct(it->second.cum_all.percent()),
                   lsl::util::Table::pct(row.paper)});
  }
  table.add_row({"Total", std::to_string(report.total.cum_all.total),
                 lsl::util::Table::pct(report.total.cum_all.percent()),
                 lsl::util::Table::pct(94.8)});
  table.print();

  std::printf("\nFaults with at least one failed solve: %zu\n", report.anomalous);
  std::printf("Quarantined (no trustworthy verdict, excluded from coverage): %zu\n",
              report.quarantined);
  for (const auto* o : report.quarantined_faults()) {
    std::printf("  %s [%s]\n", o->fault.describe().c_str(),
                lsl::spice::to_string(o->status).c_str());
  }
  const auto undetected = report.undetected();
  std::printf("Undetected faults: %zu\n", undetected.size());
  for (const auto* o : undetected) std::printf("  %s\n", o->fault.describe().c_str());
  return 0;
}
