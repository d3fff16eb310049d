// Benchmark program for the fault-simulation flow. One process runs one
// workload on one thread:
//
//   lsl_perfbench --workload table1_campaign|fault_dictionary|digital_atpg
//                 --seed N --seconds S --trace 0|1
//                 [--refs DIR] [--trace-out FILE] [--record]
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints every per-layer metric. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --record rewrites the pinned references in --refs instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--refs") {
      a.refs_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--refs DIR] "
                 "[--trace-out FILE] [--record]\n",
                 argv[0]);
    return 2;
  }
  perfbench::now_s();  // start the clock

  using Runner = void (*)(const perfbench::Args&, perfbench::Result&);
  using Recorder = void (*)(const perfbench::Args&);
  Runner run = nullptr;
  Recorder record = nullptr;
  if (args.workload == "table1_campaign") {
    run = perfbench::run_table1_campaign;
    record = perfbench::record_table1_campaign;
  } else if (args.workload == "fault_dictionary") {
    run = perfbench::run_fault_dictionary;
    record = perfbench::record_fault_dictionary;
  } else if (args.workload == "digital_atpg") {
    run = perfbench::run_digital_atpg;
    record = perfbench::record_digital_atpg;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  try {
    if (args.record) {
      record(args);
      return 0;
    }
    perfbench::Result result;
    run(args, result);
    const perfbench::Verdict& v = result.verdict;
    if (v.attempted < 1) {
      std::fprintf(stderr, "no operation was attempted\n");
      return 1;
    }
    result.metrics.print(args.trace ? "per-layer metrics (traced run)" : "end-to-end metrics");
    std::fprintf(stderr, "operations: %ld attempted, %ld failed; checks %s\n", v.attempted,
                 v.failed, v.checks_ok ? "passed" : "FAILED");
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
                v.checks_ok && v.failed == 0 ? "true" : "false", v.attempted, v.failed,
                result.metrics.json().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }
  return 0;
}
