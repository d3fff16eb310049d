// Microbenchmarks of the simulation engines backing the reproduction.
//
// Two modes:
//  - Default: google-benchmark microbenchmarks (MNA DC solve, transient
//    stepping, gate-level scan, behavioral acquisition, BIST) — these
//    bound the fault-campaign wall-clock.
//  - `--json [path]`: a self-timed solver-engine report written as JSON
//    (default BENCH_solver.json): throughput and workspace cache
//    statistics for the DC-sweep, transient, and fault-campaign
//    workloads on the sparse engine. With `--compare-dense`, each
//    workload is re-run with every linear solve forced onto the dense
//    path (spice::solver_tuning().force_dense) and the report gains
//    dense timings plus the sparse-vs-dense speedup. With
//    `--campaign-incremental` it also gains a leave-one-out section over
//    the incremental-campaign mechanisms (all off, defaults, defaults
//    minus each mechanism), min of 5 interleaved runs per config.
//    Every --json report also carries a `newton_kernels` section: the
//    per-iteration cost of the sparse Newton solve, layer by layer, on
//    the TABLE-I fault structures (see run_newton_kernels_report).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "behav/synchronizer.hpp"
#include "cells/link_frontend.hpp"
#include "core/testable_link.hpp"
#include "dft/campaign.hpp"
#include "dft/digital_top.hpp"
#include "fault/structural.hpp"
#include "link/link.hpp"
#include "spice/seed.hpp"
#include "spice/sparse.hpp"
#include "spice/stamp.hpp"
#include "spice/transient.hpp"
#include "spice/workspace.hpp"
#include "util/metrics.hpp"

namespace {

void BM_FrontendDcSolve(benchmark::State& state) {
  lsl::cells::LinkFrontend fe;
  fe.set_data(true, true);
  for (auto _ : state) {
    const auto r = fe.solve();
    benchmark::DoNotOptimize(r.converged);
  }
}
BENCHMARK(BM_FrontendDcSolve);

void BM_FrontendDcSolveWarmStart(benchmark::State& state) {
  lsl::cells::LinkFrontend fe;
  fe.set_data(true, true);
  lsl::spice::DcOptions opts;
  const auto first = fe.solve();
  opts.initial_guess = first.x;
  for (auto _ : state) {
    const auto r = fe.solve(opts);
    benchmark::DoNotOptimize(r.converged);
  }
}
BENCHMARK(BM_FrontendDcSolveWarmStart);

void BM_TransientToggle2Cycles(benchmark::State& state) {
  lsl::cells::LinkFrontend fe;
  lsl::spice::TransientOptions opts;
  opts.t_stop = 20e-9;
  opts.dt = 0.2e-9;
  opts.probes = {"line_p_rx"};
  const auto wave = lsl::spice::square_wave(0.0, 1.2, 10e-9);
  for (auto _ : state) {
    const auto r = lsl::spice::run_transient(fe.netlist(), {{fe.src_tap_main_p(), wave}}, opts);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_TransientToggle2Cycles);

void BM_DigitalScanLoadReadChainB(benchmark::State& state) {
  lsl::dft::DigitalTop top = lsl::dft::build_digital_top();
  lsl::dft::ScanChains chains = lsl::dft::stitch_scan_chains(top);
  top.c.power_on();
  const auto pattern = std::vector<lsl::digital::Logic>(18, lsl::digital::Logic::k1);
  for (auto _ : state) {
    chains.b.load_flop_order(top.c, pattern);
    benchmark::DoNotOptimize(chains.b.read_flop_order(top.c));
  }
}
BENCHMARK(BM_DigitalScanLoadReadChainB);

void BM_SynchronizerAcquisition5000Ui(benchmark::State& state) {
  lsl::behav::SyncParams p;
  for (auto _ : state) {
    lsl::behav::Synchronizer sync(p, 180e-12, 0.6, 5);
    lsl::util::Pcg32 rng(1);
    benchmark::DoNotOptimize(sync.run(5000, rng));
  }
}
BENCHMARK(BM_SynchronizerAcquisition5000Ui);

void BM_LinkBist(benchmark::State& state) {
  lsl::link::LinkParams p;
  p.phase0 = 5;
  lsl::link::Link link(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.run_bist(7));
  }
}
BENCHMARK(BM_LinkBist);

// ---------------------------------------------------------------------------
// Solver-engine A/B report (--json / --compare-dense).

using Clock = std::chrono::steady_clock;

struct EngineRun {
  double seconds = 0.0;
  std::uint64_t linear_solves = 0;  // Newton linear systems solved
  lsl::spice::SolverWorkspace::Stats stats;  // workspace deltas
};

/// Times `work` (after one untimed warm-up) and captures the workspace
/// stat deltas for the timed repetitions.
template <typename Fn>
EngineRun timed_run(int reps, Fn&& work) {
  auto& ws = lsl::spice::SolverWorkspace::tls();
  work();  // warm-up: symbolic analysis, linear base, OS caches
  const auto before = ws.stats();
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) work();
  EngineRun run;
  run.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const auto after = ws.stats();
  auto delta = [](std::uint64_t a, std::uint64_t b) { return a - b; };
  run.stats.symbolic_builds = delta(after.symbolic_builds, before.symbolic_builds);
  run.stats.symbolic_reuse = delta(after.symbolic_reuse, before.symbolic_reuse);
  run.stats.linear_stamp_builds = delta(after.linear_stamp_builds, before.linear_stamp_builds);
  run.stats.linear_stamp_reuse = delta(after.linear_stamp_reuse, before.linear_stamp_reuse);
  run.stats.sparse_solves = delta(after.sparse_solves, before.sparse_solves);
  run.stats.dense_solves = delta(after.dense_solves, before.dense_solves);
  run.stats.pivot_rejects = delta(after.pivot_rejects, before.pivot_rejects);
  run.stats.kcl_rejects = delta(after.kcl_rejects, before.kcl_rejects);
  run.linear_solves = run.stats.sparse_solves + run.stats.dense_solves;
  return run;
}

void run_dc_sweep_workload() {
  static lsl::cells::LinkFrontend fe;
  std::vector<double> points;
  for (int i = 0; i <= 40; ++i) points.push_back(1.2 * i / 40.0);
  const auto results =
      lsl::spice::dc_sweep(fe.netlist(), fe.src_tap_main_p(), points, lsl::spice::DcOptions{});
  benchmark::DoNotOptimize(results.size());
}

void run_transient_workload() {
  static lsl::cells::LinkFrontend fe;
  lsl::spice::TransientOptions opts;
  opts.t_stop = 20e-9;
  opts.dt = 0.2e-9;
  opts.probes = {"line_p_rx"};
  const auto wave = lsl::spice::square_wave(0.0, 1.2, 10e-9);
  const auto r = lsl::spice::run_transient(fe.netlist(), {{fe.src_tap_main_p(), wave}}, opts);
  benchmark::DoNotOptimize(r.ok);
}

void run_campaign_workload() {
  static lsl::cells::LinkFrontend golden;
  lsl::dft::CampaignOptions opts;
  opts.prefixes = {"tx."};
  opts.with_bist = false;
  opts.with_scan_toggle = false;
  opts.max_faults = 8;
  opts.num_threads = 1;  // serial: keeps the timing comparable and on this thread
  const auto report = lsl::dft::run_campaign(golden, opts);
  benchmark::DoNotOptimize(report.outcomes.size());
}

struct Workload {
  const char* name;
  int reps;
  void (*fn)();
};

void append_run_json(std::string& out, const char* key, const EngineRun& run) {
  char buf[512];
  const double sps = run.seconds > 0.0 ? static_cast<double>(run.linear_solves) / run.seconds : 0.0;
  const double reuse_den =
      static_cast<double>(run.stats.symbolic_builds + run.stats.symbolic_reuse);
  const double reuse_rate = reuse_den > 0.0 ? run.stats.symbolic_reuse / reuse_den : 0.0;
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"seconds\":%.6f,\"linear_solves\":%llu,\"solves_per_sec\":%.1f,"
                "\"symbolic_builds\":%llu,\"symbolic_reuse\":%llu,\"symbolic_reuse_rate\":%.4f,"
                "\"linear_stamp_reuse\":%llu,\"sparse_solves\":%llu,\"dense_solves\":%llu,"
                "\"pivot_rejects\":%llu,\"kcl_rejects\":%llu}",
                key, run.seconds, static_cast<unsigned long long>(run.linear_solves), sps,
                static_cast<unsigned long long>(run.stats.symbolic_builds),
                static_cast<unsigned long long>(run.stats.symbolic_reuse), reuse_rate,
                static_cast<unsigned long long>(run.stats.linear_stamp_reuse),
                static_cast<unsigned long long>(run.stats.sparse_solves),
                static_cast<unsigned long long>(run.stats.dense_solves),
                static_cast<unsigned long long>(run.stats.pivot_rejects),
                static_cast<unsigned long long>(run.stats.kcl_rejects));
  out += buf;
}

std::string run_campaign_incremental_report();
std::string run_newton_kernels_report();

int run_solver_report(const std::string& json_path, bool compare_dense,
                      bool campaign_incremental) {
  const Workload workloads[] = {
      {"dc_sweep", 5, run_dc_sweep_workload},
      {"transient", 3, run_transient_workload},
      {"fault_campaign", 2, run_campaign_workload},
  };

  auto& tuning = lsl::spice::solver_tuning();
  const lsl::spice::SolverTuning saved = tuning;

  std::string json = "{\n";
  bool first = true;
  bool all_speedups_ok = true;
  for (const Workload& w : workloads) {
    tuning = saved;
    tuning.force_dense = false;
    const EngineRun sparse = timed_run(w.reps, w.fn);

    EngineRun dense;
    if (compare_dense) {
      tuning.force_dense = true;
      dense = timed_run(w.reps, w.fn);
      tuning.force_dense = false;
    }

    if (!first) json += ",\n";
    first = false;
    json += "  \"" + std::string(w.name) + "\":{";
    append_run_json(json, "sparse", sparse);
    if (compare_dense) {
      json += ",";
      append_run_json(json, "dense", dense);
      const double speedup = sparse.seconds > 0.0 ? dense.seconds / sparse.seconds : 0.0;
      char buf[64];
      std::snprintf(buf, sizeof(buf), ",\"speedup\":%.2f", speedup);
      json += buf;
      std::printf("%-16s sparse %8.4fs  dense %8.4fs  speedup %5.2fx\n", w.name, sparse.seconds,
                  dense.seconds, speedup);
      if (speedup < 2.0) all_speedups_ok = false;
    } else {
      std::printf("%-16s sparse %8.4fs  (%llu linear solves)\n", w.name, sparse.seconds,
                  static_cast<unsigned long long>(sparse.linear_solves));
    }
    json += "}";
  }
  json += ",\n";
  json += run_newton_kernels_report();
  if (campaign_incremental) {
    json += ",\n";
    json += run_campaign_incremental_report();
  }
  json += "\n}\n";
  tuning = saved;

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", json_path.c_str());
  if (compare_dense && !all_speedups_ok) {
    std::fprintf(stderr, "WARNING: a workload fell short of 2x over dense\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Incremental-campaign leave-one-out report (--campaign-incremental).

/// One incremental-engine configuration timed over one universe, with
/// the per-mechanism counter deltas that explain the timing.
struct IncrementalRun {
  double seconds = 0.0;
  std::int64_t warm_start_hits = 0;
  std::int64_t warm_start_rejects = 0;
  std::int64_t collapse_classes = 0;
  std::int64_t collapse_faults_folded = 0;
  std::int64_t stage_skips = 0;
  std::size_t detected = 0;
  std::size_t total = 0;
  std::size_t quarantined = 0;
};

template <typename RunFn>
IncrementalRun timed_campaign_impl(const RunFn& run_fn) {
  auto& m = lsl::util::metrics();
  const auto counter = [&m](const char* name) { return m.counter(name).value(); };
  const std::int64_t wh = counter("campaign.warm_start.hits");
  const std::int64_t wr = counter("campaign.warm_start.rejects");
  const std::int64_t cc = counter("campaign.collapse.classes");
  const std::int64_t cf = counter("campaign.collapse.faults_folded");
  const std::int64_t sk = counter("campaign.stage_skips");
  const auto t0 = Clock::now();
  const lsl::dft::CampaignReport report = run_fn();
  IncrementalRun run;
  // The campaign's own fault-loop wall clock, when available: golden
  // reference construction is identical across configs and would only
  // dilute the A/B ratio. Fall back to end-to-end time otherwise.
  run.seconds = report.exec.wall_clock_sec > 0.0
                    ? report.exec.wall_clock_sec
                    : std::chrono::duration<double>(Clock::now() - t0).count();
  run.warm_start_hits = counter("campaign.warm_start.hits") - wh;
  run.warm_start_rejects = counter("campaign.warm_start.rejects") - wr;
  run.collapse_classes = counter("campaign.collapse.classes") - cc;
  run.collapse_faults_folded = counter("campaign.collapse.faults_folded") - cf;
  run.stage_skips = counter("campaign.stage_skips") - sk;
  run.detected = report.total.cum_all.detected;
  run.total = report.total.cum_all.total;
  run.quarantined = report.quarantined;
  return run;
}

IncrementalRun timed_campaign(const lsl::dft::CampaignOptions& opts) {
  static lsl::cells::LinkFrontend golden;
  return timed_campaign_impl([&]() { return lsl::dft::run_campaign(golden, opts); });
}

/// The acceptance workload: the full TABLE-I universe (DC + scan + BIST
/// over the whole link).
IncrementalRun timed_table1(const lsl::dft::CampaignOptions& opts) {
  static lsl::core::TestableLink link;
  return timed_campaign_impl([&]() { return link.run_fault_campaign(opts); });
}

struct Config {
  std::string name;
  lsl::dft::CampaignOptions opts;
};

/// Leave-one-out over the campaign mechanisms: every mechanism off (the
/// speedup reference), the defaults, then the defaults minus each
/// mechanism in turn. A mechanism earns its keep when removing it slows
/// the campaign down.
std::vector<Config> leave_one_out(const std::string& prefix,
                                  const lsl::dft::CampaignOptions& defaults) {
  std::vector<Config> configs;
  lsl::dft::CampaignOptions all_off = defaults;
  all_off.reuse_golden = false;
  all_off.collapse_faults = false;
  all_off.adaptive_stage_order = false;
  configs.push_back({prefix + "all_off", all_off});
  configs.push_back({prefix + "defaults", defaults});
  lsl::dft::CampaignOptions o = defaults;
  o.reuse_golden = false;
  configs.push_back({prefix + "minus_reuse_golden", o});
  o = defaults;
  o.collapse_faults = false;
  configs.push_back({prefix + "minus_collapse_faults", o});
  o = defaults;
  o.adaptive_stage_order = false;
  configs.push_back({prefix + "minus_adaptive_stage_order", o});
  return configs;
}

/// Runs every config `reps` times round-robin, so a load spike hits all
/// configs alike, and appends the fastest run of each to `json` (the
/// counter deltas are deterministic across reps, the wall clocks are
/// not). The first config is the speedup reference.
template <typename TimeFn>
void time_configs(const std::vector<Config>& configs, int reps, const TimeFn& time_fn,
                  std::string& json) {
  std::vector<IncrementalRun> best(configs.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const IncrementalRun run = time_fn(configs[i].opts);
      if (rep == 0 || run.seconds < best[i].seconds) best[i] = run;
    }
  }
  const double ref_seconds = best.front().seconds;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const IncrementalRun& run = best[i];
    const double speedup = run.seconds > 0.0 ? ref_seconds / run.seconds : 0.0;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"seconds\":%.6f,\"speedup_vs_all_off\":%.2f,"
        "\"warm_start_hits\":%lld,\"warm_start_rejects\":%lld,"
        "\"collapse_classes\":%lld,\"collapse_faults_folded\":%lld,\"stage_skips\":%lld,"
        "\"detected\":%zu,\"total\":%zu,\"quarantined\":%zu}",
        json.back() == '{' ? "" : ",", configs[i].name.c_str(), run.seconds, speedup,
        static_cast<long long>(run.warm_start_hits),
        static_cast<long long>(run.warm_start_rejects),
        static_cast<long long>(run.collapse_classes),
        static_cast<long long>(run.collapse_faults_folded),
        static_cast<long long>(run.stage_skips), run.detected, run.total, run.quarantined);
    json += buf;
    std::printf("%-40s %8.4fs  speedup %5.2fx  warm %lld/%lld  folded %lld  skips %lld\n",
                configs[i].name.c_str(), run.seconds, speedup,
                static_cast<long long>(run.warm_start_hits),
                static_cast<long long>(run.warm_start_rejects),
                static_cast<long long>(run.collapse_faults_folded),
                static_cast<long long>(run.stage_skips));
  }
}

/// Leave-one-out section over the incremental-campaign mechanisms, on a
/// reduced serial universe and on the full TABLE-I campaign, min of 5
/// interleaved runs each. The verdict partition is config-invariant
/// (tests/dft/test_campaign_incremental); this report captures what
/// each mechanism buys in time.
std::string run_campaign_incremental_report() {
  constexpr int kReps = 5;
  std::string json = "  \"campaign_incremental\":{";

  lsl::dft::CampaignOptions reduced;
  reduced.prefixes = {"tx.", "cp.m_s"};
  reduced.with_bist = false;
  reduced.with_scan_toggle = false;
  reduced.num_threads = 1;
  timed_campaign(reduced);  // warm-up: symbolic analyses, OS caches
  time_configs(leave_one_out("", reduced), kReps, timed_campaign, json);

  lsl::dft::CampaignOptions table1;
  table1.num_threads = 1;
  time_configs(leave_one_out("table1_", table1), kReps, timed_table1, json);

  json += "}";
  return json;
}

// ---------------------------------------------------------------------------
// Newton-kernel ledger (part of every --json report).

/// One TABLE-I fault structure: the faulted open-loop frontend netlist,
/// its DC operating point, and the same linear system in the shape the
/// sparse LU takes (CSR pattern, source-paired row map, RHS), rebuilt
/// here from the dense stamp so the LU kernels can be timed alone.
struct KernelSystem {
  lsl::spice::Netlist nl;
  std::vector<double> x;
  lsl::spice::SparseMatrix a;
  std::size_t n_volts = 0;
  std::vector<std::size_t> row_map;
  std::vector<double> b;
};

KernelSystem kernel_system(lsl::spice::Netlist nl, const std::vector<double>& x_op) {
  using namespace lsl::spice;
  KernelSystem k;
  k.nl = std::move(nl);
  k.nl.reindex();
  const std::size_t n = k.nl.unknown_count();
  k.x = x_op;
  k.x.resize(n, 0.0);
  k.n_volts = k.nl.node_count() - 1;
  StampContext ctx;
  ctx.nl = &k.nl;
  Matrix g;
  stamp_system(ctx, k.x, g, k.b);
  k.a.begin_pattern(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (g.at(r, c) != 0.0) k.a.note(r, c);
    }
  }
  k.a.finalize_pattern();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t s = k.a.slot(r, c);
      if (s != kNoSlot) k.a.values()[s] = g.at(r, c);
    }
  }
  // Source pairing: each V/E branch row swaps with the KCL row of its
  // first free terminal, as the solver workspace does.
  k.row_map.resize(n);
  std::iota(k.row_map.begin(), k.row_map.end(), std::size_t{0});
  const auto& devices = k.nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    if (!devices[di].enabled) continue;
    NodeId p = kGround;
    NodeId m = kGround;
    if (const auto* vs = std::get_if<VSource>(&devices[di].impl)) {
      p = vs->p;
      m = vs->n;
    } else if (const auto* e = std::get_if<Vcvs>(&devices[di].impl)) {
      p = e->p;
      m = e->n;
    } else {
      continue;
    }
    const std::size_t bi = k.nl.branch_index(di);
    for (const NodeId node : {p, m}) {
      if (node == kGround) continue;
      const std::size_t v = k.nl.voltage_index(node);
      if (k.row_map[v] != v) continue;
      k.row_map[v] = bi;
      k.row_map[bi] = v;
      break;
    }
  }
  return k;
}

void hash_bits(std::uint64_t& h, const std::vector<double>& v) {
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
}

/// Per-iteration cost of the sparse Newton solve on the TABLE-I fault
/// structures (every structural fault of the open-loop frontend, gate
/// opens with their bulk leak), each linearized at its DC operating
/// point. Ten interleaved repetitions, each over every structure:
///  - symbolic_build_us: a fresh workspace's first Newton solve minus
///    its second, i.e. what a new structure adds (structural key,
///    pattern, ordering, fill, device tables, linear base), and its
///    phases from the workspace's detailed-timing build split:
///    build_tables_us (the device walk that notes the pattern and
///    fills the device tables), build_pattern_us (finalize_pattern and
///    the note-to-slot resolve), build_ordering_us (minimum degree) and
///    build_fill_us (symbolic fill and the compiled refactorization);
///  - frontend_copy_us: one copy of the golden LinkFrontend, the
///    campaign's per-stimulus set-up unit;
///  - structural_key_us: one structural_key hash of a fault netlist,
///    freshly copied as the campaign's are when they are hashed;
///  - seed_map_us: one SolutionSeed::initial_guess_for of the golden
///    operating point onto a fault netlist (the warm start's set-up);
///  - stamp_us / newton_us: a warm workspace's stamp time and whole
///    solve (stamp + factor + triangular solve) per iteration, from the
///    detailed-timing diagnostics;
///  - factor_us / solve_us: SparseLu::factor and SparseLu::solve, timed
///    alone on the rebuilt system.
/// Min and median over the repetitions; `solution_hash` is FNV-1a over
/// the bits of every solution the section computes, so two builds that
/// agree on it solved every system to the same bits.
std::string run_newton_kernels_report() {
  using namespace lsl::spice;
  constexpr int kReps = 10;
  constexpr int kIters = 16;

  const lsl::cells::LinkFrontend golden;
  const auto vdd = *golden.netlist().find_node("vdd");
  const auto faults = lsl::fault::enumerate_structural_faults(
      golden.netlist(), {}, lsl::fault::test_circuitry_prefixes());
  std::vector<KernelSystem> systems;
  systems.reserve(faults.size());
  double fill = 0.0;
  double unknowns = 0.0;
  for (const auto& f : faults) {
    Netlist nl = golden.netlist();
    if (!lsl::fault::inject(nl, f, lsl::fault::bulk_leak(nl, f), vdd)) continue;
    const DcResult op = solve_dc(nl, DcOptions{});
    systems.push_back(kernel_system(std::move(nl), op.x));
    SparseLu lu;
    lu.analyze(systems.back().a, systems.back().n_volts, systems.back().row_map);
    fill += static_cast<double>(lu.fill_nnz());
    unknowns += static_cast<double>(systems.back().a.dim());
  }
  const double count = static_cast<double>(systems.size());
  const SolutionSeed seed =
      SolutionSeed::capture(golden.netlist(), solve_dc(golden.netlist(), DcOptions{}).x);

  const bool detailed = lsl::util::Metrics::detailed_timing();
  lsl::util::Metrics::set_detailed_timing(true);
  const auto us_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  std::vector<double> build_us, stamp_us, newton_us, factor_us, solve_us;
  std::vector<double> tables_us, pattern_us, ordering_us, fill_us, copy_us, key_us, seed_us;
  std::uint64_t key_sink = 0;
  std::uint64_t hash = 1469598103934665603ull;
  std::vector<double> x_new;
  for (int rep = 0; rep < kReps; ++rep) {
    double build = 0.0;
    double stamp = 0.0;
    double newton = 0.0;
    double factor = 0.0;
    double solve = 0.0;
    SolverWorkspace::Stats phases;
    double copy = 0.0;
    double key = 0.0;
    double seed_map = 0.0;
    for (const KernelSystem& k : systems) {
      StampContext ctx;
      ctx.nl = &k.nl;
      {
        SolverWorkspace fresh;
        const auto t0 = Clock::now();
        fresh.solve_newton_system(ctx, k.x, x_new);
        const double cold = us_since(t0);
        const auto t1 = Clock::now();
        fresh.solve_newton_system(ctx, k.x, x_new);
        build += cold - us_since(t1);
        phases.build_tables_sec += fresh.stats().build_tables_sec;
        phases.build_pattern_sec += fresh.stats().build_pattern_sec;
        phases.build_ordering_sec += fresh.stats().build_ordering_sec;
        phases.build_fill_sec += fresh.stats().build_fill_sec;
        if (rep == 0) hash_bits(hash, x_new);
      }
      {
        const auto t0 = Clock::now();
        const lsl::cells::LinkFrontend copied = golden;
        copy += us_since(t0);
        key_sink += copied.netlist().devices().size();
        const Netlist faulted = k.nl;  // the campaign hashes netlists it has just copied
        const auto t1 = Clock::now();
        key_sink ^= structural_key(faulted);
        key += us_since(t1);
        const auto t2 = Clock::now();
        key_sink += seed.initial_guess_for(k.nl).size();
        seed_map += us_since(t2);
      }
      {
        SolverWorkspace& ws = SolverWorkspace::tls();
        ws.solve_newton_system(ctx, k.x, x_new);  // resolve / build the entry
        SolveDiagnostics diag;
        for (int it = 0; it < kIters; ++it) ws.solve_newton_system(ctx, k.x, x_new, &diag);
        stamp += diag.stamp_sec * 1e6 / kIters;
        newton += (diag.stamp_sec + diag.factor_sec) * 1e6 / kIters;
        if (rep == 0) hash_bits(hash, x_new);
      }
      {
        SparseLu lu;
        lu.analyze(k.a, k.n_volts, k.row_map);
        std::vector<double> x(k.a.dim(), 0.0);
        bool ok = true;
        const auto t0 = Clock::now();
        for (int it = 0; it < kIters; ++it) ok = lu.factor(k.a, 1e-18) && ok;
        factor += us_since(t0) / kIters;
        if (ok) {  // solve() is only defined after a successful factor()
          const auto t1 = Clock::now();
          for (int it = 0; it < kIters; ++it) lu.solve(k.b, x);
          solve += us_since(t1) / kIters;
        }
        if (rep == 0) {
          hash_bits(hash, x);
          hash ^= ok ? 1u : 2u;
        }
      }
    }
    build_us.push_back(build / count);
    tables_us.push_back(phases.build_tables_sec * 1e6 / count);
    pattern_us.push_back(phases.build_pattern_sec * 1e6 / count);
    ordering_us.push_back(phases.build_ordering_sec * 1e6 / count);
    fill_us.push_back(phases.build_fill_sec * 1e6 / count);
    copy_us.push_back(copy / count);
    key_us.push_back(key / count);
    seed_us.push_back(seed_map / count);
    stamp_us.push_back(stamp / count);
    newton_us.push_back(newton / count);
    factor_us.push_back(factor / count);
    solve_us.push_back(solve / count);
  }
  lsl::util::Metrics::set_detailed_timing(detailed);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return 0.5 * (v[(v.size() - 1) / 2] + v[v.size() / 2]);
  };
  const auto min_median = [&](const std::vector<double>& v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"min\":%.3f,\"median\":%.3f}",
                  *std::min_element(v.begin(), v.end()), median(v));
    return std::string(buf);
  };
  char head[256];
  std::snprintf(head, sizeof(head),
                "  \"newton_kernels\":{\"structures\":%zu,\"reps\":%d,\"iterations\":%d,"
                "\"mean_unknowns\":%.1f,\"mean_fill_nnz\":%.1f,\"solution_hash\":\"%016llx\",",
                systems.size(), kReps, kIters, unknowns / count, fill / count,
                static_cast<unsigned long long>(hash));
  std::string json = head;
  json += "\"symbolic_build_us\":" + min_median(build_us);
  json += ",\"build_tables_us\":" + min_median(tables_us);
  json += ",\"build_pattern_us\":" + min_median(pattern_us);
  json += ",\"build_ordering_us\":" + min_median(ordering_us);
  json += ",\"build_fill_us\":" + min_median(fill_us);
  json += ",\"frontend_copy_us\":" + min_median(copy_us);
  json += ",\"structural_key_us\":" + min_median(key_us);
  json += ",\"seed_map_us\":" + min_median(seed_us);
  json += ",\"stamp_us\":" + min_median(stamp_us);
  json += ",\"factor_us\":" + min_median(factor_us);
  json += ",\"solve_us\":" + min_median(solve_us);
  json += ",\"newton_us\":" + min_median(newton_us) + "}";
  std::printf("newton_kernels   %zu structures: build %.1f us, stamp %.2f, factor %.2f, "
              "solve %.2f, newton %.2f us/iteration (medians), hash %016llx\n",
              systems.size(), median(build_us), median(stamp_us), median(factor_us),
              median(solve_us), median(newton_us), static_cast<unsigned long long>(hash));
  std::printf("newton_kernels   build split: tables %.1f, pattern %.1f, ordering %.1f, "
              "fill+compile %.1f us; frontend copy %.1f us, structural key %.2f us, "
              "seed map %.2f us (medians)\n",
              median(tables_us), median(pattern_us), median(ordering_us), median(fill_us),
              median(copy_us), median(key_us), median(seed_us));
  if (key_sink == 0) std::printf(" \n");  // keeps the timed copies and keys observable
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bool json_mode = false;
  bool compare_dense = false;
  bool campaign_incremental = false;
  std::string json_path = "BENCH_solver.json";
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg == "--compare-dense") {
      json_mode = true;
      compare_dense = true;
    } else if (arg == "--campaign-incremental") {
      json_mode = true;
      campaign_incremental = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json_mode) return run_solver_report(json_path, compare_dense, campaign_incremental);

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
