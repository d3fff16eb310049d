// Digital workload: the scan-pattern flow on the DFT-inserted digital
// control. A seeded random candidate pool is graded by the coverage
// curve, compacted and fault-simulated, and ATPG runs over the full
// stuck-at universe. Each call takes the whole universe, as the
// repository's own callers pass it.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dft/digital_top.hpp"
#include "digital/atpg.hpp"
#include "digital/compaction.hpp"
#include "digital/stuck.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

namespace dg = lsl::digital;

/// From-scratch set-ups before each timed section of a measured run, and
/// in the traced run, whose good-response time is their mean.
constexpr int kBuildsPerSection = 5;
constexpr int kSetupBuilds = 21;
constexpr std::size_t kPoolSize = 96;
/// Seeds 0 .. kPinnedSeeds-1 have pinned figures.
constexpr std::uint64_t kPinnedSeeds = 32;

struct DigitalSetup {
  std::unique_ptr<lsl::dft::DigitalTop> top;
  std::optional<lsl::dft::ScanChains> chains;
  std::vector<const dg::ScanChain*> chain_ptrs;
  std::vector<dg::NetId> pis;
  std::vector<dg::NetId> observe;
  std::vector<dg::StuckFault> faults;
  std::vector<dg::MultiScanPattern> pool;
  std::vector<std::vector<dg::Logic>> good;  // fault-free response per pool pattern
};

std::vector<std::vector<dg::Logic>> good_responses(DigitalSetup& s) {
  dg::Circuit& c = s.top->c;
  c.clear_faults();
  std::vector<std::vector<dg::Logic>> out;
  out.reserve(s.pool.size());
  for (const auto& p : s.pool) {
    c.power_on();
    out.push_back(dg::apply_pattern_multi(c, s.chain_ptrs, p, s.observe));
  }
  return out;
}

void build_setup(DigitalSetup& s, std::uint64_t seed, SpanLog& log) {
  {
    Scope span(log, "digital.build_top");
    s.top = std::make_unique<lsl::dft::DigitalTop>(lsl::dft::build_digital_top());
    s.chains.emplace(lsl::dft::stitch_scan_chains(*s.top));
  }
  const lsl::dft::DigitalTop& t = *s.top;
  s.chain_ptrs = {&s.chains->a, &s.chains->b};
  s.pis = {t.data_in, t.ten,    t.half_sel, t.cmp_hi, t.cmp_lo, t.cmp_term, t.bist_hi,
           t.bist_lo, t.sen,    *t.c.find_net("scan_clk"),       *t.c.find_net("lock_rst")};
  s.pis.insert(s.pis.end(), t.dll_phases.begin(), t.dll_phases.end());
  s.observe = {t.retimed_out, t.pd.up,     t.pd.dn,   t.fsm.upst,   t.fsm.dnst,
               t.sw.out,      t.line_out, t.sen_b, t.bist_fail};
  {
    Scope span(log, "digital.enumerate");
    s.faults = dg::enumerate_stuck_faults(t.c, {"div_", "scan_clk", "coarse_clk"});
  }
  {
    Scope span(log, "digital.patterns");
    lsl::util::Pcg32 rng(seed);
    s.pool = dg::random_patterns_multi(s.chain_ptrs, s.pis, kPoolSize, rng);
  }
  Scope span(log, "digital.good_responses");
  s.good = good_responses(s);
}

/// One timed section's outputs.
struct DigitalPass {
  std::vector<double> curve;
  dg::CompactionResult compact;
  dg::StuckCampaignResult campaign;
  dg::AtpgResult atpg;
  /// Wall time of each call over the universe.
  std::vector<double> call_s;
  double seconds = 0.0;
};

void run_pass(DigitalSetup& s, std::uint64_t seed, DigitalPass& pass, SpanLog& log) {
  dg::Circuit& c = s.top->c;
  const auto timed = [&](const char* name, const auto& call) {
    const double t0 = now_s();
    {
      Scope span(log, name);
      call();
    }
    pass.call_s.push_back(now_s() - t0);
  };
  const double t0 = now_s();
  timed("digital.coverage_curve", [&] {
    pass.curve = dg::coverage_vs_pattern_count(c, s.chain_ptrs, s.pool, s.faults, s.observe);
  });
  timed("digital.compaction", [&] {
    pass.compact = dg::compact_patterns(c, s.chain_ptrs, s.pool, s.faults, s.observe);
  });
  timed("digital.stuck_campaign", [&] {
    pass.campaign = dg::run_stuck_campaign_multi(c, s.chain_ptrs, s.pool, s.faults, s.observe);
  });
  timed("digital.atpg", [&] {
    dg::AtpgOptions opts;
    opts.seed = seed;
    pass.atpg = dg::generate_tests(c, s.chain_ptrs, s.faults, s.pis, s.observe, opts);
  });
  pass.seconds = now_s() - t0;
}

/// The figures one pass produces, as (name, count) pairs: what each call
/// claims, and what fault simulation of the claimed pattern sets reaches.
using Figures = std::vector<std::pair<std::string, long>>;

std::string figures_line(std::uint64_t seed, const Figures& f) {
  std::string line = fmt("seed %llu", static_cast<unsigned long long>(seed));
  for (const auto& [name, value] : f) line += fmt(" %s %ld", name.c_str(), value);
  return line;
}

/// Checks that hold for any seed, plus the re-simulation figures.
///
/// The coverage curve and the compaction grade the same pattern x fault
/// detection matrix, and greedy set cover stops only when no pattern adds
/// a fault, so the curve ends at the compacted coverage. The stuck-at
/// campaign over the same pool keeps applying patterns until a hard
/// detect, so it reaches at least that coverage.
///
/// The re-simulations of the compacted and ATPG sets are reported, not
/// asserted: the application of a pattern depends on the previously
/// applied one (Circuit::power_on leaves primary inputs at their last
/// values), so run_stuck_campaign_multi, compact_patterns and atpg_score
/// disagree on a claimed set by a few to ~80 faults depending on the
/// seed. Those figures are pinned per seed instead, so any change shows.
Figures check_pass(DigitalSetup& s, const DigitalPass& p, Verdict& v) {
  dg::Circuit& c = s.top->c;
  const std::size_t n = s.faults.size();
  v.attempted += static_cast<long>(n);

  std::set<std::size_t> chosen(p.compact.selected.begin(), p.compact.selected.end());
  if (chosen.size() != p.compact.selected.size() ||
      (!chosen.empty() && *chosen.rbegin() >= s.pool.size()) ||
      p.compact.coverage_curve.size() != p.compact.selected.size()) {
    v.fail_check("compacted set is not a subset of the candidate pool");
  }
  if (p.campaign.hard.total != n || p.compact.coverage.total != n || p.atpg.coverage.total != n ||
      p.atpg.coverage.detected + p.atpg.undetected.size() != n ||
      p.curve.size() != s.pool.size()) {
    v.fail_check("a coverage figure does not cover the whole stuck-at universe");
  }
  const long curve_final =
      p.curve.empty() ? 0 : std::lround(p.curve.back() * static_cast<double>(n) / 100.0);
  const long compact_hard = static_cast<long>(p.compact.coverage.detected);
  if (curve_final != compact_hard) {
    v.fail_check(fmt("coverage curve ends at %ld faults, compaction covers %ld", curve_final,
                     compact_hard));
  }
  if (static_cast<long>(p.campaign.hard.detected) < compact_hard) {
    v.fail_check(fmt("stuck-at campaign over the pool detects %zu faults, fewer than the %ld "
                     "the compacted set covers",
                     p.campaign.hard.detected, compact_hard));
  }

  std::set<std::pair<dg::NetId, dg::Logic>> undetected;
  for (const auto& f : p.atpg.undetected) undetected.insert({f.net, f.value});
  std::size_t confirmed = 0;
  for (const auto& f : s.faults) {
    if (undetected.count({f.net, f.value}) != 0) continue;
    for (const auto& pattern : p.atpg.patterns) {
      bool detected = false;
      dg::atpg_score(c, s.chain_ptrs, pattern, f, s.observe, detected);
      if (detected) {
        ++confirmed;
        break;
      }
    }
  }
  std::vector<dg::MultiScanPattern> compacted;
  for (const std::size_t i : p.compact.selected) compacted.push_back(s.pool[i]);
  const auto compact_rerun =
      dg::run_stuck_campaign_multi(c, s.chain_ptrs, compacted, s.faults, s.observe);
  const auto rerun =
      dg::run_stuck_campaign_multi(c, s.chain_ptrs, p.atpg.patterns, s.faults, s.observe);
  if (good_responses(s) != s.good) v.fail_check("fault-free responses changed");

  const auto to_l = [](std::size_t x) { return static_cast<long>(x); };
  return {{"faults", to_l(n)},
          {"pool", to_l(s.pool.size())},
          {"pool_hard", to_l(p.campaign.hard.detected)},
          {"pool_combined", to_l(p.campaign.combined.detected)},
          {"curve_final", curve_final},
          {"compacted", to_l(p.compact.selected.size())},
          {"compact_hard", compact_hard},
          {"compact_rerun_hard", to_l(compact_rerun.hard.detected)},
          {"atpg_patterns", to_l(p.atpg.patterns.size())},
          {"atpg_detected", to_l(p.atpg.coverage.detected)},
          {"atpg_confirmed", to_l(confirmed)},
          {"atpg_rerun_hard", to_l(rerun.hard.detected)},
          {"atpg_rerun_combined", to_l(rerun.combined.detected)}};
}

long figure(const Figures& f, const char* name) {
  for (const auto& [k, value] : f) {
    if (k == name) return value;
  }
  return 0;
}

/// Compares with the pinned line of this seed, when one is pinned; each
/// fault by which a pinned count moved is a failed operation.
void check_pinned(const Args& a, const Figures& got, Verdict& v) {
  const std::string line = figures_line(a.seed, got);
  const std::string prefix = fmt("seed %llu ", static_cast<unsigned long long>(a.seed));
  for (const auto& l : read_lines(a.refs_dir + "/digital_atpg.ref")) {
    if (l.rfind(prefix, 0) != 0) continue;
    if (diff_lines({l}, {line}, "digital_atpg") == 0) return;
    long moved = 0;
    std::istringstream in(l.substr(prefix.size()));
    std::string name;
    long value = 0;
    while (in >> name >> value) moved += std::labs(value - figure(got, name.c_str()));
    v.failed += std::max(1L, moved);
    return;
  }
}

void report_gaps(const Figures& f) {
  std::fprintf(stderr,
               "pool %ld hard, coverage curve %ld, compacted set %ld (asserted: curve = "
               "compacted <= pool); re-simulation (reported, not asserted): compacted set "
               "claims %ld, re-run %ld; ATPG claims %ld, atpg_score re-derives %ld, "
               "run_stuck_campaign_multi %ld\n",
               figure(f, "pool_hard"), figure(f, "curve_final"), figure(f, "compact_hard"),
               figure(f, "compact_hard"), figure(f, "compact_rerun_hard"), figure(f, "atpg_detected"),
               figure(f, "atpg_confirmed"), figure(f, "atpg_rerun_hard"));
}

}  // namespace

void run_digital_atpg(const Args& a, Result& out) {
  SpanLog log(a.trace);
  DigitalSetup s;
  const auto build = [&] { build_setup(s, a.seed, log); };
  Verdict& v = out.verdict;
  const CounterSnapshot before = CounterSnapshot::take();
  // Layer isolation: nothing in this flow may reach the analog solver.
  auto check_isolation = [&] {
    const CounterSnapshot d = CounterSnapshot::take().minus(before);
    for (const auto& [name, value] : d.values) {
      if (value != 0.0) v.fail_check(fmt("digital_atpg touched %s (%g)", name.c_str(), value));
    }
  };

  // Every section starts from the same circuit state (a fresh set-up ends,
  // like each check, by applying the pool fault-free), so its figures must
  // repeat exactly.
  std::optional<Figures> first;
  auto check = [&](const DigitalPass& pass) {
    const Figures f = check_pass(s, pass, v);
    if (!first.has_value()) {
      first = f;
      report_gaps(f);
      check_pinned(a, f, v);
    } else if (f != *first) {
      v.fail_check("a repetition produced different figures: " + figures_line(a.seed, f));
    }
    return f;
  };

  if (!a.trace) {
    // No digital call reports progress per fault, so a call's per-fault
    // latency is its wall time over the number of faults.
    const RunTimes t = timed_run(a.seconds, kBuildsPerSection, build, [&] {
      DigitalPass pass;
      run_pass(s, a.seed, pass, log);
      Section section{pass.seconds, pass.call_s, {}};
      for (const double c : pass.call_s) {
        section.fault_ms.push_back(1e3 * c / static_cast<double>(s.faults.size()));
      }
      check(pass);
      return section;
    });
    check_isolation();
    set_end_to_end(out.metrics, t);
    report_reps("digital_atpg", "call", t);
    return;
  }

  median_setup(kSetupBuilds, build);
  MetricSet& m = out.metrics;
  init_per_layer(m);
  m.set("digital.good_responses_s", log.total_seconds("digital.good_responses") / kSetupBuilds,
        "s");
  // The second section gives the per-layer figures; the spans of the
  // third, also traced, are not reported.
  SpanLog off(false);
  SpanLog repeat(true);
  std::size_t calls = 0;
  const double overhead = traced_overhead_pct([&](int k) {
    DigitalPass p;
    run_pass(s, a.seed, p, k == 1 ? log : k == 2 ? repeat : off);
    check(p);
    calls = p.call_s.size();
    return p.seconds;
  });
  const Figures f = *first;
  check_isolation();

  const double compaction_s = log.total_seconds("digital.compaction");
  const double pairs = static_cast<double>(s.pool.size() * s.faults.size());
  m.set("digital.coverage_curve_s", log.total_seconds("digital.coverage_curve"), "s");
  m.set("digital.compaction_s", compaction_s, "s");
  m.set("digital.stuck_campaign_s", log.total_seconds("digital.stuck_campaign"), "s");
  m.set("digital.atpg_s", log.total_seconds("digital.atpg"), "s");
  m.set("digital.pattern_fault_pairs", pairs, "count");
  m.set("digital.pairs_per_s", compaction_s > 0.0 ? pairs / compaction_s : 0.0, "1/s");
  m.set("digital.compacted_patterns", static_cast<double>(figure(f, "compacted")), "count");
  m.set("digital.atpg_patterns", static_cast<double>(figure(f, "atpg_patterns")), "count");
  m.set("digital.atpg_undetected",
        static_cast<double>(figure(f, "faults") - figure(f, "atpg_detected")), "count");
  m.set("digital.compact_rerun_gap",
        static_cast<double>(figure(f, "compact_hard") - figure(f, "compact_rerun_hard")), "count");
  m.set("digital.atpg_rerun_gap",
        static_cast<double>(figure(f, "atpg_detected") - figure(f, "atpg_rerun_hard")), "count");
  m.set("fault.latency_samples", static_cast<double>(calls), "count");
  m.set("trace.overhead_pct", overhead, "%");
  m.set("process.cpu_s", process_cpu_s(), "s");
  if (!a.trace_out.empty() && !log.write_json(a.trace_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", a.trace_out.c_str());
  }
}

void record_digital_atpg(const Args& a) {
  std::vector<std::string> lines = {
      "# Digital ATPG reference, one line per seed: the stuck-at universe, the candidate",
      "# pool's hard/combined detects and coverage-curve end, the",
      "# compacted set's size, claimed and re-simulated detects, and ATPG's patterns, claimed",
      "# detects, atpg_score re-derivation and re-simulation (hard/combined)."};
  for (std::uint64_t seed = 0; seed < kPinnedSeeds; ++seed) {
    SpanLog off(false);
    DigitalSetup s;
    build_setup(s, seed, off);
    DigitalPass pass;
    run_pass(s, seed, pass, off);
    Verdict v;
    const Figures f = check_pass(s, pass, v);
    if (!v.checks_ok) throw std::runtime_error("checks fail; not recording");
    lines.push_back(figures_line(seed, f));
    std::fprintf(stderr, "%s\n", lines.back().c_str());
  }
  if (!write_lines(a.refs_dir + "/digital_atpg.ref", lines)) {
    throw std::runtime_error("cannot write digital_atpg.ref");
  }
}

}  // namespace perfbench
