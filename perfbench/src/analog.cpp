// Analog workloads: the Table-I fault campaign (both gate-open
// conventions) and the fault dictionary, over the paper's structural
// fault universe. The input is that fixed universe, so these workloads
// take no seed.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/testable_link.hpp"
#include "dft/campaign.hpp"
#include "dft/dictionary.hpp"
#include "fault/structural.hpp"
#include "harness.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace {

using lsl::dft::CampaignOptions;
using lsl::dft::CampaignReport;
using lsl::dft::FaultVerdict;
using lsl::fault::FaultClass;
using lsl::fault::StructuralFault;

/// From-scratch set-ups before each timed section of a measured run, and
/// in the traced run, whose per-layer set-up split is their mean.
constexpr int kBuildsPerSection = 5;
constexpr int kSetupBuilds = 21;

/// Every input the analog timed sections use, built through public calls.
struct AnalogSetup {
  std::unique_ptr<lsl::core::TestableLink> link;
  std::vector<StructuralFault> faults;
  std::unique_ptr<lsl::dft::DictionaryContext> ctx;
};

AnalogSetup build_setup(SpanLog& log) {
  AnalogSetup s;
  {
    Scope span(log, "core.link_build");
    s.link = std::make_unique<lsl::core::TestableLink>();
  }
  {
    Scope span(log, "fault.enumerate");
    s.faults = lsl::fault::enumerate_structural_faults(s.link->frontend().netlist(), {},
                                                       lsl::fault::test_circuitry_prefixes());
  }
  {
    Scope span(log, "dft.references");
    s.ctx = std::make_unique<lsl::dft::DictionaryContext>(s.link->frontend());
  }
  return s;
}

/// Per-fault latency from the gaps between consecutive progress
/// callbacks of a serial run (the last fault ends when the call returns).
class FaultClock {
 public:
  void start(std::size_t n) { marks_.assign(n, -1.0); }
  void mark(std::size_t i) {
    if (i < marks_.size()) marks_[i] = now_s();
  }
  /// Seconds per fault index (-1 for faults never reported); each fault
  /// also becomes a "fault" span under the span open in `log`.
  std::vector<double> finish(SpanLog& log) const {
    const double end = now_s();
    std::vector<double> d(marks_.size(), -1.0);
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      if (marks_[i] < 0.0) continue;
      d[i] = (i + 1 < marks_.size() && marks_[i + 1] >= 0.0 ? marks_[i + 1] : end) - marks_[i];
      log.add("fault", marks_[i], marks_[i] + d[i]);
    }
    return d;
  }

 private:
  std::vector<double> marks_;
};

std::string ref_path(const Args& a, const char* name) { return a.refs_dir + "/" + name; }

const char* verdict_text(FaultVerdict v) {
  switch (v) {
    case FaultVerdict::kDetected: return "detected";
    case FaultVerdict::kUndetected: return "undetected";
    case FaultVerdict::kQuarantined: return "quarantined";
  }
  return "?";
}

// --- Table-I campaign --------------------------------------------------

CampaignOptions campaign_options(bool pessimistic, FaultClock* clock) {
  CampaignOptions o;
  o.num_threads = 1;
  o.pessimistic_gate_opens = pessimistic;
  if (clock != nullptr) o.progress = [clock](std::size_t i, std::size_t) { clock->mark(i); };
  return o;
}

CampaignOptions mechanisms_off(CampaignOptions o) {
  o.reuse_golden = false;
  o.low_rank_injection = false;
  o.collapse_faults = false;
  o.adaptive_stage_order = false;
  return o;
}

/// Verdict partition lines ("fault ...") and Table-I per-class coverage
/// lines of one convention. Stage bits are deliberately not included.
void campaign_lines(const CampaignReport& r, const char* convention,
                    std::vector<std::string>& fault_lines, std::vector<std::string>& table) {
  std::vector<const lsl::dft::FaultOutcome*> ordered;
  for (const auto& o : r.outcomes) ordered.push_back(&o);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->index < b->index; });
  for (const auto* o : ordered) {
    fault_lines.push_back(fmt("%s fault %zu %s %s %s", convention, o->index,
                              o->fault.device.c_str(),
                              lsl::fault::fault_class_name(o->fault.cls).c_str(),
                              verdict_text(o->verdict)));
  }
  for (const FaultClass cls : lsl::fault::kAllFaultClasses) {
    const auto it = r.per_class.find(cls);
    const lsl::dft::ClassStats st = it == r.per_class.end() ? lsl::dft::ClassStats{} : it->second;
    table.push_back(fmt("%s class %s %zu/%zu quarantined %zu", convention,
                        lsl::fault::fault_class_name(cls).c_str(), st.cum_all.detected,
                        st.cum_all.total, st.quarantined));
  }
  table.push_back(fmt("%s total %zu/%zu quarantined %zu", convention, r.total.cum_all.detected,
                      r.total.cum_all.total, r.quarantined));
}

struct Pinned {
  std::vector<std::string> faults;
  std::vector<std::string> summary;
};

/// Splits a reference file into per-operation lines and summary lines.
Pinned load_pinned(const std::string& path, const char* op_marker) {
  Pinned p;
  for (const auto& l : read_lines(path)) {
    if (l.empty() || l[0] == '#') continue;
    (l.find(op_marker) != std::string::npos ? p.faults : p.summary).push_back(l);
  }
  return p;
}

/// Compares one run's lines with the pinned ones: a fault line that
/// differs, or that reports a quarantined verdict, is a failed operation;
/// a differing summary line fails the run.
void check_against(const Pinned& pinned, const std::vector<std::string>& fault_lines,
                   const std::vector<std::string>& summary, const char* what, Verdict& v) {
  if (pinned.faults.empty()) {
    v.fail_check(fmt("%s: pinned reference missing", what));
    return;
  }
  v.failed += diff_lines(pinned.faults, fault_lines, fmt("%s verdicts", what));
  const std::string quarantined = " quarantined";
  for (std::size_t i = 0; i < fault_lines.size() && i < pinned.faults.size(); ++i) {
    const std::string& l = fault_lines[i];
    if (l == pinned.faults[i] && l.size() >= quarantined.size() &&
        l.compare(l.size() - quarantined.size(), quarantined.size(), quarantined) == 0) {
      ++v.failed;  // pinned as quarantined: still no verdict
    }
  }
  if (diff_lines(pinned.summary, summary, fmt("%s summary", what)) != 0) {
    v.fail_check(fmt("%s: summary differs from the pinned reference", what));
  }
}

/// One timed section: the campaign under both gate-open conventions.
struct CampaignPass {
  CampaignReport report[2];
  std::vector<double> fault_s[2];
  double seconds = 0.0;
};

void run_campaign_pass(const AnalogSetup& s, CampaignPass& pass, SpanLog& log) {
  const double t0 = now_s();
  for (const bool pessimistic : {false, true}) {
    FaultClock clock;
    clock.start(s.faults.size());
    Scope span(log, "dft.run_fault_campaign");
    pass.report[pessimistic] = s.link->run_fault_campaign(campaign_options(pessimistic, &clock));
    pass.fault_s[pessimistic] = clock.finish(log);
  }
  pass.seconds = now_s() - t0;
}

/// Per-fault latencies (ms) of simulated faults, by class; faults folded
/// into an equivalence class are dropped.
void collect_latencies(const CampaignReport& r, const std::vector<double>& fault_s,
                       std::vector<double>& all_ms,
                       std::map<FaultClass, std::vector<double>>* by_class) {
  for (const auto& o : r.outcomes) {
    if (o.collapsed_into.has_value() || o.index >= fault_s.size() || fault_s[o.index] < 0.0) {
      continue;
    }
    all_ms.push_back(1e3 * fault_s[o.index]);
    if (by_class != nullptr) (*by_class)[o.fault.cls].push_back(1e3 * fault_s[o.index]);
  }
}

void check_campaign_pass(const CampaignPass& pass, const Pinned& pinned, Verdict& v) {
  std::vector<std::string> faults;
  std::vector<std::string> summary;
  for (const bool pessimistic : {false, true}) {
    const CampaignReport& r = pass.report[pessimistic];
    campaign_lines(r, pessimistic ? "pessimistic" : "bulk-leak", faults, summary);
    v.attempted += static_cast<long>(r.outcomes.size());
    if (!r.complete) v.fail_check("campaign stopped before the last fault");
  }
  check_against(pinned, faults, summary, "table1_campaign", v);
}

void set_class_p95(MetricSet& m, const std::map<FaultClass, std::vector<double>>& by_class) {
  for (const auto& [cls, ms] : by_class) {
    m.set("dft.fault_class." + lsl::fault::fault_class_name(cls) + ".p95_ms",
          percentile(ms, 0.95), "ms");
  }
}

void set_setup_layers(MetricSet& m, const SpanLog& log) {
  m.set("core.link_build_s", log.total_seconds("core.link_build") / kSetupBuilds, "s");
  m.set("dft.references_s", log.total_seconds("dft.references") / kSetupBuilds, "s");
}

void finish_traced(const Args& a, Result& out, const SpanLog& log, double overhead_pct) {
  out.metrics.set("cells.frontend_copy_s", log.total_seconds("cells.frontend_copy"), "s");
  out.metrics.set("fault.inject_s", log.total_seconds("fault.inject"), "s");
  out.metrics.set("trace.overhead_pct", overhead_pct, "%");
  out.metrics.set("process.cpu_s", process_cpu_s(), "s");
  if (!a.trace_out.empty() && !log.write_json(a.trace_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", a.trace_out.c_str());
  }
}

// --- fault dictionary ----------------------------------------------------

lsl::dft::DictionaryOptions dictionary_options(FaultClock* clock) {
  lsl::dft::DictionaryOptions o;
  if (clock != nullptr) o.progress = [clock](std::size_t i, std::size_t) { clock->mark(i); };
  return o;
}

std::vector<std::string> dictionary_fault_lines(const lsl::dft::FaultDictionary& d) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < d.entries().size(); ++i) {
    const auto& e = d.entries()[i];
    lines.push_back(fmt("fault %zu %s %s %s", i, e.fault.device.c_str(),
                        lsl::fault::fault_class_name(e.fault.cls).c_str(), e.signature.c_str()));
  }
  return lines;
}

std::vector<std::string> dictionary_summary(const lsl::dft::FaultDictionary& d) {
  const auto r = d.resolution();
  return {"golden " + d.golden_signature(),
          fmt("resolution faults %zu detected %zu classes %zu unique %zu largest %zu avg %.6f",
              r.faults, r.detected, r.classes, r.uniquely_diagnosed, r.largest_class,
              r.avg_class_size)};
}

struct DictionaryPass {
  lsl::dft::FaultDictionary dict;
  std::vector<double> fault_s;
  double seconds = 0.0;
};

void run_dictionary_pass(const AnalogSetup& s, DictionaryPass& pass, SpanLog& log) {
  FaultClock clock;
  clock.start(s.faults.size());
  const double t0 = now_s();
  {
    Scope span(log, "dft.build_dictionary");
    pass.dict = lsl::dft::build_dictionary(s.link->frontend(), dictionary_options(&clock));
    pass.fault_s = clock.finish(log);
  }
  pass.seconds = now_s() - t0;
}

void check_dictionary_pass(const AnalogSetup& s, const DictionaryPass& pass, const Pinned& pinned,
                           Verdict& v) {
  const auto lines = dictionary_fault_lines(pass.dict);
  v.attempted += static_cast<long>(s.faults.size());
  if (pass.dict.entries().size() != s.faults.size()) {
    v.failed += static_cast<long>(s.faults.size()) - static_cast<long>(pass.dict.entries().size());
  }
  check_against(pinned, lines, dictionary_summary(pass.dict), "fault_dictionary", v);
}

std::vector<double> dictionary_latencies(const DictionaryPass& pass) {
  std::vector<double> ms;
  for (const double d : pass.fault_s) {
    if (d >= 0.0) ms.push_back(1e3 * d);
  }
  return ms;
}

/// Time and Newton iterations of one public call.
struct StageCost {
  double seconds = 0.0;
  double newton = 0.0;
  long calls = 0;
};

template <class F>
void measure_stage(std::map<std::string, StageCost>& costs, const char* stage, SpanLog& log,
                   F&& call) {
  const CounterSnapshot before = CounterSnapshot::take();
  const double t0 = now_s();
  {
    Scope span(log, stage);
    call();
  }
  StageCost& c = costs[stage];
  c.seconds += now_s() - t0;
  c.newton += CounterSnapshot::take().minus(before).newton();
  ++c.calls;
}

/// The stage-decomposed dictionary pass: for each fault, inject, then
/// call each public signature function capture_signature composes, one
/// at a time, to measure what each stage costs.
std::map<std::string, StageCost> stage_pass(const AnalogSetup& s, SpanLog& log) {
  const auto& ctx = *s.ctx;
  const auto vdd_open = *ctx.golden.netlist().find_node("vdd");
  const auto vdd_closed = *ctx.golden_closed.netlist().find_node("vdd");
  std::map<std::string, StageCost> costs;
  for (const auto& f : s.faults) {
    Scope fault_span(log, "fault.stages");
    const auto leak = f.needs_leak_variants() ? lsl::fault::bulk_leak(ctx.golden.netlist(), f)
                                              : lsl::fault::OpenLeak::kToGround;
    Scope copy_span(log, "cells.frontend_copy");
    lsl::cells::LinkFrontend faulty = ctx.golden;
    lsl::cells::LinkFrontend faulty_closed = ctx.golden_closed;
    copy_span.close();
    {
      Scope inject_span(log, "fault.inject");
      if (!lsl::fault::inject(faulty.netlist(), f, leak, vdd_open) ||
          !lsl::fault::inject(faulty_closed.netlist(), f, leak, vdd_closed)) {
        throw std::runtime_error("inject failed for " + f.describe());
      }
    }
    measure_stage(costs, "dc_observe", log, [&] {
      for (const bool d : {true, false}) {
        faulty_closed.set_data(d, d);
        const auto r = faulty_closed.solve();
        if (r.converged) (void)faulty_closed.observe(r);
      }
    });
    measure_stage(costs, "cp_scan", log, [&] { (void)lsl::dft::cp_scan_signature(faulty); });
    measure_stage(costs, "scan_static", log,
                  [&] { (void)lsl::dft::scan_static_signature(faulty); });
    if (ctx.with_toggle) {
      measure_stage(costs, "toggle", log, [&] { (void)lsl::dft::toggle_signature(faulty); });
    }
    bool reads_ok = true;
    measure_stage(costs, "cp_bist_read", log, [&] {
      for (const double vc : lsl::dft::cp_bist_vc_levels()) {
        bool hi = false;
        bool lo = false;
        reads_ok = lsl::dft::read_cp_bist_bits(faulty, vc, hi, lo) && reads_ok;
      }
    });
    if (reads_ok) {
      measure_stage(costs, "bist_test", log,
                    [&] { (void)lsl::dft::run_bist_test(faulty, ctx.bist_ref); });
    }
  }
  return costs;
}

void set_stage_costs(MetricSet& m, const std::map<std::string, StageCost>& costs) {
  for (const auto& [stage, c] : costs) {
    m.set("dft." + stage + "_s", c.seconds, "s");
    m.set("dft." + stage + "_newton", c.newton, "count");
  }
}

}  // namespace

void run_table1_campaign(const Args& a, Result& out) {
  SpanLog log(a.trace);
  AnalogSetup s;
  const auto build = [&] { s = build_setup(log); };
  const Pinned pinned = load_pinned(ref_path(a, "table1_campaign.ref"), " fault ");
  Verdict& v = out.verdict;

  if (!a.trace) {
    const RunTimes t = timed_run(a.seconds, kBuildsPerSection, build, [&] {
      CampaignPass pass;
      run_campaign_pass(s, pass, log);
      Section section{pass.seconds, {}, {}};
      for (const bool p : {false, true}) {
        for (const double d : pass.fault_s[p]) {
          if (d >= 0.0) section.parts_s.push_back(d);
        }
        collect_latencies(pass.report[p], pass.fault_s[p], section.fault_ms, nullptr);
      }
      check_campaign_pass(pass, pinned, v);
      return section;
    });
    set_end_to_end(out.metrics, t);
    report_reps("table1_campaign", "fault", t);
    return;
  }

  // Traced run: four sections, untraced / traced / traced / untraced, for
  // the tracing overhead. Traced sections run with detailed solver
  // timing; the first gives the spans and registry deltas reported, the
  // second's spans are dropped. Then the stage-decomposed pass (which
  // also times each copy and injection).
  median_setup(kSetupBuilds, build);
  init_per_layer(out.metrics);
  set_setup_layers(out.metrics, log);
  SpanLog off(false);
  SpanLog repeat(true);
  CampaignPass pass;
  CounterSnapshot delta;
  const double overhead = traced_overhead_pct([&](int k) {
    const bool traced = k == 1 || k == 2;
    lsl::util::Metrics::set_detailed_timing(traced);
    const CounterSnapshot before = CounterSnapshot::take();
    CampaignPass p;
    run_campaign_pass(s, p, k == 1 ? log : traced ? repeat : off);
    if (k == 1) delta = CounterSnapshot::take().minus(before);
    lsl::util::Metrics::set_detailed_timing(false);
    check_campaign_pass(p, pinned, v);
    const double seconds = p.seconds;
    if (k == 1) pass = std::move(p);
    return seconds;
  });

  MetricSet& m = out.metrics;
  set_registry_metrics(m, delta);
  set_stage_costs(m, stage_pass(s, log));
  std::vector<double> fault_ms;
  std::map<FaultClass, std::vector<double>> by_class;
  double stages[3] = {0, 0, 0};
  for (const bool p : {false, true}) {
    collect_latencies(pass.report[p], pass.fault_s[p], fault_ms, &by_class);
    for (const auto& o : pass.report[p].outcomes) {
      if (o.collapsed_into.has_value()) continue;
      stages[0] += (o.stages_run & lsl::dft::kStageBitDc) != 0;
      stages[1] += (o.stages_run & lsl::dft::kStageBitScan) != 0;
      stages[2] += (o.stages_run & lsl::dft::kStageBitBist) != 0;
    }
  }
  m.set("dft.stages_run.dc", stages[0], "count");
  m.set("dft.stages_run.scan", stages[1], "count");
  m.set("dft.stages_run.bist", stages[2], "count");
  set_class_p95(m, by_class);
  m.set("dft.campaign_self_s", log.self_seconds("dft.run_fault_campaign"), "s");
  m.set("fault.universe", static_cast<double>(s.faults.size()), "count");
  m.set("fault.latency_samples", static_cast<double>(fault_ms.size()), "count");
  finish_traced(a, out, log, overhead);
}

void run_fault_dictionary(const Args& a, Result& out) {
  SpanLog log(a.trace);
  AnalogSetup s;
  const auto build = [&] { s = build_setup(log); };
  const Pinned pinned = load_pinned(ref_path(a, "fault_dictionary.ref"), "fault ");
  Verdict& v = out.verdict;

  // Layer isolation: the dictionary bypasses every campaign mechanism,
  // so the warm-start and low-rank paths must stay untouched.
  auto check_isolation = [&v](const CounterSnapshot& d) {
    for (const char* name : {"campaign.warm_start.hits", "campaign.warm_start.rejects",
                             "campaign.smw.solves", "campaign.smw.fallbacks"}) {
      if (d.get(name) != 0.0) {
        v.fail_check(fmt("fault_dictionary touched %s (%g)", name, d.get(name)));
      }
    }
  };

  if (!a.trace) {
    const CounterSnapshot before = CounterSnapshot::take();
    const RunTimes t = timed_run(a.seconds, kBuildsPerSection, build, [&] {
      DictionaryPass pass;
      run_dictionary_pass(s, pass, log);
      Section section{pass.seconds, {}, dictionary_latencies(pass)};
      for (const double ms : section.fault_ms) section.parts_s.push_back(1e-3 * ms);
      check_dictionary_pass(s, pass, pinned, v);
      return section;
    });
    check_isolation(CounterSnapshot::take().minus(before));
    set_end_to_end(out.metrics, t);
    report_reps("fault_dictionary", "fault", t);
    return;
  }

  // Sections as in the Table-I traced run, then the stage-decomposed pass.
  median_setup(kSetupBuilds, build);
  init_per_layer(out.metrics);
  set_setup_layers(out.metrics, log);
  const CounterSnapshot traced_start = CounterSnapshot::take();
  SpanLog off(false);
  SpanLog repeat(true);
  DictionaryPass pass;
  CounterSnapshot delta;
  const double overhead = traced_overhead_pct([&](int k) {
    const bool traced = k == 1 || k == 2;
    lsl::util::Metrics::set_detailed_timing(traced);
    const CounterSnapshot before = CounterSnapshot::take();
    DictionaryPass p;
    run_dictionary_pass(s, p, k == 1 ? log : traced ? repeat : off);
    if (k == 1) delta = CounterSnapshot::take().minus(before);
    lsl::util::Metrics::set_detailed_timing(false);
    check_dictionary_pass(s, p, pinned, v);
    const double seconds = p.seconds;
    if (k == 1) pass = std::move(p);
    return seconds;
  });
  lsl::util::Metrics::set_detailed_timing(true);
  const auto costs = stage_pass(s, log);
  lsl::util::Metrics::set_detailed_timing(false);
  check_isolation(CounterSnapshot::take().minus(traced_start));

  MetricSet& m = out.metrics;
  set_registry_metrics(m, delta);
  set_stage_costs(m, costs);
  const auto calls = [&costs](const char* stage) {
    const auto it = costs.find(stage);
    return it == costs.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  m.set("dft.stages_run.dc", calls("dc_observe"), "count");
  m.set("dft.stages_run.scan", calls("cp_scan"), "count");
  m.set("dft.stages_run.bist", calls("cp_bist_read"), "count");

  const auto fault_ms = dictionary_latencies(pass);
  std::map<FaultClass, std::vector<double>> by_class;
  for (std::size_t i = 0; i < pass.dict.entries().size() && i < pass.fault_s.size(); ++i) {
    if (pass.fault_s[i] < 0.0) continue;
    by_class[pass.dict.entries()[i].fault.cls].push_back(1e3 * pass.fault_s[i]);
  }
  set_class_p95(m, by_class);
  m.set("fault.universe", static_cast<double>(s.faults.size()), "count");
  m.set("fault.latency_samples", static_cast<double>(fault_ms.size()), "count");
  finish_traced(a, out, log, overhead);
}

void record_table1_campaign(const Args& a) {
  SpanLog off(false);
  AnalogSetup s = build_setup(off);
  std::vector<std::string> faults;
  std::vector<std::string> summary;
  std::vector<std::string> faults_off;
  std::vector<std::string> summary_off;
  for (const bool pessimistic : {false, true}) {
    const char* conv = pessimistic ? "pessimistic" : "bulk-leak";
    const auto r = s.link->run_fault_campaign(campaign_options(pessimistic, nullptr));
    const auto r_off =
        s.link->run_fault_campaign(mechanisms_off(campaign_options(pessimistic, nullptr)));
    campaign_lines(r, conv, faults, summary);
    campaign_lines(r_off, conv, faults_off, summary_off);
  }
  if (diff_lines(faults_off, faults, "defaults vs all mechanisms off") != 0 ||
      diff_lines(summary_off, summary, "defaults vs all mechanisms off (Table I)") != 0) {
    throw std::runtime_error("default options disagree with all mechanisms off; not recording");
  }
  std::vector<std::string> lines = {
      "# Table-I campaign reference: per-fault verdicts and per-class Table-I",
      "# coverage (detected/total over DC+scan+BIST) for both gate-open conventions.",
      "# Identical with every incremental mechanism off. Stage bits are not pinned."};
  lines.insert(lines.end(), faults.begin(), faults.end());
  lines.insert(lines.end(), summary.begin(), summary.end());
  if (!write_lines(ref_path(a, "table1_campaign.ref"), lines)) {
    throw std::runtime_error("cannot write table1_campaign.ref");
  }
}

void record_fault_dictionary(const Args& a) {
  SpanLog off(false);
  AnalogSetup s = build_setup(off);
  const auto dict = lsl::dft::build_dictionary(s.link->frontend(), dictionary_options(nullptr));
  std::vector<std::string> lines = {
      "# Fault dictionary reference: golden signature, per-fault signatures",
      "# (index device class signature) and the Resolution figures."};
  const auto summary = dictionary_summary(dict);
  const auto faults = dictionary_fault_lines(dict);
  lines.insert(lines.end(), summary.begin(), summary.end());
  lines.insert(lines.end(), faults.begin(), faults.end());
  if (!write_lines(ref_path(a, "fault_dictionary.ref"), lines)) {
    throw std::runtime_error("cannot write fault_dictionary.ref");
  }
}

}  // namespace perfbench
