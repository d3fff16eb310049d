#include "dft/campaign.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "spice/seed.hpp"
#include "spice/workspace.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace lsl::dft {

using fault::OpenLeak;
using fault::StructuralFault;

std::string fault_verdict_name(FaultVerdict v) {
  switch (v) {
    case FaultVerdict::kDetected: return "detected";
    case FaultVerdict::kUndetected: return "undetected";
    case FaultVerdict::kQuarantined: return "quarantined";
  }
  return "?";
}

bool fault_verdict_from_name(const std::string& name, FaultVerdict& out) {
  for (const FaultVerdict v :
       {FaultVerdict::kDetected, FaultVerdict::kUndetected, FaultVerdict::kQuarantined}) {
    if (fault_verdict_name(v) == name) {
      out = v;
      return true;
    }
  }
  return false;
}

std::vector<const FaultOutcome*> CampaignReport::undetected() const {
  std::vector<const FaultOutcome*> out;
  for (const auto& o : outcomes) {
    if (o.verdict == FaultVerdict::kUndetected) out.push_back(&o);
  }
  return out;
}

std::vector<const FaultOutcome*> CampaignReport::quarantined_faults() const {
  std::vector<const FaultOutcome*> out;
  for (const auto& o : outcomes) {
    if (o.verdict == FaultVerdict::kQuarantined) out.push_back(&o);
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FaultOutcome::observed's layout: the marks of every sub-stage the
/// options enable, in SubStage order, each '-'-padded to its width (the
/// sub-stages the options disable leave no marks).
std::string observed_marks(std::array<std::string, kSubStageCount> marks,
                           const CampaignOptions& opts) {
  const unsigned enabled = kAllSubStages & ~(opts.with_scan_toggle ? 0u : sub_bit(kSubToggle)) &
                           ~(opts.with_bist ? 0u : kBistSubStages);
  std::string observed;
  for (unsigned s = 0; s < kSubStageCount; ++s) {
    if ((enabled & (1u << s)) == 0) continue;
    marks[s].resize(std::max(marks[s].size(), kSubStageMarkWidth[s]), '-');
    observed += marks[s];
  }
  return observed;
}

/// Whether a leak variant that has spent `iterations` Newton iterations
/// is still within the per-fault budget.
bool within_budget(const CampaignOptions& opts, long iterations) {
  return opts.max_newton_per_fault <= 0 || iterations <= opts.max_newton_per_fault;
}

/// Runs DC, then scan, then BIST (when enabled) on one leak variant —
/// the order of the paper's cumulative Table-I columns — and appends its
/// record, marks ('|'-separated from an earlier variant's), iterations
/// and, if no earlier variant failed a solve, first failure status to
/// `r`. With `short_circuit`, the first detection skips the remaining
/// stages. Without adaptive_stage_order, every stage runs in full
/// evaluation (every sub-stage, past detections and failed solves), so
/// `observed` holds every observation. `faulty_closed` is read by the
/// DC stage only, which takes it over.
void run_stages(cells::LinkFrontend&& faulty_closed, const cells::LinkFrontend& faulty,
                const StageOutcome& dc_golden, const StageOutcome& scan_golden,
                const BistTestReference& bist_ref, const CampaignOptions& opts,
                bool short_circuit, const spice::SolveHints* hints, FaultOutcome& r) {
  SubStageRecord record;
  long iterations = 0;  // this variant's: the Newton budget is per variant

  static util::Counter& stage_skips = util::metrics().counter("campaign.stage_skips");
  static const std::array<util::MetricHistogram*, kStageCount> stage_seconds = {
      &util::metrics().histogram("campaign.stage_seconds.dc"),
      &util::metrics().histogram("campaign.stage_seconds.scan"),
      &util::metrics().histogram("campaign.stage_seconds.bist")};

  const bool full = !opts.adaptive_stage_order;
  std::array<std::string, kSubStageCount> marks;
  const unsigned n_stages = opts.with_bist ? kStageCount : kStageBist;
  for (unsigned stage = kStageDc; stage < n_stages && within_budget(opts, iterations); ++stage) {
    const Clock::time_point stage_start = Clock::now();
    const StageOutcome o = [&]() -> StageOutcome {
      if (stage == kStageDc) {
        return run_dc_test(std::move(faulty_closed), dc_golden, {}, hints, full);
      }
      if (stage == kStageScan) {
        return run_scan_test(faulty, scan_golden, {}, {}, hints, full, opts.with_scan_toggle);
      }
      return run_bist_test(faulty, bist_ref, {}, hints, full);
    }();
    stage_seconds[stage]->observe(seconds_since(stage_start));
    iterations += o.iterations;
    // The first failed solve's status wins: later stages usually fail
    // the same way for the same reason.
    if (o.anomalous() && record.failed == 0 && !anomalous(r.record)) r.status = o.status;
    record.run |= o.sub.run;
    record.detected |= o.sub.detected;
    record.failed |= o.sub.failed;
    for (unsigned s = 0; s < kSubStageCount; ++s) marks[s] += o.marks[s];
    // A detection in hand makes every remaining stage redundant for the
    // verdict: one detecting stage already wins classification regardless
    // of what they would report, so skipping them cannot move the fault
    // between partitions (DESIGN.md).
    if (short_circuit && o.detected()) {
      if (stage + 1 < n_stages) stage_skips.add(n_stages - 1 - stage);
      break;
    }
  }
  if (!within_budget(opts, iterations)) r.budget_blown = true;
  r.newton_iterations += iterations;
  if (r.record.count != 0) r.observed += '|';
  r.observed += observed_marks(std::move(marks), opts);
  r.record.add(record);
}

FaultVerdict classify(const FaultOutcome& o) {
  // A genuine signature mismatch is conclusive even when another stage
  // failed to solve or the budget ran out afterwards.
  if (detected(o.record)) return FaultVerdict::kDetected;
  if (anomalous(o.record) || o.budget_blown) return FaultVerdict::kQuarantined;
  return FaultVerdict::kUndetected;
}

void account(ClassStats& s, const FaultOutcome& o) {
  if (o.verdict == FaultVerdict::kQuarantined) {
    // Quarantined faults never produced a trustworthy verdict: they are
    // excluded from the denominator, not silently counted either way.
    ++s.quarantined;
    return;
  }
  const auto hit = [&](Stage stage) {
    return stage_result(o.record, stage) == StageResult::kDetected;
  };
  s.cum_dc.add(hit(kStageDc));
  s.cum_scan.add(hit(kStageDc) || hit(kStageScan));
  s.cum_all.add(detected(o.record));
}

/// Recomputes the report's statistics, and each outcome's stages_run
/// (the stages whose result is not kNotRun), from its outcome list —
/// runs at any thread count and projections therefore produce
/// identical figures for identical outcome sets.
void tally(CampaignReport& report) {
  static_assert(kStageBitDc == 1u << kStageDc && kStageBitScan == 1u << kStageScan &&
                kStageBitBist == 1u << kStageBist);
  for (FaultOutcome& o : report.outcomes) {
    o.stages_run = 0;
    for (const Stage s : {kStageDc, kStageScan, kStageBist}) {
      if (stage_result(o.record, s) != StageResult::kNotRun) o.stages_run |= 1u << s;
    }
    if (anomalous(o.record)) ++report.anomalous;
    if (o.verdict == FaultVerdict::kQuarantined) ++report.quarantined;
    account(report.per_class[o.fault.cls], o);
    account(report.total, o);
  }
}

/// Everything one fault simulation reads. Each pool worker slot gets its
/// own instance pointing at its own cloned frontends so no netlist (with
/// its mutable index cache) is ever touched from two threads.
struct FaultSimContext {
  const cells::LinkFrontend* golden = nullptr;
  const cells::LinkFrontend* golden_closed = nullptr;
  spice::NodeId vdd = spice::kGround;
  spice::NodeId vdd_closed = spice::kGround;
  const StageOutcome* dc_golden = nullptr;
  const StageOutcome* scan_golden = nullptr;
  const BistTestReference* bist_ref = nullptr;
  const CampaignOptions* opts = nullptr;
  /// Golden warm-start seeds, immutable and shared read-only across
  /// every worker (null when reuse_golden is off).
  const spice::SeedBank* seeds = nullptr;
};

/// Simulates one fault through all enabled stages. Deterministic given
/// the fault and context, and fully self-contained: copies the goldens,
/// injects, runs stages, classifies.
FaultOutcome simulate_fault(const FaultSimContext& ctx, const StructuralFault& f,
                            std::size_t index, std::size_t worker) {
  const CampaignOptions& opts = *ctx.opts;
  FaultOutcome outcome;
  util::TraceSpan span("fault", "campaign");
  span.arg("index", static_cast<double>(index));
  span.arg("worker", static_cast<double>(worker));
  const Clock::time_point fault_start = Clock::now();

  // Pessimistic convention: a floating gate's level is unknowable, so
  // both leak variants run and a stage detects only when it does in
  // both (stage_result). A per-variant short-circuit could skip a stage
  // the other variant's detection needs, so these always run every stage.
  const bool both_leaks = f.needs_leak_variants() && opts.pessimistic_gate_opens;
  const bool short_circuit = opts.adaptive_stage_order && !both_leaks;

  const auto run_variant = [&](OpenLeak leak) {
    cells::LinkFrontend faulty = *ctx.golden;
    cells::LinkFrontend faulty_closed = *ctx.golden_closed;
    if (!fault::inject(faulty.netlist(), f, leak, ctx.vdd) ||
        !fault::inject(faulty_closed.netlist(), f, leak, ctx.vdd_closed)) {
      throw std::runtime_error("the fault cannot be injected");
    }
    spice::SolveHints hints;
    hints.seeds = ctx.seeds;
    run_stages(std::move(faulty_closed), faulty, *ctx.dc_golden, *ctx.scan_golden, *ctx.bist_ref,
               opts, short_circuit, &hints, outcome);
  };
  // A fault whose simulation threw has no trustworthy verdict: its
  // record becomes one that failed every sub-stage.
  const auto quarantine = [&](const std::string& what) {
    util::log_error("campaign: " + what);
    outcome.record = {};
    outcome.record.add({.failed = kAllSubStages});
    outcome.status = spice::SolveStatus::kNonFinite;
  };

  // Survival guarantee: nothing a single fault does — divergence,
  // singularity, or an unexpected exception — may abort the campaign.
  try {
    if (both_leaks) {
      run_variant(OpenLeak::kToGround);
      run_variant(OpenLeak::kToVdd);
    } else {
      // Gate opens leak toward the device bulk; other opens have no
      // leak dependence (the argument is ignored).
      run_variant(f.needs_leak_variants() ? fault::bulk_leak(ctx.golden->netlist(), f)
                                          : OpenLeak::kToGround);
    }
  } catch (const std::exception& e) {
    quarantine("exception on " + f.describe() + ": " + e.what());
  } catch (...) {
    quarantine("unknown exception on " + f.describe());
  }

  outcome.fault = f;
  outcome.index = index;
  outcome.elapsed_sec = seconds_since(fault_start);
  outcome.verdict = classify(outcome);

  auto& m = util::metrics();
  static util::Counter& faults = m.counter("campaign.faults");
  static util::Counter& quarantined = m.counter("campaign.faults_quarantined");
  static util::MetricHistogram& fault_seconds = m.histogram("campaign.fault_seconds");
  static util::MetricHistogram& newton_per_fault = m.histogram("campaign.newton_per_fault");
  faults.add(1);
  if (outcome.verdict == FaultVerdict::kQuarantined) quarantined.add(1);
  fault_seconds.observe(outcome.elapsed_sec);
  newton_per_fault.observe(static_cast<double>(outcome.newton_iterations));
  return outcome;
}

// --- Structural fault collapsing --------------------------------------

/// Memoized result of one equivalence class's simulation. The mutex is
/// held for the duration of the representative simulation: a second
/// member of the same class arriving on another worker blocks until the
/// result is in, then copies it. Members of different classes never
/// contend.
struct GroupSlot {
  std::mutex mu;
  bool done = false;
  FaultOutcome result;  // fault/index/collapsed_into are per-member
};

/// The collapsing plan: for each fault, the index of its class
/// representative (== the fault itself for singletons) and, for
/// multi-member classes, a shared memo slot.
struct CollapsePlan {
  std::vector<std::size_t> rep;              // rep[i] == i => not folded
  std::vector<GroupSlot*> slot;              // null for singletons
  std::vector<std::unique_ptr<GroupSlot>> slots;
  std::size_t classes = 0;                   // multi-member classes
  std::size_t folded = 0;                    // members beyond the reps
};

/// Intersects the equivalence partitions of the open- and closed-loop
/// golden frontends: two faults may only collapse when they are
/// equivalent in BOTH netlists (the DC test runs on the closed-loop
/// wiring, where e.g. the coarse-loop switches connect different node
/// pairs). Membership proofs for every multi-member class are logged.
CollapsePlan build_collapse_plan(const cells::LinkFrontend& golden,
                                 const cells::LinkFrontend& golden_closed,
                                 const std::vector<StructuralFault>& faults) {
  CollapsePlan plan;
  plan.rep.resize(faults.size());
  plan.slot.resize(faults.size(), nullptr);
  for (std::size_t i = 0; i < faults.size(); ++i) plan.rep[i] = i;

  const auto open_groups = fault::collapse_equivalences(golden.netlist(), faults);
  const auto closed_groups = fault::collapse_equivalences(golden_closed.netlist(), faults);
  std::vector<std::size_t> open_gid(faults.size(), 0);
  std::vector<std::size_t> closed_gid(faults.size(), 0);
  for (std::size_t g = 0; g < open_groups.size(); ++g) {
    for (const std::size_t m : open_groups[g].members) open_gid[m] = g;
  }
  for (std::size_t g = 0; g < closed_groups.size(); ++g) {
    for (const std::size_t m : closed_groups[g].members) closed_gid[m] = g;
  }

  // Intersection: members sharing BOTH group ids form the final class.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>> final_groups;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    final_groups[{open_gid[i], closed_gid[i]}].push_back(i);
  }
  for (const auto& [key, members] : final_groups) {
    if (members.size() < 2) continue;
    const std::size_t rep = members.front();  // ascending => lowest index
    auto slot = std::make_unique<GroupSlot>();
    for (const std::size_t m : members) {
      plan.rep[m] = rep;
      plan.slot[m] = slot.get();
    }
    plan.slots.push_back(std::move(slot));
    ++plan.classes;
    plan.folded += members.size() - 1;
    // Log the membership proof (the open-loop group's argument; the
    // closed-loop partition only ever splits classes, never adds).
    const auto& proof = open_groups[key.first].proof;
    util::log_info("campaign: collapsed " + std::to_string(members.size()) +
                   " faults into #" + std::to_string(rep) +
                   (proof.empty() ? "" : " [" + proof + "]"));
  }

  auto& m = util::metrics();
  m.counter("campaign.collapse.classes").add(static_cast<std::int64_t>(plan.classes));
  m.counter("campaign.collapse.faults_folded").add(static_cast<std::int64_t>(plan.folded));
  if (plan.classes > 0) {
    util::log_info("campaign: fault collapsing folded " + std::to_string(plan.folded) +
                   " of " + std::to_string(faults.size()) + " faults into " +
                   std::to_string(plan.classes) + " class representatives");
  }
  return plan;
}

/// simulate_fault with collapse memoization: the first member of a
/// multi-member class to arrive simulates it; every other member copies
/// the bit-identical result (equivalent faulted netlists differ only in
/// device names, which stamp nothing) and records the representative in
/// collapsed_into. Per-fault work units (progress calls) are preserved
/// exactly.
FaultOutcome simulate_with_collapse(const FaultSimContext& ctx, const CollapsePlan* plan,
                                    const StructuralFault& f, std::size_t index,
                                    std::size_t worker) {
  GroupSlot* slot = (plan != nullptr) ? plan->slot[index] : nullptr;
  if (slot == nullptr) return simulate_fault(ctx, f, index, worker);

  std::lock_guard<std::mutex> lk(slot->mu);
  if (!slot->done) {
    slot->result = simulate_fault(ctx, f, index, worker);
    slot->done = true;
    FaultOutcome outcome = slot->result;
    if (plan->rep[index] != index) outcome.collapsed_into = plan->rep[index];
    return outcome;
  }
  const Clock::time_point t0 = Clock::now();
  FaultOutcome outcome = slot->result;
  outcome.fault = f;
  outcome.index = index;
  if (plan->rep[index] != index) outcome.collapsed_into = plan->rep[index];
  outcome.elapsed_sec = seconds_since(t0);  // the fold is (nearly) free
  return outcome;
}

}  // namespace

CampaignReport run_campaign(const cells::LinkFrontend& golden, const CampaignOptions& opts) {
  CampaignReport report;
  util::TraceSpan campaign_span("run_campaign", "campaign");
  const Clock::time_point campaign_start = Clock::now();

  const auto vdd = *golden.netlist().find_node("vdd");
  auto faults = fault::enumerate_structural_faults(golden.netlist(), opts.prefixes,
                                                 fault::test_circuitry_prefixes());
  if (opts.max_faults != 0 && faults.size() > opts.max_faults) faults.resize(opts.max_faults);
  campaign_span.arg("faults", static_cast<double>(faults.size()));

  // The DC test runs with the coarse loop closed (mission-mode DC
  // operating point: Vc regulated at the window edge, strong pump and
  // window comparator active). Scan and BIST need the pump gates
  // drivable and run on the open-loop frontend.
  cells::LinkFrontendSpec closed_spec = golden.spec();
  closed_spec.close_coarse_loop = true;
  util::TraceSpan ref_span("campaign.references", "campaign");
  const cells::LinkFrontend golden_closed(closed_spec);
  const auto vdd_closed = *golden_closed.netlist().find_node("vdd");

  // The golden machine is one more run of the stage functions, in full
  // evaluation; every fault's sub-stages are compared with its outcomes.
  // Golden-state reuse: those runs solve every stage stimulus once on
  // the healthy netlist anyway; capture those converged
  // solutions into a seed bank so every faulted solve can warm-start
  // from the matching golden operating point. The bank is written only
  // here, then frozen behind a const pointer and shared read-only by
  // every worker (see spice/seed.hpp for the immutability contract).
  std::shared_ptr<spice::SeedBank> seed_bank;
  spice::SolveHints capture_hints;
  const spice::SolveHints* ref_hints = nullptr;
  if (opts.reuse_golden) {
    seed_bank = std::make_shared<spice::SeedBank>();
    capture_hints.capture = seed_bank.get();
    ref_hints = &capture_hints;
  }

  const StageOutcome dc_golden = run_dc_test(golden_closed, {}, {}, ref_hints, true);
  const StageOutcome scan_golden =
      run_scan_test(golden, {}, {}, {}, ref_hints, true, opts.with_scan_toggle);
  BistTestReference bist_ref;
  if (opts.with_bist) {
    bist_ref = bist_test_reference(golden, {}, ref_hints);
    if (!bist_ref.valid) {
      util::log_warn("campaign: golden BIST does not pass (readout " +
                     bist_ref.outcome.marks[kSubCpBistRead] + ", verdict " +
                     bist_ref.outcome.marks[kSubBistVerdict] +
                     "); a fault's BIST detects only where its marks conflict with these "
                     "('!' conflicts with nothing)");
    }
  }
  std::array<std::string, kSubStageCount> golden_marks;
  for (const StageOutcome* g :
       std::array<const StageOutcome*, kStageCount>{&dc_golden, &scan_golden, &bist_ref.outcome}) {
    for (unsigned s = 0; s < kSubStageCount; ++s) golden_marks[s] += g->marks[s];
  }
  report.golden_observed = observed_marks(std::move(golden_marks), opts);
  ref_span.close();
  // Freeze the bank: from here on only const access, safe to share.
  const std::shared_ptr<const spice::SeedBank> frozen_seeds = seed_bank;
  if (frozen_seeds != nullptr) {
    util::log_info("campaign: golden seed bank holds " + std::to_string(frozen_seeds->size()) +
                   " operating points");
  }

  // Structural fault collapsing: partition the universe into provable
  // equivalence classes before any simulation.
  std::optional<CollapsePlan> collapse_plan;
  if (opts.collapse_faults) {
    util::TraceSpan span("campaign.collapse", "campaign");
    collapse_plan = build_collapse_plan(golden, golden_closed, faults);
  }
  const CollapsePlan* plan = collapse_plan.has_value() ? &*collapse_plan : nullptr;

  const std::size_t n_threads = util::ThreadPool::resolve_threads(opts.num_threads);
  report.exec.threads_used = n_threads;

  // One executor for every width: per-worker cloned goldens (a Netlist
  // carries a mutable index cache, so no frontend may be shared between
  // threads), dynamic work distribution via the pool, a mutex that
  // serializes the progress callback, and one outcome slot per fault
  // index whatever the completion order. One thread is the pool's
  // inline mode: no workers, every fault runs on the calling thread in
  // index order.
  util::ThreadPool pool(n_threads > 1 ? n_threads : 0);

  struct WorkerState {
    cells::LinkFrontend golden;
    cells::LinkFrontend golden_closed;
    FaultSimContext ctx;
    std::size_t simulated = 0;
    double cpu_sec = 0.0;
    long newton = 0;
  };
  std::vector<std::unique_ptr<WorkerState>> workers;
  workers.reserve(pool.worker_slots());
  for (std::size_t w = 0; w < pool.worker_slots(); ++w) {
    auto ws = std::make_unique<WorkerState>(WorkerState{golden, golden_closed, {}, 0, 0.0, 0});
    ws->ctx.golden = &ws->golden;
    ws->ctx.golden_closed = &ws->golden_closed;
    ws->ctx.vdd = vdd;
    ws->ctx.vdd_closed = vdd_closed;
    ws->ctx.dc_golden = &dc_golden;
    ws->ctx.scan_golden = &scan_golden;
    ws->ctx.bist_ref = &bist_ref;
    ws->ctx.opts = &opts;
    ws->ctx.seeds = frozen_seeds.get();
    workers.push_back(std::move(ws));
  }

  report.outcomes.resize(faults.size());
  std::mutex progress_mu;

  pool.for_each(faults.size(), [&](std::size_t i, std::size_t w) {
    WorkerState& ws = *workers[w];
    if (opts.progress) {
      std::lock_guard<std::mutex> lk(progress_mu);
      opts.progress(i, faults.size());
    }
    FaultOutcome& outcome = report.outcomes[i];
    outcome = simulate_with_collapse(ws.ctx, plan, faults[i], i, w);
    ++ws.simulated;
    ws.cpu_sec += outcome.elapsed_sec;
    ws.newton += outcome.newton_iterations;
  });

  for (const auto& ws : workers) {
    report.exec.per_worker_faults.push_back(ws->simulated);
    report.exec.fault_cpu_sec += ws->cpu_sec;
    report.exec.newton_iterations += ws->newton;
  }
  report.exec.per_worker_steals = pool.steal_counts();
  auto& steal_hist = util::metrics().histogram("campaign.steals_per_worker");
  for (const std::size_t s : report.exec.per_worker_steals) {
    report.exec.steals += s;
    steal_hist.observe(static_cast<double>(s));
  }
  util::metrics().counter("campaign.steals").add(static_cast<std::int64_t>(report.exec.steals));

  report.exec.wall_clock_sec = seconds_since(campaign_start);
  report.exec.metrics_json = util::metrics().snapshot_json();

  tally(report);
  return report;
}

CampaignReport project_report(const CampaignReport& full, unsigned kept_substages) {
  CampaignReport out;
  out.exec = full.exec;
  out.golden_observed = full.golden_observed;
  for (FaultOutcome o : full.outcomes) {
    VariantRecords kept;
    for (const SubStageRecord& r : o.record) {
      kept.add({r.run & kept_substages, r.detected & kept_substages, r.failed & kept_substages});
    }
    o.record = kept;
    if (!anomalous(o.record)) o.status = spice::SolveStatus::kConverged;
    o.verdict = classify(o);
    out.outcomes.push_back(std::move(o));
  }
  tally(out);
  return out;
}

/// Each variant's record keys: the first variant's carry no suffix, a
/// second variant's (to-VDD leak) carry "_b".
constexpr std::array<const char*, 2> kRecordKeySuffix = {"", "_b"};

std::string outcome_canonical_json(const FaultOutcome& o) {
  util::JsonObject j;
  j.set("index", o.index);
  j.set("device", o.fault.device);
  j.set("class", fault::fault_class_name(o.fault.cls));
  j.set("verdict", fault_verdict_name(o.verdict));
  j.set("status", spice::to_string(o.status));
  j.set("budget_blown", o.budget_blown);
  j.set("elapsed_sec", 0.0);  // wall clock is the one machine-dependent field
  j.set("newton_iterations", static_cast<std::int64_t>(o.newton_iterations));
  for (std::size_t v = 0; v < o.record.count; ++v) {
    const std::string suffix = kRecordKeySuffix[v];
    const SubStageRecord& r = o.record.slot[v];
    j.set("substages_run" + suffix, static_cast<std::size_t>(r.run));
    j.set("substages_detected" + suffix, static_cast<std::size_t>(r.detected));
    j.set("substages_failed" + suffix, static_cast<std::size_t>(r.failed));
  }
  j.set("observed", o.observed);
  // Only present for folded class members: keeps the line (and the
  // canonical JSONL) identical to a collapsing-off run everywhere else.
  if (o.collapsed_into.has_value()) j.set("collapsed_into", *o.collapsed_into);
  return j.str();
}

std::string report_canonical_jsonl(const CampaignReport& report) {
  std::vector<const FaultOutcome*> ordered;
  ordered.reserve(report.outcomes.size());
  for (const auto& o : report.outcomes) ordered.push_back(&o);
  std::sort(ordered.begin(), ordered.end(),
            [](const FaultOutcome* a, const FaultOutcome* b) { return a->index < b->index; });
  std::string out;
  for (const auto* o : ordered) {
    out += outcome_canonical_json(*o);
    out += '\n';
  }
  return out;
}

}  // namespace lsl::dft
