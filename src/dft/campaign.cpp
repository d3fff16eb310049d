#include "dft/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "dft/dictionary.hpp"
#include "spice/seed.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace lsl::dft {

using fault::FaultClass;
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

struct StageResults {
  bool dc = false;
  bool scan = false;
  bool bist = false;
  bool anomalous = false;
  bool budget_blown = false;
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  long iterations = 0;
  unsigned stages_run = 0;
};

/// Folds a stage's failure status into the running worst (first failure
/// wins — later stages usually fail the same way for the same reason).
void note_status(StageResults& r, bool anomalous, spice::SolveStatus st) {
  if (!anomalous) return;
  r.anomalous = true;
  if (r.status == spice::SolveStatus::kConverged) r.status = st;
}

/// Stage identifiers in canonical order (the default execution order and
/// the tie-break order for adaptive reordering).
enum StageId { kStageDc = 0, kStageScan = 1, kStageBist = 2 };
using StageOrder = std::array<StageId, 3>;

constexpr StageOrder kCanonicalOrder = {kStageDc, kStageScan, kStageBist};

/// Stage order for one fault class: stages sorted by expected
/// detections per unit cost, descending; exact ties keep canonical
/// order. Pure function of (priors, class) — no runtime feedback — so
/// every thread, resume, and re-run orders identically.
StageOrder stage_order_for(const StagePriors& priors, FaultClass cls) {
  StagePriors::Rates rates;
  if (const auto it = priors.rates.find(cls); it != priors.rates.end()) rates = it->second;
  const std::array<double, 3> score = {
      rates.dc / (priors.cost_dc > 0.0 ? priors.cost_dc : 1.0),
      rates.scan / (priors.cost_scan > 0.0 ? priors.cost_scan : 1.0),
      rates.bist / (priors.cost_bist > 0.0 ? priors.cost_bist : 1.0),
  };
  StageOrder order = kCanonicalOrder;
  std::stable_sort(order.begin(), order.end(),
                   [&score](StageId a, StageId b) { return score[a] > score[b]; });
  return order;
}

StageResults run_stages(const cells::LinkFrontend& faulty_closed,
                        const cells::LinkFrontend& faulty, const DcTestReference& dc_ref,
                        const ScanTestReference& scan_ref, const BistTestReference& bist_ref,
                        const CampaignOptions& opts, Clock::time_point start,
                        const StageOrder& order, bool short_circuit,
                        const spice::SolveHints* hints) {
  StageResults r;

  // Remaining wall clock for this fault; every solve inside a stage gets
  // it as a hard timeout. Returns false once the budget is blown.
  const auto remaining = [&](double& left) {
    if (opts.budget.per_fault_sec <= 0.0) {
      left = 0.0;  // 0 = unlimited for the solver layer
      return true;
    }
    left = opts.budget.per_fault_sec - seconds_since(start);
    return left > 0.0;
  };
  const auto iter_budget_ok = [&]() {
    return opts.budget.max_newton_per_fault <= 0 ||
           r.iterations <= opts.budget.max_newton_per_fault;
  };

  static util::Counter& stage_skips = util::metrics().counter("campaign.stage_skips");

  spice::DcOptions solve;
  double left = 0.0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const StageId stage = order[pos];
    if (stage == kStageBist && !opts.with_bist) continue;
    if (!remaining(left) || !iter_budget_ok()) {
      r.budget_blown = true;
      return r;
    }
    solve.timeout_sec = left;
    switch (stage) {
      case kStageDc: {
        const DcTestOutcome dc = run_dc_test(faulty_closed, dc_ref, solve, hints);
        r.dc = dc.detected;
        r.iterations += dc.iterations;
        note_status(r, dc.anomalous, dc.status);
        r.stages_run |= kStageBitDc;
        break;
      }
      case kStageScan: {
        ToggleOptions toggle = opts.toggle;
        toggle.timeout_sec = left;
        const ScanTestOutcome scan = run_scan_test(faulty, scan_ref, toggle, solve, hints);
        r.scan = scan.detected;
        r.iterations += scan.iterations;
        note_status(r, scan.anomalous, scan.status);
        r.stages_run |= kStageBitScan;
        break;
      }
      case kStageBist: {
        const BistTestOutcome bist = run_bist_test(faulty, bist_ref, solve, hints);
        r.bist = bist.detected;
        r.iterations += bist.iterations;
        note_status(r, bist.anomalous, bist.status);
        r.stages_run |= kStageBitBist;
        break;
      }
    }
    // A detection in hand makes every remaining stage redundant for the
    // verdict: detected_any() already wins classification regardless of
    // what they would report, so skipping them cannot move the fault
    // between partitions (DESIGN.md).
    if (short_circuit && (r.dc || r.scan || r.bist)) {
      std::int64_t skipped = 0;
      for (std::size_t rest = pos + 1; rest < order.size(); ++rest) {
        if (order[rest] == kStageBist && !opts.with_bist) continue;
        ++skipped;
      }
      if (skipped > 0) stage_skips.add(skipped);
      break;
    }
  }
  if (!iter_budget_ok()) r.budget_blown = true;
  return r;
}

FaultVerdict classify(const FaultOutcome& o) {
  // A genuine signature mismatch is conclusive even when another stage
  // failed to solve or the budget ran out afterwards.
  if (o.detected_any()) return FaultVerdict::kDetected;
  if (o.anomalous || o.budget_blown) return FaultVerdict::kQuarantined;
  return FaultVerdict::kUndetected;
}

void account(ClassStats& s, const FaultOutcome& o) {
  if (o.verdict == FaultVerdict::kQuarantined) {
    // Quarantined faults never produced a trustworthy verdict: they are
    // excluded from the denominator, not silently counted either way.
    ++s.quarantined;
    return;
  }
  s.cum_dc.add(o.dc);
  s.cum_scan.add(o.dc || o.scan);
  s.cum_all.add(o.detected_any());
}

// --- JSONL checkpointing ---------------------------------------------

std::string outcome_to_json(const FaultOutcome& o) {
  util::JsonObject j;
  j.set("index", o.index);
  j.set("device", o.fault.device);
  j.set("class", fault::fault_class_name(o.fault.cls));
  j.set("verdict", fault_verdict_name(o.verdict));
  j.set("status", spice::to_string(o.status));
  j.set("dc", o.dc);
  j.set("scan", o.scan);
  j.set("bist", o.bist);
  j.set("anomalous", o.anomalous);
  j.set("budget_blown", o.budget_blown);
  j.set("elapsed_sec", o.elapsed_sec);
  j.set("newton_iterations", static_cast<std::int64_t>(o.newton_iterations));
  j.set("stages_run", static_cast<std::size_t>(o.stages_run));
  // Only present for folded class members: keeps the line (and the
  // canonical JSONL) identical to a collapsing-off run everywhere else.
  if (o.collapsed_into.has_value()) j.set("collapsed_into", *o.collapsed_into);
  return j.str();
}

bool outcome_from_json(const std::string& line, FaultOutcome& o) {
  util::JsonObject j;
  if (!util::JsonObject::parse(line, j)) return false;
  std::string cls;
  std::string verdict;
  std::string status;
  double elapsed = 0.0;
  double iters = 0.0;
  if (!j.get_uint("index", o.index) || !j.get_string("device", o.fault.device) ||
      !j.get_string("class", cls) || !j.get_string("verdict", verdict) ||
      !j.get_string("status", status) || !j.get_bool("dc", o.dc) ||
      !j.get_bool("scan", o.scan) || !j.get_bool("bist", o.bist) ||
      !j.get_bool("anomalous", o.anomalous) || !j.get_bool("budget_blown", o.budget_blown) ||
      !j.get_number("elapsed_sec", elapsed) || !j.get_number("newton_iterations", iters)) {
    return false;
  }
  if (!fault::fault_class_from_name(cls, o.fault.cls)) return false;
  if (!fault_verdict_from_name(verdict, o.verdict)) return false;
  if (!spice::solve_status_from_string(status, o.status)) return false;
  o.elapsed_sec = elapsed;
  o.newton_iterations = static_cast<long>(iters);
  // Optional fields (absent from pre-incremental checkpoints): keep the
  // defaults when missing so old checkpoint files still resume.
  std::size_t stages = 0;
  if (j.get_uint("stages_run", stages)) o.stages_run = static_cast<unsigned>(stages);
  std::size_t rep = 0;
  if (j.get_uint("collapsed_into", rep)) o.collapsed_into = rep;
  return true;
}

/// Loads checkpointed outcomes, keyed by fault index. Lines that fail to
/// parse (e.g. the torn tail of a killed run) or that disagree with the
/// enumerated universe are skipped with a warning — the fault simply
/// re-runs.
std::unordered_map<std::size_t, FaultOutcome> load_checkpoint(
    const std::string& path, const std::vector<StructuralFault>& faults) {
  std::unordered_map<std::size_t, FaultOutcome> done;
  for (const auto& line : util::read_lines(path)) {
    FaultOutcome o;
    if (!outcome_from_json(line, o)) {
      util::log_warn("campaign: skipping malformed checkpoint line");
      continue;
    }
    if (o.index >= faults.size() || faults[o.index].device != o.fault.device ||
        faults[o.index].cls != o.fault.cls) {
      util::log_warn("campaign: checkpoint line does not match fault universe; re-running " +
                     o.fault.describe());
      continue;
    }
    done[o.index] = std::move(o);  // later lines win
  }
  return done;
}

/// Everything one fault simulation reads. Each pool worker slot gets its
/// own instance pointing at its own cloned frontends so no netlist (with
/// its mutable index cache) is ever touched from two threads.
struct FaultSimContext {
  const cells::LinkFrontend* golden = nullptr;
  const cells::LinkFrontend* golden_closed = nullptr;
  spice::NodeId vdd = spice::kGround;
  spice::NodeId vdd_closed = spice::kGround;
  const DcTestReference* dc_ref = nullptr;
  const ScanTestReference* scan_ref = nullptr;
  const BistTestReference* bist_ref = nullptr;
  const CampaignOptions* opts = nullptr;
  /// Golden warm-start seeds, immutable and shared read-only across
  /// every worker (null when reuse_golden is off).
  const spice::SeedBank* seeds = nullptr;
  /// Per-class stage execution order (null => canonical for all).
  const std::map<FaultClass, StageOrder>* stage_order = nullptr;
};

/// Simulates one fault through all enabled stages. Deterministic given
/// the fault and context (modulo wall-clock budgets) and fully
/// self-contained: copies the goldens, injects, runs stages, classifies.
FaultOutcome simulate_fault(const FaultSimContext& ctx, const StructuralFault& f,
                            std::size_t index, std::size_t worker) {
  const CampaignOptions& opts = *ctx.opts;
  FaultOutcome outcome;
  outcome.fault = f;
  outcome.index = index;
  util::TraceSpan span("fault", "campaign");
  span.arg("index", static_cast<double>(index));
  span.arg("worker", static_cast<double>(worker));
  const Clock::time_point fault_start = Clock::now();

  StageOrder order = kCanonicalOrder;
  if (ctx.stage_order != nullptr) {
    if (const auto it = ctx.stage_order->find(f.cls); it != ctx.stage_order->end()) {
      order = it->second;
    }
  }
  // Pessimistic gate opens AND their detection bits across the two leak
  // variants: a per-variant short-circuit could zero a bit the other
  // variant needs, flipping the AND — so they always run every stage.
  const bool short_circuit = opts.adaptive_stage_order &&
                             !(f.needs_leak_variants() && opts.pessimistic_gate_opens);

  const auto run_variant = [&](OpenLeak leak) {
    cells::LinkFrontend faulty = *ctx.golden;
    cells::LinkFrontend faulty_closed = *ctx.golden_closed;
    if (!fault::inject(faulty.netlist(), f, leak, ctx.vdd) ||
        !fault::inject(faulty_closed.netlist(), f, leak, ctx.vdd_closed)) {
      util::log_error("campaign: failed to inject " + f.describe());
      return StageResults{};
    }
    spice::SolveHints hints;
    hints.seeds = ctx.seeds;
    return run_stages(faulty_closed, faulty, *ctx.dc_ref, *ctx.scan_ref, *ctx.bist_ref, opts,
                      fault_start, order, short_circuit, &hints);
  };

  // Survival guarantee: nothing a single fault does — divergence,
  // singularity, or an unexpected exception — may abort the campaign.
  try {
    if (f.needs_leak_variants() && opts.pessimistic_gate_opens) {
      // Pessimistic convention: a floating gate's level is unknowable,
      // so only faults flagged under BOTH leakage assumptions count.
      const StageResults a = run_variant(OpenLeak::kToGround);
      const StageResults b = run_variant(OpenLeak::kToVdd);
      outcome.dc = a.dc && b.dc;
      outcome.scan = a.scan && b.scan;
      outcome.bist = a.bist && b.bist;
      outcome.anomalous = a.anomalous || b.anomalous;
      outcome.budget_blown = a.budget_blown || b.budget_blown;
      outcome.status = a.anomalous ? a.status : b.status;
      outcome.newton_iterations = a.iterations + b.iterations;
      outcome.stages_run = a.stages_run | b.stages_run;
    } else {
      // Gate opens leak toward the device bulk; other opens have no
      // leak dependence (the argument is ignored).
      const OpenLeak leak = f.needs_leak_variants() ? fault::bulk_leak(ctx.golden->netlist(), f)
                                                    : OpenLeak::kToGround;
      const StageResults r = run_variant(leak);
      outcome.dc = r.dc;
      outcome.scan = r.scan;
      outcome.bist = r.bist;
      outcome.anomalous = r.anomalous;
      outcome.budget_blown = r.budget_blown;
      outcome.status = r.status;
      outcome.newton_iterations = r.iterations;
      outcome.stages_run = r.stages_run;
    }
  } catch (const std::exception& e) {
    util::log_error("campaign: exception on " + f.describe() + ": " + e.what());
    outcome.anomalous = true;
    outcome.status = spice::SolveStatus::kNonFinite;
  } catch (...) {
    util::log_error("campaign: unknown exception on " + f.describe());
    outcome.anomalous = true;
    outcome.status = spice::SolveStatus::kNonFinite;
  }

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

/// Checkpoint append with write-latency accounting — the fsync inside
/// util::append_line is the campaign's only disk dependency, so its
/// tail is worth watching (docs/OBSERVABILITY.md's walkthrough).
void checkpointed_append(const std::string& path, const FaultOutcome& outcome) {
  static util::MetricHistogram& write_seconds =
      util::metrics().histogram("campaign.checkpoint_write_seconds");
  const Clock::time_point t0 = Clock::now();
  const bool ok = util::append_line(path, outcome_to_json(outcome));
  write_seconds.observe(seconds_since(t0));
  if (!ok) {
    util::log_warn("campaign: failed to append checkpoint line to " + path);
  }
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
/// collapsed_into. Per-fault work units (progress, abort polls,
/// checkpoint lines) are preserved exactly.
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

StagePriors stage_priors_from_dictionary(const FaultDictionary& dict) {
  StagePriors priors;
  const std::string& golden = dict.golden_signature();
  // Signature layout (dictionary.cpp): DC observables are the first
  // 2 * LinkObservation::kBitCount = 20 characters, the BIST readout and
  // verdict flags are the last 6 + 4 = 10, and everything in between is
  // the scan captures (cp scan + static scan + optional toggle strobes).
  constexpr std::size_t kDcLen = 20;
  constexpr std::size_t kBistLen = 10;
  struct Tally {
    std::size_t dc_hit = 0, scan_hit = 0, bist_hit = 0, count = 0;
  };
  std::map<fault::FaultClass, Tally> tallies;
  for (const DictionaryEntry& e : dict.entries()) {
    const std::string& sig = e.signature;
    if (sig.size() != golden.size() || sig.size() < kDcLen + kBistLen) continue;
    Tally& t = tallies[e.fault.cls];
    ++t.count;
    const auto differs = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (sig[i] != golden[i]) return true;
      }
      return false;
    };
    if (differs(0, kDcLen)) ++t.dc_hit;
    if (differs(kDcLen, sig.size() - kBistLen)) ++t.scan_hit;
    if (differs(sig.size() - kBistLen, sig.size())) ++t.bist_hit;
  }
  // Laplace-smoothed detection rates: (hits + 1) / (count + 2) keeps
  // unseen classes at the uninformative 0.5 and never pins a stage to
  // exactly 0 or 1 off a small sample.
  for (const auto& [cls, t] : tallies) {
    StagePriors::Rates r;
    r.dc = static_cast<double>(t.dc_hit + 1) / static_cast<double>(t.count + 2);
    r.scan = static_cast<double>(t.scan_hit + 1) / static_cast<double>(t.count + 2);
    r.bist = static_cast<double>(t.bist_hit + 1) / static_cast<double>(t.count + 2);
    priors.rates[cls] = r;
  }
  return priors;
}

CampaignReport run_campaign(const cells::LinkFrontend& golden, const CampaignOptions& opts) {
  CampaignReport report;
  util::TraceSpan campaign_span("run_campaign", "campaign");
  const Clock::time_point campaign_start = Clock::now();

  const auto vdd = *golden.netlist().find_node("vdd");
  const std::vector<std::string> excludes =
      opts.functional_circuit_only ? fault::test_circuitry_prefixes() : std::vector<std::string>{};
  auto faults = fault::enumerate_structural_faults(golden.netlist(), opts.prefixes, excludes);
  if (opts.max_faults != 0 && faults.size() > opts.max_faults) faults.resize(opts.max_faults);
  campaign_span.arg("faults", static_cast<double>(faults.size()));

  std::unordered_map<std::size_t, FaultOutcome> done;
  if (opts.resume && !opts.checkpoint_path.empty()) {
    util::TraceSpan span("campaign.load_checkpoint", "campaign");
    done = load_checkpoint(opts.checkpoint_path, faults);
    if (!done.empty()) {
      util::log_info("campaign: resumed " + std::to_string(done.size()) + "/" +
                     std::to_string(faults.size()) + " faults from checkpoint");
    }
  }

  // The DC test runs with the coarse loop closed (mission-mode DC
  // operating point: Vc regulated at the window edge, strong pump and
  // window comparator active). Scan and BIST need the pump gates
  // drivable and run on the open-loop frontend.
  cells::LinkFrontendSpec closed_spec = golden.spec();
  closed_spec.close_coarse_loop = true;
  util::TraceSpan ref_span("campaign.references", "campaign");
  const cells::LinkFrontend golden_closed(closed_spec);
  const auto vdd_closed = *golden_closed.netlist().find_node("vdd");

  // Golden-state reuse: the reference builders solve every stage
  // stimulus once on the healthy netlist anyway; capture those converged
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

  const DcTestReference dc_ref = dc_test_reference(golden_closed, ref_hints);
  ScanTestReference scan_ref =
      scan_test_reference(golden, opts.with_scan_toggle, opts.toggle, ref_hints);
  BistTestReference bist_ref;
  if (opts.with_bist) {
    bist_ref = bist_test_reference(golden, {}, ref_hints);
    if (!bist_ref.valid) {
      util::log_warn("campaign: golden BIST reference does not pass; BIST detections disabled");
    }
  }
  ref_span.close();
  // Freeze the bank: from here on only const access, safe to share.
  const std::shared_ptr<const spice::SeedBank> frozen_seeds = seed_bank;
  if (frozen_seeds != nullptr) {
    util::log_info("campaign: golden seed bank holds " + std::to_string(frozen_seeds->size()) +
                   " operating points");
  }

  // Adaptive stage ordering: one fixed order per fault class, computed
  // up front from the priors. Because nothing feeds back at runtime the
  // schedule is identical across thread counts and resumes.
  std::map<FaultClass, StageOrder> order_map;
  if (opts.adaptive_stage_order) {
    for (const FaultClass cls : fault::kAllFaultClasses) {
      order_map[cls] = stage_order_for(opts.priors, cls);
    }
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
  // threads), dynamic work distribution via the pool, a single
  // mutex-guarded funnel for checkpoint appends and user callbacks, and
  // a merge ordered by fault index regardless of completion order. One
  // thread is the pool's inline mode: no workers, every fault runs on
  // the calling thread in index order.
  util::ThreadPool pool(n_threads > 1 ? n_threads : 0);

  struct WorkerState {
    cells::LinkFrontend golden;
    cells::LinkFrontend golden_closed;
    FaultSimContext ctx;
    std::size_t fresh = 0;
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
    ws->ctx.dc_ref = &dc_ref;
    ws->ctx.scan_ref = &scan_ref;
    ws->ctx.bist_ref = &bist_ref;
    ws->ctx.opts = &opts;
    ws->ctx.seeds = frozen_seeds.get();
    ws->ctx.stage_order = opts.adaptive_stage_order ? &order_map : nullptr;
    workers.push_back(std::move(ws));
  }

  std::vector<std::optional<FaultOutcome>> slots(faults.size());
  std::mutex writer_mu;  // checkpoint funnel + callback serialization
  std::atomic<bool> aborted{false};

  pool.for_each(faults.size(), [&](std::size_t i, std::size_t w) {
    if (aborted.load(std::memory_order_relaxed)) return;
    WorkerState& ws = *workers[w];
    if (opts.progress) {
      std::lock_guard<std::mutex> lk(writer_mu);
      opts.progress(i, faults.size());
    }
    if (const auto it = done.find(i); it != done.end()) {
      slots[i] = it->second;
      return;
    }
    if (opts.abort_check) {
      std::lock_guard<std::mutex> lk(writer_mu);
      if (opts.abort_check()) {
        aborted.store(true, std::memory_order_relaxed);
        return;
      }
    }
    FaultOutcome outcome = simulate_with_collapse(ws.ctx, plan, faults[i], i, w);
    ++ws.fresh;
    ws.cpu_sec += outcome.elapsed_sec;
    ws.newton += outcome.newton_iterations;
    if (!opts.checkpoint_path.empty()) {
      std::lock_guard<std::mutex> lk(writer_mu);
      checkpointed_append(opts.checkpoint_path, outcome);
    }
    slots[i] = std::move(outcome);
  });

  report.complete = !aborted.load();
  {
    util::TraceSpan merge_span("campaign.merge", "campaign");
    for (auto& slot : slots) {
      if (slot.has_value()) report.outcomes.push_back(std::move(*slot));
    }
  }
  for (const auto& ws : workers) {
    report.exec.per_worker_faults.push_back(ws->fresh);
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

  // Statistics are recomputed from the index-ordered outcome list —
  // resumed runs and runs at any thread count therefore produce
  // identical reports for identical outcome sets.
  for (const FaultOutcome& o : report.outcomes) {
    if (o.anomalous) ++report.anomalous;
    if (o.verdict == FaultVerdict::kQuarantined) ++report.quarantined;
    account(report.per_class[o.fault.cls], o);
    account(report.total, o);
  }
  return report;
}

std::string outcome_canonical_json(const FaultOutcome& o) {
  FaultOutcome canonical = o;
  canonical.elapsed_sec = 0.0;  // wall clock is the one machine-dependent field
  return outcome_to_json(canonical);
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
