// Full structural-fault campaign over the analog link: enumerates the
// Table-I fault universe, injects each fault into a copy of the golden
// frontend, and applies the paper's three test stages (DC test, scan
// test, BIST). Gate opens run with the floating gate leaking toward the
// device bulk; under the pessimistic convention the opposite leak is a
// second variant, and a stage detects only if it does in BOTH
// (dft/stage_schedule.hpp runs the variants' stages).
//
// Survival layer: faulted netlists are exactly the inputs that make the
// solver fail, so every fault is partitioned into one of three verdicts:
//   detected    — a genuine signature mismatch on converged solves
//   undetected  — all stages converged and agreed with the golden machine
//   quarantined — the simulation never produced a trustworthy verdict
//                 (solver failure or per-fault Newton budget blown)
// Quarantined faults are excluded from BOTH the numerator and the
// denominator of every coverage figure — counting a non-converged fault
// as "detected" would inflate coverage with faults the tester never
// actually observed. Nothing in a fault's simulation reads the clock,
// so every verdict is a function of the netlist and the options alone.
//
// The output carries everything needed to regenerate Table I and the
// 50.4% -> 74.3% -> 94.8% coverage progression of Section IV; a
// full-evaluation run (adaptive_stage_order off) also carries every
// sub-stage observation, of which the fault dictionary and the DFT
// ablations are projections.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cells/link_frontend.hpp"
#include "dft/bist_test.hpp"
#include "dft/dc_test.hpp"
#include "dft/scan_test.hpp"
#include "dft/stage_outcome.hpp"
#include "fault/structural.hpp"
#include "spice/solve_status.hpp"
#include "util/stats.hpp"

namespace lsl::dft {

/// Final classification of one fault's campaign run.
enum class FaultVerdict { kDetected, kUndetected, kQuarantined };

std::string fault_verdict_name(FaultVerdict v);

/// Bit positions of FaultOutcome::stages_run: which stages ran (as
/// opposed to skipped by a blown Newton budget, a disabled BIST, or the
/// adaptive schedule).
enum : unsigned {
  kStageBitDc = 1u,
  kStageBitScan = 2u,
  kStageBitBist = 4u,
};

struct CampaignOptions {
  /// Campaign executor width. Every width runs the same fault loop,
  /// util::ThreadPool::for_each: 1 (default) is the pool's inline mode
  /// (no worker threads; every fault runs on the calling thread, in
  /// index order); 0 resolves to hardware_concurrency; N > 1 runs N
  /// pool workers. Each worker slot owns cloned golden frontends and
  /// its thread's solver scratch. Coverage reports are byte-identical
  /// (after canonical ordering) at every thread count, with or without
  /// a Newton budget.
  ///
  /// Threading contract for `progress`: with num_threads != 1 it is
  /// invoked from worker threads but always serialized under one
  /// campaign mutex, so a single-threaded callback stays race-free — it
  /// just must not call back into the campaign. It reports each fault
  /// as a worker picks it up, before that fault runs. With
  /// num_threads == 1 the indices therefore arrive as 0, 1, ..., n-1;
  /// with more threads they arrive out of order, so treat the first
  /// argument as an identifier, not a monotone counter.
  std::size_t num_threads = 1;
  /// Cell prefixes included in the universe (empty = every MOSFET/cap in
  /// the frontend netlist). The DFT observers (DC-test / bias / CP-BIST
  /// comparators) are always excluded: the paper's Table I covers the
  /// functional analog circuit; the observers are Table II overhead.
  std::vector<std::string> prefixes;
  bool with_scan_toggle = true;
  bool with_bist = true;
  /// 0 = full universe; otherwise only the first N faults (fast tests).
  std::size_t max_faults = 0;
  /// Gate-open handling. Every gate open first runs with the floating
  /// gate leaking toward the device bulk (NMOS -> GND, PMOS -> VDD), the
  /// physically likely level. Pessimistic (true): the opposite leak is a
  /// second variant, and a stage detects only when it flags BOTH;
  /// project_report(..., GateOpenConvention::kBulkLeak) recovers the
  /// default convention's report from such a run.
  bool pessimistic_gate_opens = false;
  /// Newton iterations per fault (per leak variant). 0 = unlimited. A
  /// fault that blows it skips its remaining stages and, unless a stage
  /// already detected it, is quarantined instead of stalling the
  /// campaign. The count is deterministic, so the verdict is too.
  long max_newton_per_fault = 0;
  /// Progress callback (fault index, total).
  std::function<void(std::size_t, std::size_t)> progress;

  // --- Incremental-engine kill switches (all default ON) ---------------
  //
  // Each mechanism is independently disableable and verdict-preserving:
  // any combination produces the identical detected / undetected /
  // quarantined partition and identical per-class Table I coverage —
  // the switches change how fast the campaign runs, never what it
  // concludes (DESIGN.md, "Why incremental fault simulation preserves
  // verdicts"). The guarantee assumes an unlimited Newton budget: the
  // switches change how many iterations a fault takes, so a finite
  // budget can run out at a different point.

  /// Capture the golden operating points once per stage stimulus while
  /// running the golden machine, share them read-only (immutable SeedBank)
  /// across workers, and warm-start every faulted solve from the golden
  /// solution ("golden-warm-start" ladder rung; failures fall through
  /// to the unchanged cold-start ladder).
  bool reuse_golden = true;
  /// Pre-partition the universe into structural equivalence classes
  /// (fault::collapse_equivalences on BOTH frontends — open and closed
  /// wiring differ — intersected) and simulate one representative per
  /// class, fanning the bit-identical outcome out to the members
  /// (FaultOutcome::collapsed_into names the representative).
  bool collapse_faults = true;
  /// Skip the remaining stages once one stage detects in every leak
  /// variant, and run a pessimistic gate open's opposite leak only on a
  /// stage its bulk leak detected (dft/stage_schedule.hpp). The stages
  /// always run DC -> scan -> BIST, the order of the cumulative Table-I
  /// columns. Off = full evaluation: every variant runs every stage, and
  /// every sub-stage also runs past detections and failed solves inside
  /// its stage (run_*_test's `full_evaluation`), so
  /// FaultOutcome::observed is complete.
  bool adaptive_stage_order = true;

  /// Ignored: the campaign has no low-rank solve path. Kept only because
  /// the benchmark program (perfbench/) still assigns it; it goes with
  /// the next change to the benchmark.
  bool low_rank_injection = false;
};

struct FaultOutcome {
  fault::StructuralFault fault;
  std::size_t index = 0;  // position in the enumerated universe
  /// The sub-stage record of each simulated leak variant: the only
  /// stored account of what the stages did. Every stage result, the
  /// anomalous flag and the detection come from it (stage_result,
  /// anomalous and detected in dft/stage_outcome.hpp).
  VariantRecords record;
  FaultVerdict verdict = FaultVerdict::kUndetected;
  /// First failing solver status (kConverged when everything solved).
  spice::SolveStatus status = spice::SolveStatus::kConverged;
  double elapsed_sec = 0.0;
  long newton_iterations = 0;
  bool budget_blown = false;
  /// Bitmask (kStageBitDc | kStageBitScan | kStageBitBist) of the stages
  /// whose stage_result is not kNotRun, filled from `record` when a
  /// report is tallied. Kept only because the benchmark program
  /// (perfbench/) reads it.
  unsigned stages_run = 0;
  /// Every enabled sub-stage's marks in SubStage order: the fault
  /// dictionary's signature. Pessimistic gate opens join the two
  /// variants' strings with '|', the bulk leak's first.
  std::string observed;
  /// When structural fault collapsing folded this fault into an
  /// equivalence class simulated once, the representative's fault
  /// index. Unset for representatives, singletons, and collapsing-off
  /// runs; the folded outcome's record is bit-identical to what a
  /// dedicated simulation would produce (the member netlists differ
  /// only in device names, which stamp nothing).
  std::optional<std::size_t> collapsed_into;
};

struct ClassStats {
  util::Coverage cum_dc;    // cumulative: DC
  util::Coverage cum_scan;  // cumulative: DC + scan
  util::Coverage cum_all;   // cumulative: DC + scan + BIST (Table I)
  /// Faults excluded from the coverage denominators above.
  std::size_t quarantined = 0;
};

/// How the campaign actually executed: recorded into every report so
/// the benches can serialize the perf trajectory next to the coverage
/// figures.
struct CampaignExecStats {
  /// Resolved worker count (after the 0 = hardware_concurrency mapping).
  std::size_t threads_used = 1;
  /// Faults simulated by each worker.
  std::vector<std::size_t> per_worker_faults;
  /// Work-stealing traffic: faults each worker pulled from another
  /// worker's deque, one entry per worker slot. A single-threaded run
  /// has one slot and never steals, so it records {0}.
  std::vector<std::size_t> per_worker_steals;
  /// Sum of per_worker_steals.
  std::size_t steals = 0;
  /// Wall clock of the whole campaign run.
  double wall_clock_sec = 0.0;
  /// Sum of per-fault simulation time — the serial cost of the same
  /// work.
  double fault_cpu_sec = 0.0;
  /// Newton iterations summed over the simulated faults: a member folded
  /// into its collapse class's representative adds nothing, so this is
  /// the campaign's share of the campaign.newton_per_fault histogram.
  long newton_iterations = 0;
  /// Point-in-time snapshot of the process-wide util::Metrics registry
  /// taken as the campaign finished (see docs/OBSERVABILITY.md for the
  /// schema). Campaign benches embed it next to the coverage figures.
  std::string metrics_json;
  /// Effective speedup over a serial run of the same faults:
  /// fault_cpu_sec / wall_clock_sec (≈1 for the serial path). Absent
  /// when nothing was measured — a default-constructed stats object or
  /// a campaign over zero faults — instead of a misleading 0.0 or inf.
  std::optional<double> speedup() const {
    if (wall_clock_sec <= 0.0 || fault_cpu_sec <= 0.0) return std::nullopt;
    return fault_cpu_sec / wall_clock_sec;
  }
};

struct CampaignReport {
  std::map<fault::FaultClass, ClassStats> per_class;
  ClassStats total;
  CampaignExecStats exec;
  /// Faults with at least one failed solve (quarantined or not).
  std::size_t anomalous = 0;
  /// Faults excluded from coverage (solver failure or budget blown).
  std::size_t quarantined = 0;
  /// Always true: the campaign runs every fault. Kept only because the
  /// benchmark program (perfbench/) reads it; it goes with the next
  /// change to the benchmark.
  bool complete = true;
  std::vector<FaultOutcome> outcomes;
  /// The golden machine's `observed`: its own stage outcomes, laid out
  /// by the same code as every fault's.
  std::string golden_observed;

  std::vector<const FaultOutcome*> undetected() const;
  std::vector<const FaultOutcome*> quarantined_faults() const;
};

CampaignReport run_campaign(const cells::LinkFrontend& golden, const CampaignOptions& opts = {});

/// The leak variants of a gate open that a projection keeps.
enum class GateOpenConvention {
  kAsRun,     // every variant the campaign simulated
  kBulkLeak,  // the first variant only: the leak toward the device bulk
};

/// The report as if only the sub-stages in `kept_substages` had run:
/// every kept variant's record masked, verdicts and statistics
/// re-derived (the costs stay). For a full-evaluation run this equals,
/// in verdict partition and cumulative coverage, a run with
/// with_scan_toggle = false (drop kSubToggle) or with_bist = false (drop
/// kBistSubStages); keeping kAllSubStages returns the report itself.
///
/// kBulkLeak also keeps only each fault's first record and the part of
/// `observed` before its '|'. So projected, a pessimistic full-evaluation
/// report equals the bulk-leak one if the Newton budget is unlimited
/// (the default; a finite one can run out in the second variant only).
/// Of an adaptive report only the verdicts and cumulative coverage
/// agree: there a gate open's bulk leak runs on past a stage it detected
/// when the opposite leak did not.
CampaignReport project_report(const CampaignReport& full, unsigned kept_substages,
                              GateOpenConvention convention = GateOpenConvention::kAsRun);

/// Canonical (timing-free) JSON serialization of one outcome, with
/// elapsed_sec zeroed, so two runs of the same universe produce
/// byte-identical lines regardless of machine load. A line holds only
/// the record: per leak variant its substages_{run,detected,failed}
/// masks (the opposite leak's keys carry "_b"), plus the fault, verdict,
/// status, budget flag, Newton count and `observed`.
std::string outcome_canonical_json(const FaultOutcome& o);

/// Canonical JSONL of a whole report: outcomes sorted by fault index,
/// one canonical line each. Byte-identical across thread counts — the
/// equality the differential tests and the bench's identity check
/// assert.
std::string report_canonical_jsonl(const CampaignReport& report);

}  // namespace lsl::dft
