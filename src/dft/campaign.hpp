// Full structural-fault campaign over the analog link: enumerates the
// Table-I fault universe, injects each fault into a copy of the golden
// frontend, and applies the paper's three test stages (DC test, scan
// test, BIST). Under the pessimistic convention gate opens run both
// floating-gate leak variants and count as detected by a stage only if
// BOTH variants are.
//
// Survival layer: faulted netlists are exactly the inputs that make the
// solver fail, so every fault is partitioned into one of three verdicts:
//   detected    — a genuine signature mismatch on converged solves
//   undetected  — all stages converged and agreed with the golden machine
//   quarantined — the simulation never produced a trustworthy verdict
//                 (solver failure or per-fault budget blown)
// Quarantined faults are excluded from BOTH the numerator and the
// denominator of every coverage figure — counting a non-converged fault
// as "detected" would inflate coverage with faults the tester never
// actually observed. The campaign can checkpoint each outcome to a JSONL
// file and resume from it after an interruption.
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
bool fault_verdict_from_name(const std::string& name, FaultVerdict& out);

/// Per-fault simulation budgets. A fault that blows a budget is
/// quarantined instead of stalling the whole campaign.
struct CampaignBudget {
  /// Wall-clock seconds per fault (per leak variant). 0 = unlimited.
  double per_fault_sec = 0.0;
  /// Newton iterations per fault (per leak variant). 0 = unlimited.
  long max_newton_per_fault = 0;
};

/// Bit positions of FaultOutcome::stages_run: which stages ran (as
/// opposed to skipped by a blown budget, a disabled BIST, or the
/// adaptive short-circuit).
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
  /// its thread's solver scratch. Coverage reports are byte-identical (after
  /// canonical ordering) at every thread count as long as the per-fault
  /// wall-clock budget is unlimited — a wall-clock budget can time out
  /// differently under load, which is inherent, not a scheduler bug.
  ///
  /// Threading contract for the callbacks below: with num_threads != 1,
  /// `progress` and `abort_check` are invoked from worker threads but
  /// always serialized under the campaign's writer mutex (the same lock
  /// that guards checkpoint appends), so existing single-threaded
  /// callbacks stay race-free — they just must not call back into the
  /// campaign. `progress` reports each fault as a worker picks it up,
  /// before that fault runs. With num_threads == 1 the indices therefore
  /// arrive as 0, 1, ..., n-1; with more threads they arrive out of
  /// order, so treat the first argument as an identifier, not a
  /// monotone counter. Once `abort_check` returns true no further fault
  /// is reported, simulated or taken from the checkpoint.
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
  /// Gate-open handling. Default (false): the floating gate leaks toward
  /// the device bulk (NMOS -> GND, PMOS -> VDD), the physically likely
  /// level. Pessimistic (true): simulate both leak directions and count
  /// a detection only when BOTH are flagged.
  bool pessimistic_gate_opens = false;
  /// Per-fault simulation budgets (blown budget => quarantine).
  CampaignBudget budget;
  /// JSONL checkpoint file: each completed fault appends one line.
  /// Empty = no checkpointing.
  std::string checkpoint_path;
  /// Load outcomes already present in `checkpoint_path` and skip those
  /// faults instead of re-running them. Only a file that starts with
  /// this run's fingerprint header loads; any other re-runs every fault.
  bool resume = false;
  /// Progress callback (fault index, total), for long campaign runs.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Cooperative interruption: polled before each fault; returning true
  /// stops the campaign (report.complete = false). Combined with
  /// checkpointing this makes campaigns kill-and-resume safe.
  std::function<bool()> abort_check;

  // --- Incremental-engine kill switches (all default ON) ---------------
  //
  // Each mechanism is independently disableable and verdict-preserving:
  // any combination produces the identical detected / undetected /
  // quarantined partition and identical per-class Table I coverage —
  // the switches change how fast the campaign runs, never what it
  // concludes (DESIGN.md, "Why incremental fault simulation preserves
  // verdicts"). As with thread counts, the guarantee assumes unlimited
  // wall-clock/iteration budgets: a finite budget can run out at a
  // different point when the work is ordered differently, which is
  // inherent to budgets, not to the mechanisms.

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
  /// Skip the remaining stages once one stage detects. The stages always
  /// run DC -> scan -> BIST, the order of the cumulative Table-I
  /// columns. Never applied to pessimistic gate opens (their detection
  /// is an AND across leak variants, which a per-variant skip would
  /// break). Off = full evaluation: every sub-stage also runs past
  /// detections and failed solves inside its stage (run_*_test's
  /// `full_evaluation`), so FaultOutcome::observed is complete.
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
  /// variants' strings with '|'.
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
  /// Faults freshly simulated by each worker (resumed faults excluded).
  std::vector<std::size_t> per_worker_faults;
  /// Work-stealing traffic: faults each worker pulled from another
  /// worker's deque, one entry per worker slot. A single-threaded run
  /// has one slot and never steals, so it records {0}.
  std::vector<std::size_t> per_worker_steals;
  /// Sum of per_worker_steals.
  std::size_t steals = 0;
  /// Wall clock of the whole campaign run.
  double wall_clock_sec = 0.0;
  /// Sum of per-fault simulation time across freshly run faults — the
  /// serial cost of the same work.
  double fault_cpu_sec = 0.0;
  /// Newton iterations summed over freshly simulated faults (resumed
  /// outcomes excluded, like fault_cpu_sec).
  long newton_iterations = 0;
  /// Point-in-time snapshot of the process-wide util::Metrics registry
  /// taken as the campaign finished (see docs/OBSERVABILITY.md for the
  /// schema). Campaign benches embed it next to the coverage figures.
  std::string metrics_json;
  /// Effective speedup over a serial run of the same faults:
  /// fault_cpu_sec / wall_clock_sec (≈1 for the serial path). Absent
  /// when nothing was measured — a default-constructed stats object or
  /// a fully-resumed campaign that simulated zero fresh faults —
  /// instead of a misleading 0.0 or inf.
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
  /// False when an abort_check stopped the campaign before the last
  /// fault; the checkpoint file holds the completed prefix.
  bool complete = true;
  std::vector<FaultOutcome> outcomes;
  /// The golden machine's `observed`: its own stage outcomes, laid out
  /// by the same code as every fault's.
  std::string golden_observed;

  std::vector<const FaultOutcome*> undetected() const;
  std::vector<const FaultOutcome*> quarantined_faults() const;
};

CampaignReport run_campaign(const cells::LinkFrontend& golden, const CampaignOptions& opts = {});

/// The report as if only the sub-stages in `kept_substages` had run:
/// every variant's record masked, verdicts and statistics re-derived
/// (`observed` and the costs stay). For a full-evaluation run this
/// equals, in verdict partition and cumulative coverage, a run with
/// with_scan_toggle = false (drop kSubToggle) or with_bist = false (drop
/// kBistSubStages); keeping kAllSubStages returns the report itself.
CampaignReport project_report(const CampaignReport& full, unsigned kept_substages);

/// Canonical (timing-free) JSONL serialization of one outcome: the
/// checkpoint line with elapsed_sec zeroed, so two runs of the same
/// universe produce byte-identical lines regardless of machine load.
std::string outcome_canonical_json(const FaultOutcome& o);

/// Canonical JSONL of a whole report: outcomes sorted by fault index,
/// one canonical line each. Byte-identical across thread counts,
/// checkpoint orderings, and serial<->parallel resume histories — the
/// equality the differential tests and the bench's identity check
/// assert.
std::string report_canonical_jsonl(const CampaignReport& report);

}  // namespace lsl::dft
