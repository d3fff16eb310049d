// Shared pieces of the benchmark program: arguments, the result record
// (metrics + operation counts + correctness), an in-memory span log for
// traced runs, deltas of the library's util::Metrics registry, and the
// pinned-reference files.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the pinned reference files.
  std::string refs_dir = "perfbench/refs";
  /// Where a traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
  /// Re-record the pinned references instead of measuring.
  bool record = false;
};

/// Named metrics in insertion order; set() on an existing name
/// overwrites its value.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;
  void print(const char* title) const;  // human-readable, to stderr

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Operation tally and correctness of one run.
struct Verdict {
  long attempted = 0;
  long failed = 0;
  bool checks_ok = true;
  /// Records a failed whole-run check (printed to stderr).
  void fail_check(const std::string& why);
};

struct Result {
  MetricSet metrics;
  Verdict verdict;
};

/// Spans recorded around each public call the benchmark makes. Disabled
/// logs record nothing and read no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  std::size_t begin(const char* name);
  void end(std::size_t id);
  /// A completed span under the currently open one (e.g. per-fault
  /// spans reconstructed from progress callbacks).
  void add(const std::string& name, double start, double end);
  /// Summed duration minus the time covered by direct children.
  double self_seconds(const std::string& name) const;
  double total_seconds(const std::string& name) const;
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    long parent = -1;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op when the log is disabled.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log) {
    if (log_.enabled()) id_ = log_.begin(name);
  }
  ~Scope() { close(); }
  void close() {
    if (log_.enabled() && !closed_) log_.end(id_);
    closed_ = true;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_ = 0;
  bool closed_ = false;
};

/// Values of the library's solver/campaign counters and the sums of its
/// timing histograms, keyed by registry name (histogram sums get a
/// ".sum" suffix).
struct CounterSnapshot {
  std::map<std::string, double> values;
  static CounterSnapshot take();
  /// this - before, per name.
  CounterSnapshot minus(const CounterSnapshot& before) const;
  double get(const std::string& name) const;
  /// Newton iterations of both analyses.
  double newton() const;
};

/// Every per-layer metric name with its unit, in report order. A traced
/// run reports all of them; those a workload does not touch read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();
/// Pre-fills `m` with every per-layer metric at 0.
void init_per_layer(MetricSet& m);
/// Maps a registry delta onto the spice.* / dft.stage_skips /
/// fault.collapse.* per-layer metrics.
void set_registry_metrics(MetricSet& m, const CounterSnapshot& delta);

double median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set of this process image, in MB.
double peak_rss_mb();
double process_cpu_s();

/// One timed section: its wall time, the wall times of the parts it is
/// made of (each fault's simulation, or each call over the universe),
/// and its per-fault latency samples (ms).
struct Section {
  double seconds = 0.0;
  std::vector<double> parts_s;
  std::vector<double> fault_ms;
};

/// The host's pace over a run, from two benchmark-owned reference
/// kernels timed in short bursts next to every timed section: a small
/// dense LU (floating point) and a pointer chase with integer hashing
/// (dependent loads and branches). Neither calls the library, so no
/// change to the program moves them.
class HostPace {
 public:
  /// Times one burst of both kernels.
  void sample();
  /// How much slower than the reference host this run's fast pace was:
  /// the geometric mean of the two kernels' slowdowns, each taken at the
  /// 10th percentile of its times (the run's fast pace, like the fastest
  /// samples the metrics are built from).
  double slowdown() const;

 private:
  std::vector<double> lu_s_;
  std::vector<double> chase_s_;
};

/// Set-up times and timed sections of one run.
struct RunTimes {
  std::vector<double> setup;  // one per from-scratch build
  std::vector<Section> sections;
  HostPace pace;
};

/// Alternates `builds` from-scratch set-ups with one timed section until
/// about `seconds` have elapsed (stopping at the nearest section
/// boundary), so both are sampled across the whole run. The host's pace
/// is sampled right before and after every section. `rep` runs one timed
/// section; its checks run outside the times it reports.
RunTimes timed_run(double seconds, int builds, const std::function<void()>& build,
                   const std::function<Section()>& rep);

/// Times `build` `n` times from scratch and returns the median.
double median_setup(int n, const std::function<void()>& build);

/// Tracing overhead of a traced run, in percent: runs sections 0..3
/// untraced, traced, traced, untraced (the order cancels a linear drift
/// in the host's speed) and compares the two pairs' summed wall times.
/// `section(k)` runs section k and returns its wall time.
double traced_overhead_pct(const std::function<double(int)>& section);

/// Prints each section's time and the sample counts; `part` names what
/// a part is ("fault", "call").
void report_reps(const char* workload, const char* part, const RunTimes& t);

/// Adds the end-to-end metrics shared by every workload. Times are
/// divided by the run's host slowdown (see README.md, "Noise"), and all
/// but setup_s are taken at the host's fast pace:
/// - setup_s: median of the set-up times;
/// - run_s: the section's wall time with each part at its fastest over
///   the sections, plus the smallest remainder (section time not covered
///   by parts);
/// - fault_p50_ms / fault_p95_ms: percentiles across faults of each
///   fault's fastest latency over the sections;
/// - peak_rss_mb.
void set_end_to_end(MetricSet& m, const RunTimes& t);

std::vector<std::string> read_lines(const std::string& path);
bool write_lines(const std::string& path, const std::vector<std::string>& lines);
/// Compares produced lines with the pinned ones. Returns the number of
/// differing lines (missing or extra lines included) and prints the
/// first difference to stderr, prefixed by `what`.
long diff_lines(const std::vector<std::string>& want, const std::vector<std::string>& got,
                const std::string& what);

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Workloads (analog.cpp, digital.cpp).
void run_table1_campaign(const Args& args, Result& out);
void run_fault_dictionary(const Args& args, Result& out);
void run_digital_atpg(const Args& args, Result& out);
void record_table1_campaign(const Args& args);
void record_fault_dictionary(const Args& args);
void record_digital_atpg(const Args& args);

}  // namespace perfbench
