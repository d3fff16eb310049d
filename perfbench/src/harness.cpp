#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/metrics.hpp"

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

// --- MetricSet ---------------------------------------------------------

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (auto& it : items_) {
    if (it.name == name) {
      it.value = value;
      it.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::string MetricSet::json() const {
  std::string s = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i != 0) s += ", ";
    s += fmt("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", items_[i].name.c_str(),
             items_[i].value, items_[i].unit.c_str());
  }
  return s + "}";
}

void MetricSet::print(const char* title) const {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& it : items_) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", it.name.c_str(), it.value, it.unit.c_str());
  }
}

void Verdict::fail_check(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  checks_ok = false;
}

// --- SpanLog -----------------------------------------------------------

std::size_t SpanLog::begin(const char* name) {
  const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  spans_.push_back({name, now_s(), -1.0, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t id) {
  spans_[id].end = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::add(const std::string& name, double start, double end) {
  if (!enabled_) return;
  const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  spans_.push_back({name, start, end, parent});
}

double SpanLog::total_seconds(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end >= s.start) t += s.end - s.start;
  }
  return t;
}

double SpanLog::self_seconds(const std::string& name) const {
  double t = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end < s.start) continue;
    t += s.end - s.start;
    for (const auto& c : spans_) {
      if (c.parent == static_cast<long>(i) && c.end >= c.start) t -= c.end - c.start;
    }
  }
  return t;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << fmt("{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
               "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %ld}}",
               s.name.c_str(), s.start * 1e6, std::max(0.0, s.end - s.start) * 1e6, i, s.parent)
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- registry deltas ---------------------------------------------------

namespace {

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "solver.dc.solves",
      "solver.dc.newton_iterations",
      "solver.dc.failures",
      "solver.dc.sparse_solves",
      "solver.dc.dense_solves",
      "solver.dc.dense_fallbacks",
      "solver.dc.refinement_steps",
      "solver.dc.symbolic_builds",
      "solver.dc.rung.golden-warm-start",
      "solver.dc.rung.golden-gmin",
      "solver.dc.rung.newton",
      "solver.dc.rung.gmin-step",
      "solver.dc.rung.source-step",
      "solver.dc.rung.heavy-damping",
      "solver.dc.rung.relaxed-tol",
      "solver.dc.rung.exhausted",
      "solver.transient.runs",
      "solver.transient.steps_accepted",
      "solver.transient.step_halvings",
      "solver.transient.newton_iterations",
      "solver.transient.dense_fallbacks",
      "campaign.warm_start.hits",
      "campaign.warm_start.rejects",
      "campaign.smw.solves",
      "campaign.smw.fallbacks",
      "campaign.stage_skips",
      "campaign.collapse.classes",
      "campaign.collapse.faults_folded",
  };
  return names;
}

const std::vector<std::string>& histogram_names() {
  static const std::vector<std::string> names = {
      "solver.dc.solve_seconds",
      "solver.dc.stamp_seconds",
      "solver.dc.factor_seconds",
      "solver.transient.step_seconds",
  };
  return names;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

CounterSnapshot CounterSnapshot::take() {
  auto& reg = lsl::util::metrics();
  CounterSnapshot s;
  for (const auto& n : counter_names()) {
    s.values[n] = static_cast<double>(reg.counter(n).value());
  }
  for (const auto& n : histogram_names()) s.values[n + ".sum"] = reg.histogram(n).snapshot().sum;
  return s;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& before) const {
  CounterSnapshot d;
  for (const auto& [name, v] : values) d.values[name] = v - before.get(name);
  return d;
}

double CounterSnapshot::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double CounterSnapshot::newton() const {
  return get("solver.dc.newton_iterations") + get("solver.transient.newton_iterations");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> cat = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"core.link_build_s", "s"},
        {"dft.references_s", "s"},
        {"digital.good_responses_s", "s"},
        {"dft.campaign_self_s", "s"},
        {"dft.stages_run.dc", "count"},
        {"dft.stages_run.scan", "count"},
        {"dft.stages_run.bist", "count"},
        {"dft.stage_skips", "count"},
    };
    for (const char* stage :
         {"dc_observe", "cp_scan", "scan_static", "toggle", "cp_bist_read", "bist_test"}) {
      c.emplace_back(std::string("dft.") + stage + "_s", "s");
      c.emplace_back(std::string("dft.") + stage + "_newton", "count");
    }
    for (const char* cls : {"gate-open", "drain-open", "source-open", "gate-drain-short",
                            "gate-source-short", "drain-source-short", "capacitor-short"}) {
      c.emplace_back(std::string("dft.fault_class.") + cls + ".p95_ms", "ms");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"fault.universe", "count"},
        {"fault.latency_samples", "count"},
        {"fault.inject_s", "s"},
        {"cells.frontend_copy_s", "s"},
        {"fault.collapse.classes", "count"},
        {"fault.collapse.faults_folded", "count"},
        {"spice.dc.solves", "count"},
        {"spice.dc.newton_iterations", "count"},
        {"spice.dc.newton_per_solve", "iter/solve"},
        {"spice.dc.failures", "count"},
        {"spice.dc.sparse_solves", "count"},
        {"spice.dc.dense_fallbacks", "count"},
        {"spice.dc.fallback_ratio", "ratio"},
        {"spice.dc.refinement_steps", "count"},
        {"spice.dc.symbolic_builds", "count"},
        {"spice.dc.solve_s", "s"},
        {"spice.dc.stamp_s", "s"},
        {"spice.dc.factor_s", "s"},
        {"spice.dc.rung.golden-warm-start", "count"},
        {"spice.dc.rung.golden-gmin", "count"},
        {"spice.dc.rung.newton", "count"},
        {"spice.dc.rung.gmin-step", "count"},
        {"spice.dc.rung.source-step", "count"},
        {"spice.dc.rung.heavy-damping", "count"},
        {"spice.dc.rung.relaxed-tol", "count"},
        {"spice.dc.rung.exhausted", "count"},
        {"spice.transient.runs", "count"},
        {"spice.transient.steps_accepted", "count"},
        {"spice.transient.step_halvings", "count"},
        {"spice.transient.newton_iterations", "count"},
        {"spice.transient.newton_per_step", "iter/step"},
        {"spice.transient.dense_fallbacks", "count"},
        {"spice.transient.step_s", "s"},
        {"spice.warm_start.hits", "count"},
        {"spice.warm_start.rejects", "count"},
        {"spice.warm_start.hit_ratio", "ratio"},
        {"spice.smw.solves", "count"},
        {"spice.smw.fallbacks", "count"},
        {"spice.smw.reject_ratio", "ratio"},
        {"digital.coverage_curve_s", "s"},
        {"digital.compaction_s", "s"},
        {"digital.stuck_campaign_s", "s"},
        {"digital.atpg_s", "s"},
        {"digital.pattern_fault_pairs", "count"},
        {"digital.pairs_per_s", "1/s"},
        {"digital.compacted_patterns", "count"},
        {"digital.atpg_patterns", "count"},
        {"digital.atpg_undetected", "count"},
        {"digital.compact_rerun_gap", "count"},
        {"digital.atpg_rerun_gap", "count"},
        {"process.cpu_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return cat;
}

void init_per_layer(MetricSet& m) {
  for (const auto& [name, unit] : per_layer_catalogue()) m.set(name, 0.0, unit);
}

void set_registry_metrics(MetricSet& m, const CounterSnapshot& d) {
  m.set("dft.stage_skips", d.get("campaign.stage_skips"), "count");
  m.set("fault.collapse.classes", d.get("campaign.collapse.classes"), "count");
  m.set("fault.collapse.faults_folded", d.get("campaign.collapse.faults_folded"), "count");

  const double dc_solves = d.get("solver.dc.solves");
  const double dc_newton = d.get("solver.dc.newton_iterations");
  const double sparse = d.get("solver.dc.sparse_solves");
  const double fallbacks = d.get("solver.dc.dense_fallbacks");
  m.set("spice.dc.solves", dc_solves, "count");
  m.set("spice.dc.newton_iterations", dc_newton, "count");
  m.set("spice.dc.newton_per_solve", ratio(dc_newton, dc_solves), "iter/solve");
  m.set("spice.dc.failures", d.get("solver.dc.failures"), "count");
  m.set("spice.dc.sparse_solves", sparse, "count");
  m.set("spice.dc.dense_fallbacks", fallbacks, "count");
  m.set("spice.dc.fallback_ratio", ratio(fallbacks, sparse), "ratio");
  m.set("spice.dc.refinement_steps", d.get("solver.dc.refinement_steps"), "count");
  m.set("spice.dc.symbolic_builds", d.get("solver.dc.symbolic_builds"), "count");
  m.set("spice.dc.solve_s", d.get("solver.dc.solve_seconds.sum"), "s");
  m.set("spice.dc.stamp_s", d.get("solver.dc.stamp_seconds.sum"), "s");
  m.set("spice.dc.factor_s", d.get("solver.dc.factor_seconds.sum"), "s");
  for (const char* rung : {"golden-warm-start", "golden-gmin", "newton", "gmin-step",
                           "source-step", "heavy-damping", "relaxed-tol", "exhausted"}) {
    m.set(std::string("spice.dc.rung.") + rung, d.get(std::string("solver.dc.rung.") + rung),
          "count");
  }

  const double steps = d.get("solver.transient.steps_accepted");
  const double tr_newton = d.get("solver.transient.newton_iterations");
  m.set("spice.transient.runs", d.get("solver.transient.runs"), "count");
  m.set("spice.transient.steps_accepted", steps, "count");
  m.set("spice.transient.step_halvings", d.get("solver.transient.step_halvings"), "count");
  m.set("spice.transient.newton_iterations", tr_newton, "count");
  m.set("spice.transient.newton_per_step", ratio(tr_newton, steps), "iter/step");
  m.set("spice.transient.dense_fallbacks", d.get("solver.transient.dense_fallbacks"), "count");
  m.set("spice.transient.step_s", d.get("solver.transient.step_seconds.sum"), "s");

  const double hits = d.get("campaign.warm_start.hits");
  const double rejects = d.get("campaign.warm_start.rejects");
  const double smw = d.get("campaign.smw.solves");
  const double smw_fb = d.get("campaign.smw.fallbacks");
  m.set("spice.warm_start.hits", hits, "count");
  m.set("spice.warm_start.rejects", rejects, "count");
  m.set("spice.warm_start.hit_ratio", ratio(hits, hits + rejects), "ratio");
  m.set("spice.smw.solves", smw, "count");
  m.set("spice.smw.fallbacks", smw_fb, "count");
  m.set("spice.smw.reject_ratio", ratio(smw_fb, smw), "ratio");
}

// --- statistics and process figures --------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  // VmHWM is the peak of this process image. ru_maxrss would also count
  // the parent's pages from before exec (Linux keeps it across execve).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// --- host pace -----------------------------------------------------------

namespace {

/// The two kernels' fast-pace times (10th percentile of a run) on the
/// reference host, a 4-vCPU KVM guest, Release build, in a fast window.
constexpr double kReferenceLuS = 0.38e-3;
constexpr double kReferenceChaseS = 1.00e-3;
constexpr int kKernelsPerBurst = 30;

/// 60 in-place LU factorisations of a fixed diagonally dominant 40x40
/// matrix.
double time_lu_kernel() {
  constexpr int n = 40;
  static const std::vector<double> a0 = [] {
    std::vector<double> a(n * n);
    std::uint64_t x = 1;
    for (auto& v : a) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(x >> 11) / 9007199254740992.0;
    }
    for (int i = 0; i < n; ++i) a[i * n + i] += n;
    return a;
  }();
  static volatile double sink = 0.0;
  const double t0 = now_s();
  for (int rep = 0; rep < 60; ++rep) {
    std::vector<double> a = a0;
    for (int k = 0; k < n; ++k) {
      for (int i = k + 1; i < n; ++i) {
        const double f = a[i * n + k] / a[k * n + k];
        for (int j = k + 1; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      }
    }
    sink = sink + a[n * n - 1];
  }
  return now_s() - t0;
}

/// 200000 steps of a pointer chase round one random cycle over 128 KiB,
/// hashing each index.
double time_chase_kernel() {
  constexpr std::uint32_t n = 1u << 15;
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
    std::uint64_t x = 7;
    for (std::uint32_t i = n - 1; i > 0; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(perm[i], perm[(x >> 33) % (i + 1)]);
    }
    std::vector<std::uint32_t> nx(n);
    for (std::uint32_t i = 0; i < n; ++i) nx[perm[i]] = perm[(i + 1) % n];
    return nx;
  }();
  static volatile std::uint32_t sink = 0;
  const double t0 = now_s();
  std::uint32_t at = 0;
  std::uint32_t h = 0;
  for (int i = 0; i < 200000; ++i) {
    at = next[at];
    h = (h ^ at) * 2654435761u;
    if ((h & 1u) != 0) h += 3;
  }
  sink = sink + h;
  return now_s() - t0;
}

}  // namespace

void HostPace::sample() {
  for (int i = 0; i < kKernelsPerBurst; ++i) {
    lu_s_.push_back(time_lu_kernel());
    chase_s_.push_back(time_chase_kernel());
  }
}

double HostPace::slowdown() const {
  if (lu_s_.empty()) return 1.0;
  return std::sqrt(percentile(lu_s_, 0.10) / kReferenceLuS *
                   percentile(chase_s_, 0.10) / kReferenceChaseS);
}

RunTimes timed_run(double seconds, int builds, const std::function<void()>& build,
                   const std::function<Section()>& rep) {
  RunTimes t;
  const double t0 = now_s();
  do {
    for (int i = 0; i < builds; ++i) {
      const double s = now_s();
      build();
      t.setup.push_back(now_s() - s);
    }
    t.pace.sample();
    t.sections.push_back(rep());
    t.pace.sample();
  } while (now_s() - t0 + 0.5 * t.sections.back().seconds < seconds);
  return t;
}

double median_setup(int n, const std::function<void()>& build) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    const double s = now_s();
    build();
    times.push_back(now_s() - s);
  }
  return median(times);
}

double traced_overhead_pct(const std::function<double(int)>& section) {
  double t[4];
  for (int k = 0; k < 4; ++k) t[k] = section(k);
  return 100.0 * ((t[1] + t[2]) - (t[0] + t[3])) / (t[0] + t[3]);
}

void report_reps(const char* workload, const char* part, const RunTimes& t) {
  std::fprintf(stderr, "%s: %zu timed sections (s):", workload, t.sections.size());
  for (const auto& s : t.sections) std::fprintf(stderr, " %.3f", s.seconds);
  const Section* first = t.sections.empty() ? nullptr : &t.sections.front();
  std::fprintf(stderr, "; %zu set-ups; %zu %ss and %zu latency samples per section\n",
               t.setup.size(), first != nullptr ? first->parts_s.size() : 0, part,
               first != nullptr ? first->fault_ms.size() : 0);
}

namespace {

/// Each position's fastest value over the rows, which all list the same
/// parts (or faults) in the same order.
std::vector<double> fastest(const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  if (rows.empty()) return out;
  out = rows.front();
  for (const auto& r : rows) {
    for (std::size_t i = 0; i < out.size() && i < r.size(); ++i) out[i] = std::min(out[i], r[i]);
  }
  return out;
}

}  // namespace

void set_end_to_end(MetricSet& m, const RunTimes& t) {
  std::vector<std::vector<double>> parts;
  std::vector<std::vector<double>> fault_ms;
  double remainder = t.sections.empty() ? 0.0 : t.sections.front().seconds;
  for (const auto& s : t.sections) {
    parts.push_back(s.parts_s);
    fault_ms.push_back(s.fault_ms);
    double covered = 0.0;
    for (const double p : s.parts_s) covered += p;
    remainder = std::min(remainder, s.seconds - covered);
  }
  double run = std::max(0.0, remainder);
  for (const double p : fastest(parts)) run += p;
  const std::vector<double> per_fault = fastest(fault_ms);
  const double setup = median(t.setup);
  const double p50 = percentile(per_fault, 0.50);
  const double p95 = percentile(per_fault, 0.95);
  const double slowdown = t.pace.slowdown();
  std::fprintf(stderr,
               "host slowdown %.4f; before dividing by it: setup_s %.6g, run_s %.6g, "
               "fault_p50_ms %.6g, fault_p95_ms %.6g\n",
               slowdown, setup, run, p50, p95);
  m.set("setup_s", setup / slowdown, "s");
  m.set("run_s", run / slowdown, "s");
  m.set("fault_p50_ms", p50 / slowdown, "ms");
  m.set("fault_p95_ms", p95 / slowdown, "ms");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

// --- pinned references ---------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& l : lines) out << l << '\n';
  return static_cast<bool>(out);
}

long diff_lines(const std::vector<std::string>& want, const std::vector<std::string>& got,
                const std::string& what) {
  long diffs = 0;
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w != nullptr && g != nullptr && *w == *g) continue;
    if (diffs == 0) {
      std::fprintf(stderr, "%s: first difference at line %zu\n  pinned:   %s\n  produced: %s\n",
                   what.c_str(), i + 1, w != nullptr ? w->c_str() : "<none>",
                   g != nullptr ? g->c_str() : "<none>");
    }
    ++diffs;
  }
  return diffs;
}

}  // namespace perfbench
