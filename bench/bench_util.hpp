#pragma once
/// \file bench_util.hpp
/// Shared plumbing for the figure-reproduction harness.
///
/// Every fig* binary prints the series of one paper figure. Default sizes
/// are chosen to finish in minutes on a laptop; set LOCMPS_FULL=1 to run
/// the paper's full scale (30 graphs, up to 128 processors). Individual
/// knobs: LOCMPS_GRAPHS (suite size), LOCMPS_MAXP (largest processor
/// count), LOCMPS_CSV=1 (mirror each table to a CSV file next to the
/// binary).
///
/// Observability: every harness binary accepts `--obs-out <path>` (or the
/// LOCMPS_OBS_OUT environment variable). When set, the binary finishes by
/// running one instrumented LoC-MPS planning + execution pass and writes
///  * <path>             — the JSONL decision trace (docs/observability.md),
///  * <path>.trace.json  — a chrome trace whose "planner" track renders
///    the scheduler's profiler spans and counter series next to the
///    schedule. Open either trace in https://ui.perfetto.dev.
/// `--report-out <path>` (LOCMPS_REPORT_OUT) additionally renders that
/// run's post-mortem as a self-contained HTML report (obs/report.hpp);
/// both flags share the single instrumented pass.
///
/// Telemetry: `--bench-out <path>` (LOCMPS_BENCH_OUT; the value `1` means
/// `BENCH_<name>.json` next to the cwd) makes the binary emit a
/// machine-readable summary of every recorded Comparison — per-scheme
/// makespan / relative-performance / SLR statistics with medians and
/// distribution-free (order-statistic) confidence intervals, scheduling
/// times, the git SHA and a UTC timestamp. scripts/bench_diff.py compares
/// two such files and flags regressions.

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "schedule/metrics.hpp"
#include "schedule/trace_export.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/synthetic.hpp"

#ifndef LOCMPS_GIT_SHA
#define LOCMPS_GIT_SHA "unknown"
#endif

namespace locmps::bench {

inline bool full_scale() {
  const char* env = std::getenv("LOCMPS_FULL");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const long v = std::atol(env);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

/// Number of random graphs per configuration (paper: 30).
inline std::size_t suite_size() {
  return env_size("LOCMPS_GRAPHS", full_scale() ? 30 : 6);
}

/// Timed planning repetitions per (graph, scheme, procs) cell
/// (LOCMPS_SCHED_REPS). Panels whose sched_seconds medians are ratcheted
/// by scripts/bench_diff.py need n >= 5 samples for the order-statistic
/// CIs to exist; planning is deterministic, so extra reps change no
/// result (core/experiment.hpp).
inline std::size_t sched_reps() { return env_size("LOCMPS_SCHED_REPS", 5); }

/// Processor-count sweep (paper: up to 128). The sweep must reach the
/// task-scalability limit (Amax <= 64) for the figures to show the paper's
/// DATA crossover, so even the quick pass goes to 128.
inline std::vector<std::size_t> proc_sweep() {
  const std::size_t maxp = env_size("LOCMPS_MAXP", 128);
  std::vector<std::size_t> ps;
  for (std::size_t p = 4; p <= maxp; p *= 2) ps.push_back(p);
  return ps;
}

inline void banner(const std::string& what) {
  std::cout << "\n=== " << what << " ===\n";
  std::cout << "(relative performance = makespan(LoC-MPS) / makespan(scheme);"
               " < 1 means worse than LoC-MPS)\n";
}

/// Destinations of the `--obs-out` decision trace and the `--report-out`
/// HTML post-mortem; each is disabled when empty.
struct ObsOut {
  std::string path;    ///< JSONL decision trace (+ chrome trace)
  std::string report;  ///< self-contained HTML report
  bool enabled() const { return !path.empty() || !report.empty(); }
};

/// Parses `--obs-out <path>` / `--obs-out=<path>` and `--report-out
/// <path>` / `--report-out=<path>` from argv, falling back to the
/// LOCMPS_OBS_OUT / LOCMPS_REPORT_OUT environment variables. Also
/// applies `--log-level <l>` / `--log-level=<l>` (every bench binary
/// parses its argv through here, so the logger flag works uniformly;
/// the LOCMPS_LOG environment variable is the fallback — obs/log.hpp).
/// Unknown arguments are ignored.
inline ObsOut parse_obs(int argc, char** argv) {
  ObsOut out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string level_spec;
    if (arg == "--obs-out" && i + 1 < argc)
      out.path = argv[++i];
    else if (arg.rfind("--obs-out=", 0) == 0)
      out.path = arg.substr(10);
    else if (arg == "--report-out" && i + 1 < argc)
      out.report = argv[++i];
    else if (arg.rfind("--report-out=", 0) == 0)
      out.report = arg.substr(13);
    else if (arg == "--log-level" && i + 1 < argc)
      level_spec = argv[++i];
    else if (arg.rfind("--log-level=", 0) == 0)
      level_spec = arg.substr(12);
    if (!level_spec.empty()) {
      obs::LogLevel level = obs::LogLevel::kInfo;
      if (obs::parse_log_level(level_spec, level))
        obs::set_log_level(level);
      else
        obs::log(obs::LogLevel::kWarn, "bench")
            << "ignoring unknown --log-level '" << level_spec << "'";
    }
  }
  if (out.path.empty())
    if (const char* env = std::getenv("LOCMPS_OBS_OUT"))
      if (*env != '\0') out.path = env;
  if (out.report.empty())
    if (const char* env = std::getenv("LOCMPS_REPORT_OUT"))
      if (*env != '\0') out.report = env;
  return out;
}

/// Runs one instrumented pass of \p scheme on \p g / \p cluster and
/// writes whatever \p obs asks for: the JSONL decision trace plus the
/// planner+schedule chrome trace, and/or the HTML post-mortem report.
/// When the trace is written it is also read back and joined into the
/// report's analysis (backfill attribution). No-op when \p obs is
/// disabled.
inline void dump_obs_run(const ObsOut& obs, const TaskGraph& g,
                         const Cluster& cluster,
                         const std::string& scheme = "loc-mps") {
  if (!obs.enabled()) return;
  obs::Profiler profiler;
  SchemeRun run;
  if (!obs.path.empty()) {
    std::ofstream jsonl(obs.path);
    if (!jsonl) {
      obs::log(obs::LogLevel::kError, "obs")
          << "cannot open " << obs.path << " for writing";
      return;
    }
    obs::JsonlSink sink(jsonl);
    run = evaluate_scheme(scheme, g, cluster, {}, &sink, {}, &profiler);
  } else {
    run = evaluate_scheme(scheme, g, cluster, {}, nullptr, {}, &profiler);
  }
  const obs::ProfileSnapshot prof = profiler.snapshot();

  if (!obs.path.empty()) {
    std::ifstream back(obs.path);
    if (back) {
      const auto records = obs::read_trace(back);
      obs::join_trace(run.analysis,
                      obs::summarize_trace(records, run.analysis.num_tasks));
    }
    const std::string trace_path = obs.path + ".trace.json";
    std::ofstream trace(trace_path);
    write_chrome_trace(trace, g, run.schedule, &run.counters, &prof);
    std::cout << "\nobs: " << scheme << " decision trace -> " << obs.path
              << " (makespan " << fmt(run.makespan) << "s, "
              << run.iterations << " LoCBS calls)\n"
              << "obs: planner+schedule chrome trace -> " << trace_path
              << " (open in https://ui.perfetto.dev)\n";
  }
  if (!obs.report.empty()) {
    std::ofstream html(obs.report);
    if (!html) {
      obs::log(obs::LogLevel::kError, "obs")
          << "cannot open " << obs.report << " for writing";
      return;
    }
    obs::ReportOptions ropt;
    ropt.title = scheme + " schedule on " +
                 std::to_string(cluster.processors) + " processors";
    ropt.subtitle = std::to_string(g.num_tasks()) + " tasks, " +
                    std::to_string(g.num_edges()) + " edges";
    ropt.profile = &prof;
    obs::write_html_report(html, g, run.schedule, run.analysis, ropt);
    std::cout << "obs: HTML post-mortem report -> " << obs.report << "\n";
  }
}

/// dump_obs_run on a default representative workload (a mid-size
/// synthetic DAG on 32 processors), for binaries whose graph suites are
/// built internally.
inline void maybe_dump_obs(const ObsOut& obs) {
  if (!obs.enabled()) return;
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 32;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  dump_obs_run(obs, g, Cluster(32, p.bandwidth_Bps));
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark telemetry (BENCH_<name>.json).

/// Accumulates every Comparison a bench binary produces, then serializes
/// them with median + order-statistic-CI statistics. One per process
/// (telemetry()); panels record into it without signature changes.
class BenchTelemetry {
 public:
  struct Panel {
    std::string label;
    Comparison c;
    /// slr[pi][si][gi]: makespan / max(CP, area) lower bound — empty when
    /// the recording site did not pass its graph suite.
    std::vector<std::vector<std::vector<double>>> slr;
  };

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  const std::string& name() const { return name_; }

  /// Parses --bench-out <path> / --bench-out=<path>, falling back to
  /// LOCMPS_BENCH_OUT (the value "1" selects ./BENCH_<name>.json).
  void init(const std::string& bench_name, int argc, char** argv) {
    name_ = bench_name;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--bench-out" && i + 1 < argc)
        path_ = argv[++i];
      else if (arg.rfind("--bench-out=", 0) == 0)
        path_ = arg.substr(12);
    }
    if (path_.empty())
      if (const char* env = std::getenv("LOCMPS_BENCH_OUT"))
        if (*env != '\0') path_ = env;
    if (path_ == "1") path_ = "BENCH_" + name_ + ".json";
  }

  /// Records one Comparison under \p label. Pass the graph suite it was
  /// computed from to additionally get SLR (makespan / lower bound)
  /// statistics; omit it when the suite is out of scope at the call site.
  void record(const std::string& label, const Comparison& c,
              std::span<const TaskGraph> graphs = {}) {
    if (!enabled()) return;
    Panel p;
    p.label = label;
    p.c = c;
    if (!graphs.empty()) {
      p.slr.assign(c.procs.size(),
                   std::vector<std::vector<double>>(c.schemes.size()));
      for (std::size_t pi = 0; pi < c.procs.size(); ++pi) {
        std::vector<double> lb(graphs.size());
        for (std::size_t gi = 0; gi < graphs.size(); ++gi)
          lb[gi] = std::max(
              critical_path_lower_bound(graphs[gi], c.procs[pi]),
              area_lower_bound(graphs[gi], c.procs[pi]));
        for (std::size_t si = 0; si < c.schemes.size(); ++si) {
          const auto& ms = c.makespan_samples[pi][si];
          if (ms.size() != graphs.size()) continue;
          std::vector<double> slr(ms.size());
          for (std::size_t gi = 0; gi < ms.size(); ++gi)
            slr[gi] = lb[gi] > 0.0 ? ms[gi] / lb[gi] : 0.0;
          p.slr[pi][si] = std::move(slr);
        }
      }
    }
    panels_.push_back(std::move(p));
  }

  /// Writes the JSON file (schema: docs/observability.md) and prints the
  /// destination. No-op when disabled or nothing was recorded.
  void write() const;

 private:
  std::string name_;
  std::string path_;
  std::vector<Panel> panels_;
};

/// The process-wide telemetry accumulator.
inline BenchTelemetry& telemetry() {
  static BenchTelemetry t;
  return t;
}

/// Convenience wrappers mirroring parse_obs / maybe_dump_obs.
inline void init_telemetry(const std::string& bench_name, int argc,
                           char** argv) {
  telemetry().init(bench_name, argc, argv);
}

inline void write_telemetry() { telemetry().write(); }

namespace detail {

inline std::string iso_utc_now() {
  // Telemetry metadata timestamp, never a scheduling input: the harness
  // stamps when a BENCH_*.json was produced. LINT-ALLOW(nondet-source)
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// {"mean":..,"median":..,"ci_lo":..,"ci_hi":..,"ci_coverage":..,"n":..}
/// — the CI is the distribution-free order-statistic interval of the
/// median (util/stats.hpp).
inline void write_stat(std::ostream& os, std::span<const double> xs) {
  const MedianCI ci = median_ci(xs);
  os << "{\"mean\":" << mean(xs) << ",\"median\":" << ci.median
     << ",\"ci_lo\":" << ci.lo << ",\"ci_hi\":" << ci.hi
     << ",\"ci_coverage\":" << ci.coverage << ",\"n\":" << xs.size() << "}";
}

}  // namespace detail

inline void BenchTelemetry::write() const {
  if (!enabled()) return;
  std::ofstream os(path_);
  if (!os) {
    obs::log(obs::LogLevel::kError, "bench")
        << "cannot open " << path_ << " for writing";
    return;
  }
  // Process-level resource footprint of the whole bench run. Peak RSS is
  // always available (getrusage); allocation totals are live only in
  // LOCMPS_PROFILE builds — alloc_tracking says which.
  const obs::AllocCounters alloc = obs::process_alloc_totals();
  os.precision(17);
  os << "{\n"
     << "  \"bench\": \"" << name_ << "\",\n"
     << "  \"git_sha\": \"" << LOCMPS_GIT_SHA << "\",\n"
     << "  \"timestamp\": \"" << detail::iso_utc_now() << "\",\n"
     << "  \"graphs\": " << suite_size() << ",\n"
     << "  \"full_scale\": " << (full_scale() ? "true" : "false") << ",\n"
     << "  \"peak_rss_bytes\": " << obs::peak_rss_bytes() << ",\n"
     << "  \"alloc_tracking\": "
     << (obs::alloc_counting_enabled() ? "true" : "false") << ",\n"
     << "  \"alloc_bytes\": " << alloc.bytes << ",\n"
     << "  \"allocs\": " << alloc.count << ",\n"
     << "  \"panels\": [";
  for (std::size_t bi = 0; bi < panels_.size(); ++bi) {
    const Panel& p = panels_[bi];
    os << (bi ? ",\n" : "\n") << "    {\"label\": \"" << p.label
       << "\", \"results\": [";
    bool first = true;
    for (std::size_t pi = 0; pi < p.c.procs.size(); ++pi) {
      for (std::size_t si = 0; si < p.c.schemes.size(); ++si) {
        os << (first ? "\n" : ",\n") << "      {\"scheme\": \""
           << p.c.schemes[si] << "\", \"procs\": " << p.c.procs[pi]
           << ", \"makespan\": ";
        detail::write_stat(os, p.c.makespan_samples[pi][si]);
        os << ", \"relative\": ";
        detail::write_stat(os, p.c.relative_samples[pi][si]);
        os << ", \"sched_seconds\": ";
        detail::write_stat(os, p.c.sched_samples[pi][si]);
        if (!p.slr.empty() && !p.slr[pi][si].empty()) {
          os << ", \"slr\": ";
          detail::write_stat(os, p.slr[pi][si]);
        }
        os << "}";
        first = false;
      }
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";
  std::cout << "\nbench: telemetry -> " << path_ << " (" << panels_.size()
            << " panel(s), git " << LOCMPS_GIT_SHA << ")\n";
}

// ---------------------------------------------------------------------------
// Phase-budget profiles (BENCH_<name>_profile.json).
//
// `--profile-out <path>` (LOCMPS_PROFILE_OUT; the value `1` means
// `BENCH_<name>_profile.json`) makes the binary finish by running a few
// self-profiled planning+execution reps of one representative workload
// and writing per-span-path wall/CPU medians with order-statistic CIs
// plus exact (deterministic) count/allocation columns. The file is the
// "phases" document scripts/bench_diff.py diffs against a committed
// baseline — the phase-budget ratchet of docs/observability.md.

/// Destination and repetition count of the phase-budget profile dump.
struct ProfileOut {
  std::string path;      ///< profile JSON; empty = disabled
  std::size_t reps = 5;  ///< self-profiled reps behind the medians
  bool enabled() const { return !path.empty(); }
};

/// Parses `--profile-out <path>` / `--profile-out=<path>` and
/// `--profile-reps <n>`, falling back to LOCMPS_PROFILE_OUT /
/// LOCMPS_PROFILE_REPS. Unknown arguments are ignored.
inline ProfileOut parse_profile_out(const std::string& bench_name, int argc,
                                    char** argv) {
  ProfileOut out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile-out" && i + 1 < argc)
      out.path = argv[++i];
    else if (arg.rfind("--profile-out=", 0) == 0)
      out.path = arg.substr(14);
    else if (arg == "--profile-reps" && i + 1 < argc)
      out.reps =
          static_cast<std::size_t>(std::max(1L, std::atol(argv[++i])));
    else if (arg.rfind("--profile-reps=", 0) == 0)
      out.reps = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.substr(15).c_str())));
  }
  if (out.path.empty())
    if (const char* env = std::getenv("LOCMPS_PROFILE_OUT"))
      if (*env != '\0') out.path = env;
  if (out.path == "1") out.path = "BENCH_" + bench_name + "_profile.json";
  out.reps = env_size("LOCMPS_PROFILE_REPS", out.reps);
  return out;
}

namespace detail {

/// Per-span-path samples across self-profiled reps. count/alloc columns
/// come from the first rep and are cross-checked against later reps:
/// they are deterministic (tests/test_self_profile.cpp), so a mismatch is
/// a bug worth a warning, not an averaged-away detail.
struct ProfilePhase {
  std::uint64_t count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

inline void collect_phases(const obs::ProfileNode& node,
                           const std::string& prefix,
                           std::vector<std::string>& order,
                           std::map<std::string, ProfilePhase>& phases) {
  for (const obs::ProfileNode& c : node.children) {
    const std::string path = prefix.empty() ? c.name : prefix + ";" + c.name;
    auto [it, inserted] = phases.try_emplace(path);
    ProfilePhase& ph = it->second;
    if (inserted) {
      order.push_back(path);
      ph.count = c.count;
      ph.alloc_bytes = c.alloc_bytes;
      ph.allocs = c.allocs;
    } else if (ph.count != c.count) {
      obs::log(obs::LogLevel::kWarn, "bench")
          << "span " << path << " count varies across reps (" << ph.count
          << " vs " << c.count << ") — determinism bug?";
    }
    ph.wall_s.push_back(c.wall_s);
    ph.cpu_s.push_back(c.cpu_s);
    collect_phases(c, path, order, phases);
  }
}

}  // namespace detail

/// Runs \p po.reps self-profiled passes of \p scheme on \p g / \p cluster
/// and writes the phase-budget profile JSON. No-op when disabled.
inline void dump_profile_run(const ProfileOut& po,
                             const std::string& bench_name,
                             const TaskGraph& g, const Cluster& cluster,
                             const std::string& scheme = "loc-mps") {
  if (!po.enabled()) return;
  std::vector<std::string> order;
  std::map<std::string, detail::ProfilePhase> phases;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, po.reps); ++rep) {
    obs::Profiler profiler;
    evaluate_scheme(scheme, g, cluster, {}, nullptr, {}, &profiler);
    const obs::ProfileSnapshot snap = profiler.snapshot();
    detail::collect_phases(snap.root, "", order, phases);
  }
  std::ofstream os(po.path);
  if (!os) {
    obs::log(obs::LogLevel::kError, "bench")
        << "cannot open " << po.path << " for writing";
    return;
  }
  os.precision(17);
  os << "{\n"
     << "  \"bench\": \"" << bench_name << "\",\n"
     << "  \"kind\": \"profile\",\n"
     << "  \"git_sha\": \"" << LOCMPS_GIT_SHA << "\",\n"
     << "  \"timestamp\": \"" << detail::iso_utc_now() << "\",\n"
     << "  \"scheme\": \"" << scheme << "\",\n"
     << "  \"reps\": " << std::max<std::size_t>(1, po.reps) << ",\n"
     << "  \"tasks\": " << g.num_tasks() << ",\n"
     << "  \"procs\": " << cluster.processors << ",\n"
     << "  \"alloc_tracking\": "
     << (obs::alloc_counting_enabled() ? "true" : "false") << ",\n"
     << "  \"phases\": [";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const detail::ProfilePhase& ph = phases.at(order[i]);
    os << (i ? ",\n" : "\n") << "    {\"path\": \"" << order[i]
       << "\", \"count\": " << ph.count << ", \"wall_s\": ";
    detail::write_stat(os, ph.wall_s);
    os << ", \"cpu_s\": ";
    detail::write_stat(os, ph.cpu_s);
    os << ", \"alloc_bytes\": " << ph.alloc_bytes
       << ", \"allocs\": " << ph.allocs << "}";
  }
  os << "\n  ]\n}\n";
  std::cout << "\nbench: phase-budget profile -> " << po.path << " ("
            << order.size() << " span path(s), "
            << std::max<std::size_t>(1, po.reps) << " rep(s))\n";
}

/// dump_profile_run on the same default representative workload as
/// maybe_dump_obs (mid-size synthetic DAG, 32 processors).
inline void maybe_dump_profile(const ProfileOut& po,
                               const std::string& bench_name) {
  if (!po.enabled()) return;
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 32;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  dump_profile_run(po, bench_name, g, Cluster(32, p.bandwidth_Bps));
}

}  // namespace locmps::bench
