/// \file inspect.cpp
/// locmps-inspect: schedule post-mortem CLI.
///
/// Plans and executes one scheme on a workload (a taskgraph v1 file or a
/// seeded synthetic DAG), runs the analytics of obs/analysis.hpp over the
/// realized schedule, and renders the result as a terminal summary and —
/// with --report-out — a self-contained HTML report (obs/report.hpp).
/// With --fault-rate, --straggler-rate or --robustness the run executes
/// instead under injected fail-stop failures, a seeded processor slowdown
/// or an ensemble of perturbations (src/faults/).
///
/// Each mode only produces its executed schedule, its analysis, the run's
/// counters, its header lines and its three-book rows (ModeRun); one tail
/// (finish) serves them all. With --obs-out the run streams the JSONL
/// decision trace; the tail reads it back once (or an existing --trace),
/// joins it into the analysis (backfill attribution) and checks each
/// quantity the mode names across three books: the counters, the trace
/// and the run's own result. Then it prints the summary, the --explain
/// and --why-critical records and writes the report.
///
/// Usage: see usage() below or `locmps-inspect --help`.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/experiment.hpp"
#include "faults/recovery.hpp"
#include "faults/robustness.hpp"
#include "graph/io.hpp"
#include "network/comm_model.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/flame.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/rundiff.hpp"
#include "schedulers/loc_mps.hpp"
#include "schedulers/registry.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

// Baked in at configure time by tools/CMakeLists.txt (git describe).
#ifndef LOCMPS_GIT_DESCRIBE
#define LOCMPS_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace locmps;

void usage(std::ostream& os) {
  os << "locmps-inspect: post-mortem analytics for one scheduled run\n"
        "\n"
        "Workload (default: one seeded synthetic DAG, Section IV-A):\n"
        "  --graph <file>         read a taskgraph v1 text file instead\n"
        "  --seed <n>             synthetic generator seed (default 20060901)\n"
        "  --ccr <x>              communication/computation ratio (default "
        "0.5)\n"
        "\n"
        "Platform and scheme:\n"
        "  --procs <n>            cluster size (default 32)\n"
        "  --bandwidth-mbps <x>   link bandwidth (default 100, fast "
        "ethernet)\n"
        "  --no-overlap           communication blocks computation\n"
        "  --scheme <name>        scheduler registry name (default "
        "loc-mps)\n"
        "\n"
        "Fault injection (uses the loc-mps planner, ignoring --scheme):\n"
        "  --fault-rate <x>       fraction of processors that fail-stop\n"
        "                         (default 0: fault-free)\n"
        "  --fault-seed <n>       fault-plan seed (default 7)\n"
        "  --fault-repair         failed processors come back after a "
        "delay\n"
        "  --fault-policy <p>     recovery policy: replan (default) or "
        "retry\n"
        "\n"
        "Performance faults (docs/fault_tolerance.md):\n"
        "  --robustness <N>       Monte-Carlo robustness mode: replay the\n"
        "                         planned schedule under N seeded\n"
        "                         perturbation ensembles and report the\n"
        "                         makespan distribution\n"
        "  --straggler-rate <k>   straggler mode: run under a seeded\n"
        "                         processor slowdown with deadline-based\n"
        "                         detection at k x the modeled time\n"
        "                         (k > 1), mitigate, and reconcile the\n"
        "                         mitigation accounting\n"
        "  --mitigation <m>       straggler mitigation: speculate "
        "(default)\n"
        "                         or replan\n"
        "  --slow-factor <x>      injected slowdown magnitude (default "
        "4)\n"
        "  --slack <f>            LoCBS slack factor >= 1: inflate\n"
        "                         reservations during placement, in every\n"
        "                         mode (default 1)\n"
        "  --gate-ratio <r>       straggler mode: exit 1 unless the\n"
        "                         recovered makespan is <= r x the clean\n"
        "                         planned makespan\n"
        "  The fault-like modes (--fault-rate, --straggler-rate,\n"
        "  --robustness) refuse --explain, --why-critical, --trace,\n"
        "  --perturb-task, --profile and --flame-out.\n"
        "\n"
        "Provenance and run diffing (docs/observability.md):\n"
        "  --explain <task>       print the task's placement decision\n"
        "                         record (repeatable; needs --obs-out or\n"
        "                         --trace)\n"
        "  --why-critical         walk the critical path printing each\n"
        "                         task's decision record and start blame\n"
        "                         (needs --obs-out or --trace)\n"
        "  --diff <A> <B>         diff two decision traces of this\n"
        "                         workload and attribute the makespan\n"
        "                         delta to ranked root-cause decisions\n"
        "                         (no scheduling run)\n"
        "  --diff-json <file>     with --diff: also write the attribution\n"
        "                         artifact as JSON\n"
        "  --perturb-task <t>     seeded divergence: task t adopts its\n"
        "                         runner-up slot in the final LoCBS pass\n"
        "                         (loc-mps, its variants, icaslb and task)\n"
        "\n"
        "Outputs:\n"
        "  --report-out <file>    write the self-contained HTML report\n"
        "  --obs-out <file>       write the JSONL decision trace, join it\n"
        "                         back and cross-check the locality "
        "totals\n"
        "  --trace <file>         join an existing JSONL trace instead\n"
        "  --profile              print the planner self-profile span "
        "tree\n"
        "                         and reconcile its harness.plan total\n"
        "                         against the measured planning time "
        "(2%)\n"
        "  --flame-out <file>     write collapsed-stack flamegraph text\n"
        "                         (flamegraph.pl / speedscope input)\n"
        "  --flame-weight <w>     flamegraph weight: wall (default), "
        "cpu\n"
        "                         or alloc\n"
        "  --log-level <l>        diagnostics level: error, warn, info\n"
        "                         (default) or debug; also LOCMPS_LOG "
        "env\n"
        "  --title <text>         report title\n"
        "  --quiet                suppress the terminal summary\n"
        "  --version              print the build's git describe and exit\n"
        "  --help                 this text\n";
}

struct Options {
  std::string graph_file;
  std::uint64_t seed = 20060901;
  double ccr = 0.5;
  std::size_t procs = 32;
  double bandwidth_mbps = 100.0;
  bool overlap = true;
  std::string scheme = "loc-mps";
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 7;
  bool fault_repair = false;
  std::string fault_policy = "replan";
  std::string report_out;
  std::string obs_out;
  std::string trace_in;
  bool profile = false;
  std::string flame_out;
  obs::FlameWeight flame_weight = obs::FlameWeight::kWallMicros;
  std::string title;
  bool quiet = false;
  std::vector<TaskId> explain;
  bool why_critical = false;
  std::string diff_a;
  std::string diff_b;
  std::string diff_json;
  TaskId perturb_task = kNoTask;
  std::size_t robustness = 0;     // Monte-Carlo samples; 0 = mode off
  double straggler_rate = 0.0;    // detection threshold k; 0 = mode off
  std::string mitigation = "speculate";
  double slow_factor = 4.0;
  double slack = 1.0;
  double gate_ratio = 0.0;        // 0 = no gate
};

/// Shorthand for this tool's error diagnostics (obs/log.hpp).
obs::LogLine err() { return obs::log(obs::LogLevel::kError, "inspect"); }

/// Reads a --flame-weight value into \p w; false, after the error, when
/// it names no weight.
bool parse_flame_weight(const std::string& v, obs::FlameWeight& w) {
  if (v != "wall" && v != "cpu" && v != "alloc") {
    err() << "--flame-weight must be 'wall', 'cpu' or 'alloc'";
    return false;
  }
  w = v == "wall"  ? obs::FlameWeight::kWallMicros
      : v == "cpu" ? obs::FlameWeight::kCpuMicros
                   : obs::FlameWeight::kAllocBytes;
  return true;
}

/// Applies a --log-level value; false, after the error, when it names no
/// level.
bool apply_log_level(const std::string& v) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  if (!obs::parse_log_level(v, level)) {
    err() << "--log-level must be error, warn, info or debug";
    return false;
  }
  obs::set_log_level(level);
  return true;
}

/// False, after the error and the usage text, for an unknown argument.
bool unknown(const std::string& a) {
  err() << "unknown argument '" << a << "' (--help for usage)";
  usage(std::cerr);
  return false;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    }
    if (a == "--version") {
      std::cout << "locmps-inspect " << LOCMPS_GIT_DESCRIBE << "\n";
      std::exit(0);
    }
    // Stores the value that follows flag `a` in `out`, as text or as a
    // number of out's type; false, after the error, when there is none.
    auto value = [&](auto& out) {
      if (i + 1 >= argc) {
        err() << a << " needs a value";
        return false;
      }
      const char* v = argv[++i];
      using T = std::remove_reference_t<decltype(out)>;
      if constexpr (std::is_same_v<T, std::string>)
        out = v;
      else if constexpr (std::is_floating_point_v<T>)
        out = std::strtod(v, nullptr);
      else
        out = static_cast<T>(std::strtoull(v, nullptr, 10));
      return true;
    };
    std::string w;
    bool ok = true;
    if (a == "--graph") ok = value(o.graph_file);
    else if (a == "--seed") ok = value(o.seed);
    else if (a == "--ccr") ok = value(o.ccr);
    else if (a == "--procs") ok = value(o.procs);
    else if (a == "--bandwidth-mbps") ok = value(o.bandwidth_mbps);
    else if (a == "--no-overlap") o.overlap = false;
    else if (a == "--scheme") ok = value(o.scheme);
    else if (a == "--fault-rate") ok = value(o.fault_rate);
    else if (a == "--fault-seed") ok = value(o.fault_seed);
    else if (a == "--fault-repair") o.fault_repair = true;
    else if (a == "--fault-policy") ok = value(o.fault_policy);
    else if (a == "--report-out") ok = value(o.report_out);
    else if (a == "--obs-out") ok = value(o.obs_out);
    else if (a == "--trace") ok = value(o.trace_in);
    else if (a == "--profile") o.profile = true;
    else if (a == "--flame-out") ok = value(o.flame_out);
    else if (a == "--flame-weight")
      ok = value(w) && parse_flame_weight(w, o.flame_weight);
    else if (a == "--log-level") ok = value(w) && apply_log_level(w);
    else if (a == "--title") ok = value(o.title);
    else if (a == "--quiet") o.quiet = true;
    else if (a == "--explain") ok = value(o.explain.emplace_back());
    else if (a == "--why-critical") o.why_critical = true;
    else if (a == "--diff") ok = value(o.diff_a) && value(o.diff_b);
    else if (a == "--diff-json") ok = value(o.diff_json);
    else if (a == "--perturb-task") ok = value(o.perturb_task);
    else if (a == "--robustness") ok = value(o.robustness);
    else if (a == "--straggler-rate") ok = value(o.straggler_rate);
    else if (a == "--mitigation") ok = value(o.mitigation);
    else if (a == "--slow-factor") ok = value(o.slow_factor);
    else if (a == "--slack") ok = value(o.slack);
    else if (a == "--gate-ratio") ok = value(o.gate_ratio);
    else ok = unknown(a);
    if (!ok) return std::nullopt;
  }

  auto reject = [](const char* why) {
    err() << why;
    return std::nullopt;
  };
  if (o.procs == 0) return reject("--procs must be positive");
  if (o.fault_rate < 0.0 || o.fault_rate > 1.0)
    return reject("--fault-rate must be in [0, 1]");
  if (o.fault_policy != "replan" && o.fault_policy != "retry")
    return reject("--fault-policy must be 'replan' or 'retry'");
  // 0.0 is the exact flag-unset sentinel. LINT-ALLOW(float-eq)
  if (o.straggler_rate != 0.0 && o.straggler_rate <= 1.0)
    return reject(
        "--straggler-rate must be > 1 (detection fires at k x the modeled "
        "time)");
  if (o.mitigation != "speculate" && o.mitigation != "replan")
    return reject("--mitigation must be 'speculate' or 'replan'");
  if (o.slow_factor < 1.0) return reject("--slow-factor must be >= 1");
  if (o.slack < 1.0) return reject("--slack must be >= 1");
  if (o.gate_ratio < 0.0) return reject("--gate-ratio must be positive");
  // 0.0 is the exact flag-unset sentinel. LINT-ALLOW(float-eq)
  if (o.gate_ratio > 0.0 && o.straggler_rate == 0.0)
    return reject("--gate-ratio needs --straggler-rate");
  if (o.robustness > 0 && o.straggler_rate > 0.0)
    return reject("--robustness and --straggler-rate are separate modes");
  // The fault-like modes read no decision records (their plans are
  // replanned or re-timed), plan without the perturb hook and attach no
  // profiler: refuse the flags they would drop. --diff runs no schedule
  // and takes the same workload flags as the trace run it compares.
  const char* mode = o.robustness > 0         ? "--robustness"
                     : o.straggler_rate > 0.0 ? "--straggler-rate"
                     : o.fault_rate > 0.0     ? "--fault-rate"
                                              : nullptr;
  const char* dropped = !o.explain.empty()          ? "--explain"
                        : o.why_critical            ? "--why-critical"
                        : !o.trace_in.empty()       ? "--trace"
                        : o.perturb_task != kNoTask ? "--perturb-task"
                        : o.profile                 ? "--profile"
                        : !o.flame_out.empty()      ? "--flame-out"
                                                    : nullptr;
  if (mode != nullptr && dropped != nullptr && o.diff_a.empty()) {
    err() << dropped << " does not apply to the " << mode << " mode";
    return std::nullopt;
  }
  if ((!o.explain.empty() || o.why_critical) && o.obs_out.empty() &&
      o.trace_in.empty())
    return reject(
        "--explain/--why-critical need a decision trace: add --obs-out "
        "<file> or --trace <file>");
  if (!o.diff_json.empty() && o.diff_a.empty())
    return reject("--diff-json needs --diff <A> <B>");
  return o;
}

TaskGraph load_workload(const Options& o) {
  if (!o.graph_file.empty()) {
    std::ifstream in(o.graph_file);
    if (!in)
      throw std::runtime_error("cannot open graph file: " + o.graph_file);
    return read_text(in);
  }
  SyntheticParams p;
  p.ccr = o.ccr;
  p.max_procs = std::max<std::size_t>(o.procs, 32);
  p.bandwidth_Bps = o.bandwidth_mbps * 1e6 / 8.0;
  Rng rng(o.seed);
  return make_synthetic_dag(p, rng);
}

/// The --obs-out JSONL trace, opened once for whichever mode runs. The
/// modes attach sink() to their runs; the run's context holds the sink's
/// address, so a TraceOut neither copies nor moves.
class TraceOut {
 public:
  TraceOut() = default;
  TraceOut(const TraceOut&) = delete;
  TraceOut& operator=(const TraceOut&) = delete;

  /// Opens \p path (nothing when empty); false, after the error, when it
  /// cannot be opened.
  bool open(const std::string& path) {
    if (path.empty()) return true;
    jsonl_.open(path);
    if (!jsonl_) {
      err() << "cannot open " << path;
      return false;
    }
    sink_.emplace(jsonl_);
    return true;
  }

  /// The sink to attach, or null without --obs-out.
  obs::EventSink* sink() { return sink_ ? &*sink_ : nullptr; }

  /// \p met's counters with the lines the sink dropped folded into
  /// "obs.trace.dropped", for the modes that meter their own run (the
  /// plain mode's harness, evaluate_scheme, folds its own).
  obs::MetricsSnapshot counters(obs::MetricsRegistry& met) const {
    if (sink_ && sink_->dropped() > 0)
      met.add("obs.trace.dropped", static_cast<double>(sink_->dropped()));
    return met.snapshot();
  }

  /// Flushes and closes the trace so it can be read back.
  void close() {
    sink_.reset();
    jsonl_.close();
  }

 private:
  std::ofstream jsonl_;
  std::optional<obs::JsonlSink> sink_;
};

/// True when \p x agrees with \p y and \p z to 1e-9 of the largest.
bool agree(double x, double y, double z) {
  const double tol =
      1e-9 * std::max({1.0, std::fabs(x), std::fabs(y), std::fabs(z)});
  return std::fabs(x - y) <= tol && std::fabs(x - z) <= tol;
}

/// Reconciles quantities across three independent books: the metrics
/// counter, the decision trace, and the run's own `third` book. A
/// disagreement prints and clears `ok`; when every row agrees the tail
/// prints `agreed`.
struct Books {
  const char* third = "";
  std::string agreed;
  bool ok = true;

  void operator()(const char* what, double counter, double traced,
                  double other) {
    if (!agree(counter, traced, other)) {
      err() << what << " mismatch: counter " << counter << ", trace "
            << traced << ", " << third << " " << other;
      ok = false;
    }
  }
};

/// What a mode hands the shared tail (finish): its executed schedule, the
/// schedule's analysis, the run's counters, the lines it prints before the
/// summary, its three-book rows and its report's titles.
struct ModeRun {
  Schedule schedule;
  obs::ScheduleAnalysis analysis;
  obs::MetricsSnapshot counters;
  /// Printed after the reconciliation, before the summary.
  std::string intro;
  /// The mode's rows, checked against the digest of the run's trace.
  std::function<void(Books&, const obs::TraceSummary&)> reconcile;
  std::string title;  ///< the report's title unless --title
  std::string subtitle;
  // The plain mode's extras: its report links each slice to the task's
  // decision record, and its planner profile reconciles with the
  // measured planning time.
  bool why_panel = false;
  obs::ProfileSnapshot profile;
  double planning_s = 0.0;
};

/// `--diff A B`: aligns two decision traces of this workload's graph,
/// classifies every divergence and attributes the makespan delta to
/// ranked root-cause decisions (obs/rundiff.hpp). No scheduling run.
/// Returns the process exit code.
int run_diff_mode(const Options& o, const TaskGraph& g) {
  auto load = [&](const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read trace " + path);
    return obs::run_view(obs::read_trace(in), g.num_tasks());
  };
  const obs::RunView a = load(o.diff_a);
  const obs::RunView b = load(o.diff_b);
  const obs::RunDiff d = obs::diff_runs(g, a, b);
  obs::print_diff(std::cout, g, a, b, d);
  if (!o.diff_json.empty()) {
    std::ofstream out(o.diff_json);
    if (!out) {
      err() << "cannot open " << o.diff_json;
      return 2;
    }
    obs::write_diff_json(out, g, a, b, d);
    if (!o.quiet)
      std::cout << "attribution     " << o.diff_json << "\n";
  }
  return 0;
}

/// The tail every mode shares. Reads the run's JSONL trace (--obs-out,
/// else --trace) once, joins it into the analysis (backfill attribution)
/// and checks the mode's books against it; then prints the summary, the
/// --explain and --why-critical records, the --profile tree and
/// --flame-out stacks, and writes the --report-out report. Returns the
/// process exit code.
int finish(const Options& o, const TaskGraph& g, ModeRun& run,
           TraceOut& trace) {
  trace.close();
  Books book;
  // Final decision per task (last "locbs.decision" record), feeding
  // --explain, --why-critical and the report's "Why" panel.
  std::vector<obs::PlacementDecision> decisions;
  const std::string& path = !o.obs_out.empty() ? o.obs_out : o.trace_in;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      err() << "cannot read trace " << path;
      book.ok = false;
    } else {
      const auto records = obs::read_trace(in);
      const auto digest = obs::summarize_trace(records, g.num_tasks());
      obs::join_trace(run.analysis, digest);
      run.reconcile(book, digest);
      if (book.ok && !o.quiet)
        std::cout << "reconciled      " << book.agreed << "\n";
      decisions = obs::final_decisions(records, g.num_tasks());
    }
  }

  if (!o.quiet)
    std::cout << run.intro << obs::text_report(run.analysis, &run.counters);

  auto decision = [&](TaskId t) {
    return t < decisions.size() ? decisions[t] : obs::PlacementDecision{};
  };
  for (TaskId t : o.explain) {
    if (t >= g.num_tasks()) {
      err() << "--explain task " << t << " out of range (graph has "
            << g.num_tasks() << " tasks)";
      return 2;
    }
    std::cout << "\nwhy task " << t << ":\n";
    obs::print_decision(std::cout, g, decision(t));
  }

  if (o.why_critical) {
    std::cout << "\nwhy-critical: decision records along the critical "
                 "path (source -> makespan task)\n";
    for (const obs::CriticalPathStep& st : run.analysis.critical_path.steps) {
      std::cout << "\n-- compute " << fmt(st.compute_s, 4) << " s";
      if (st.redist_s > 0.0)
        std::cout << ", redistribution in " << fmt(st.redist_s, 4) << " s";
      if (st.wait_s > 0.0) std::cout << ", wait " << fmt(st.wait_s, 4) << " s";
      std::cout << "\n";
      for (const obs::TaskBlame& b : run.analysis.blame) {
        if (b.task != st.task || b.delay_s <= 0.0 || b.culprit == kNoTask)
          continue;
        std::cout << "   start delayed " << fmt(b.delay_s, 4)
                  << " s by task " << b.culprit << " ("
                  << g.task(b.culprit).name << ")\n";
        break;
      }
      obs::print_decision(std::cout, g, decision(st.task));
    }
  }

  bool profile_ok = true;
  if (o.profile) {
    std::cout << "\nplanner self-profile (span taxonomy: "
                 "docs/observability.md)\n";
    obs::write_profile_tree(std::cout, run.profile);
    if (run.profile.intervals_dropped > 0)
      std::cout << "dropped         " << run.profile.intervals_dropped
                << " span intervals (the log keeps "
                << obs::Profiler::kMaxIntervals
                << " per span node; the counts above are complete)\n";
    const obs::ProfileNode* plan = run.profile.find("harness.plan");
    if (plan == nullptr) {
      err() << "profile has no harness.plan span";
      profile_ok = false;
    } else {
      // Acceptance check: the span tree must reconcile with the
      // harness's own scheduling-time measurement within 2%.
      const double measured = run.planning_s;
      const double diff = std::fabs(plan->wall_s - measured);
      const double tol = 0.02 * std::max(measured, 1e-9);
      if (diff > tol) {
        err() << "profile/stopwatch mismatch: harness.plan "
              << fmt(plan->wall_s, 6) << " s vs scheduling time "
              << fmt(measured, 6) << " s (diff " << fmt(diff, 6)
              << " s > 2%)";
        profile_ok = false;
      } else {
        std::cout << "reconciled      harness.plan " << fmt(plan->wall_s, 6)
                  << " s == planning " << fmt(measured, 6)
                  << " s (within 2%)\n";
      }
    }
  }

  if (!o.flame_out.empty()) {
    std::ofstream flame(o.flame_out);
    if (!flame) {
      err() << "cannot open " << o.flame_out;
      return 2;
    }
    obs::write_collapsed_stacks(flame, run.profile, o.flame_weight);
    if (!o.quiet)
      std::cout << "flamegraph      " << o.flame_out
                << " (collapsed stacks; fold with flamegraph.pl or "
                   "load in speedscope)\n";
  }

  if (!o.report_out.empty()) {
    obs::ReportOptions ro;
    ro.title = !o.title.empty() ? o.title : run.title;
    ro.subtitle = run.subtitle;
    if (!run.profile.empty()) ro.profile = &run.profile;
    if (run.why_panel && decisions.size() == g.num_tasks())
      ro.decisions = &decisions;
    ro.counters = &run.counters;
    std::ofstream html(o.report_out);
    if (!html) {
      err() << "cannot open " << o.report_out;
      return 2;
    }
    obs::write_html_report(html, g, run.schedule, run.analysis, ro);
    if (!o.quiet) std::cout << "report          " << o.report_out << "\n";
  }
  return book.ok && profile_ok ? 0 : 1;
}

/// The plain mode: plans and executes --scheme through the evaluation
/// harness (traced with --obs-out, profiled with --profile, --flame-out or
/// --report-out) and checks the analyzer's remote volume against the sim
/// counters and the trace.
int run_plain_mode(const Options& o, const TaskGraph& g,
                   const Cluster& cluster, TraceOut& trace) {
  SchedulerOptions sched_opt;
  sched_opt.perturb_task = o.perturb_task;
  sched_opt.slack_factor = o.slack;
  std::optional<obs::Profiler> profiler;
  if (o.profile || !o.flame_out.empty() || !o.report_out.empty())
    profiler.emplace();
  SchemeRun sr = evaluate_scheme(o.scheme, g, cluster, {}, trace.sink(),
                                 sched_opt, profiler ? &*profiler : nullptr);

  ModeRun run;
  run.schedule = std::move(sr.schedule);
  run.analysis = std::move(sr.analysis);
  run.counters = std::move(sr.counters);
  if (profiler) run.profile = profiler->snapshot();
  run.planning_s = sr.scheduling_seconds;
  run.why_panel = true;
  std::ostringstream intro;
  intro << "scheme          " << o.scheme << " on " << o.procs << " procs ("
        << fmt(o.bandwidth_mbps, 0) << " Mbps, "
        << (o.overlap ? "overlap" : "no overlap") << "), " << g.num_tasks()
        << "-task workload\n"
        << "planning        " << fmt(sr.scheduling_seconds, 6) << " s\n";
  run.intro = intro.str();
  run.reconcile = [&run](Books& book, const obs::TraceSummary& d) {
    const double analyzer = run.analysis.locality.remote_bytes;
    const double counter = run.counters.counter("sim.remote_bytes");
    if (!agree(analyzer, counter, d.transfer_bytes)) {
      err() << "remote-volume mismatch: analyzer " << analyzer
            << " B, counter sim.remote_bytes " << counter << " B, trace "
            << d.transfer_bytes << " B";
      book.ok = false;
    }
    book.agreed = "analyzer remote volume == sim counters == trace (" +
                  fmt(analyzer / 1e6, 2) + " MB over " +
                  std::to_string(d.transfer_events) + " transfers)";
  };
  run.title = o.scheme + " schedule on " + std::to_string(o.procs) +
              " processors";
  std::ostringstream sub;
  sub << g.num_tasks() << " tasks, " << g.num_edges() << " edges, "
      << fmt(o.bandwidth_mbps, 0) << " Mbps "
      << (o.overlap ? "overlap" : "no-overlap") << " platform";
  run.subtitle = sub.str();
  return finish(o, g, run, trace);
}

/// `--robustness N`: plans once (honoring --scheme and --slack), then
/// replays the schedule through N seeded perturbation ensembles and
/// reports the makespan distribution. With --obs-out the
/// "robust.*" accounting is reconciled across its three books: the
/// metrics counters, the trace events and the RobustnessReport. Returns
/// the process exit code.
int run_robustness_mode(const Options& o, const TaskGraph& g,
                        const Cluster& cluster, TraceOut& trace) {
  const CommModel comm(cluster);
  obs::MetricsRegistry met;
  obs::ObsContext ctx{&met, trace.sink()};

  SchedulerOptions sched_opt;
  sched_opt.slack_factor = o.slack;
  SchedulerResult plan =
      make_scheduler(o.scheme, sched_opt)->schedule(g, cluster);

  RobustnessOptions ropt;
  ropt.samples = o.robustness;
  ropt.obs = &ctx;
  // Scale the perturbation family to the realized (unperturbed) replay,
  // not the planner's estimate: under --slack the estimate is inflated by
  // design, and scaling from it would expose slacked schedules to longer
  // perturbation windows than tight ones — an unfair comparison.
  const double span = std::max(
      1e-6, simulate_execution(g, plan.schedule, comm, {}).makespan);
  ropt.perturb.seed = o.fault_seed;
  ropt.perturb.slow_factor = o.slow_factor;
  ropt.perturb.horizon_s = span;
  ropt.perturb.slow_duration_s = 0.5 * span;
  ropt.perturb.link_windows = 2;
  ropt.perturb.link_duration_s = 0.2 * span;
  const RobustnessReport rep = score_robustness(g, plan.schedule, comm, ropt);

  if (!o.quiet)
    std::cout << "robustness mode " << o.scheme << ", slack "
              << fmt(o.slack, 2) << ", " << o.robustness
              << " perturbed sample(s), slow-factor "
              << fmt(o.slow_factor, 2) << "\n";

  ModeRun run;
  run.schedule = std::move(plan.schedule);
  run.counters = trace.counters(met);
  run.analysis = obs::analyze_schedule(g, run.schedule, comm);
  join_robustness(run.analysis, rep);
  run.reconcile = [&](Books& book, const obs::TraceSummary& d) {
    // The counters, the trace and the report must agree on the ensemble
    // size, and counters/report on the distribution summary.
    book.third = "report";
    book("robust.samples", run.counters.counter("robust.samples"),
         static_cast<double>(d.robust_samples),
         static_cast<double>(rep.samples));
    book("robust.p95", run.counters.counter("robust.p95"), rep.p95, rep.p95);
    book("robust.worst", run.counters.counter("robust.worst"), rep.worst,
         rep.worst);
    book.agreed = "robust counters == trace == report (" +
                  std::to_string(rep.samples) + " samples)";
  };
  run.title = o.scheme + " robustness on " + std::to_string(o.procs) +
              " processors";
  std::ostringstream sub;
  sub << g.num_tasks() << " tasks, slack " << fmt(o.slack, 2) << ", "
      << rep.samples << " perturbed samples, p95 "
      << fmt(rep.p95_over_nominal, 3) << "x nominal";
  run.subtitle = sub.str();
  return finish(o, g, run, trace);
}

/// False, after the error, unless \p res completed with a valid executed
/// schedule.
bool recovered(const RecoveryResult& res, const TaskGraph& g,
               const CommModel& comm) {
  if (!res.completed) {
    err() << "recovery gave up after " << res.rounds
          << " round(s): " << res.error;
    return false;
  }
  const std::string diag = res.executed.validate(g, comm);
  if (!diag.empty()) {
    err() << "recovered schedule invalid: " << diag;
    return false;
  }
  return true;
}

/// `--straggler-rate k`: executes the workload under a seeded processor
/// slowdown (no fail-stop failures), detects tasks running past k x their
/// modeled time, mitigates them with the selected policy, and reconciles
/// the "perturb.*"/"mitigation.*" accounting. With --gate-ratio the exit
/// code enforces recovered makespan <= ratio x the clean plan. Returns
/// the process exit code.
int run_straggler_mode(const Options& o, const TaskGraph& g,
                       const Cluster& cluster, TraceOut& trace) {
  const CommModel comm(cluster);

  RecoveryOptions ro;
  ro.planner.locbs.slack_factor = o.slack;
  ro.straggler_threshold = o.straggler_rate;
  ro.straggler_mitigation = o.mitigation == "replan"
                                ? StragglerMitigation::kReplan
                                : StragglerMitigation::kSpeculate;

  // The slowdown windows scale from the clean planned makespan so they
  // overlap the busy chart.
  const double base =
      LocMPSScheduler(ro.planner).schedule(g, cluster).estimated_makespan;
  PerturbationParams pp;
  pp.seed = o.fault_seed;
  pp.slow_factor = o.slow_factor;
  pp.horizon_s = std::max(1e-6, 0.6 * base);
  pp.slow_duration_s = std::max(1e-6, 0.5 * base);
  pp.link_windows = 0;
  const PerturbationPlan plan =
      make_perturbation_plan(cluster.processors, g.num_tasks(), pp);
  const FaultPlan no_faults(cluster.processors, {});

  obs::MetricsRegistry met;
  obs::ObsContext ctx{&met, trace.sink()};
  ro.perturb = &plan;
  ro.obs = &ctx;
  RecoveryResult res = run_with_faults(g, cluster, no_faults, ro);

  if (!o.quiet)
    std::cout << "straggler mode  " << plan.slowdowns().size()
              << " slowdown window(s) at " << fmt(o.slow_factor, 2)
              << "x, detect at " << fmt(o.straggler_rate, 2)
              << "x modeled, mitigation " << o.mitigation << ", slack "
              << fmt(o.slack, 2) << "\n";
  if (!recovered(res, g, comm)) return 1;

  ModeRun run;
  run.schedule = std::move(res.executed);
  run.counters = trace.counters(met);
  run.analysis = obs::analyze_schedule(g, run.schedule, comm);
  join_perturbation(run.analysis, plan);
  run.reconcile = [&](Books& book, const obs::TraceSummary& d) {
    // Mitigation accounting reconciles across all three books; the
    // perturbation exposure across two (the final clean round is the only
    // obs-attached simulation, and RecoveryResult does not re-expose it).
    const obs::MetricsSnapshot& c = run.counters;
    book.third = "result";
    book("mitigation.stragglers", c.counter("mitigation.stragglers"),
         static_cast<double>(d.mitigation_stragglers),
         static_cast<double>(res.stragglers));
    book("mitigation.speculations", c.counter("mitigation.speculations"),
         static_cast<double>(d.mitigation_speculations),
         static_cast<double>(res.speculations));
    book("mitigation.replans", c.counter("mitigation.replans"),
         static_cast<double>(d.mitigation_replans),
         static_cast<double>(res.straggler_replans));
    book("mitigation.wasted_seconds", c.counter("mitigation.wasted_seconds"),
         d.mitigation_wasted_s, res.mitigation_wasted_seconds);
    book("perturb.slowed_tasks", c.counter("perturb.slowed_tasks"),
         static_cast<double>(d.perturb_slow_events),
         c.counter("perturb.slowed_tasks"));
    book("perturb.stretch_seconds", c.counter("perturb.stretch_seconds"),
         d.perturb_stretch_s, c.counter("perturb.stretch_seconds"));
    book.agreed =
        "mitigation counters == trace == result; perturb counters == trace";
  };
  run.intro = "makespan        clean plan " + fmt(res.planned_makespan, 3) +
              " s, recovered " + fmt(res.makespan, 3) + " s (" +
              fmt(res.makespan / std::max(1e-9, res.planned_makespan), 3) +
              "x)\n";
  run.title = "loc-mps under stragglers on " + std::to_string(o.procs) +
              " processors";
  std::ostringstream sub;
  sub << g.num_tasks() << " tasks, " << fmt(o.slow_factor, 2)
      << "x slowdown, detect at " << fmt(o.straggler_rate, 2)
      << "x, mitigation " << o.mitigation << ", realized makespan "
      << fmt(res.makespan, 3) << " s (planned "
      << fmt(res.planned_makespan, 3) << " s)";
  run.subtitle = sub.str();

  const int rc = finish(o, g, run, trace);
  if (rc == 2 || o.gate_ratio <= 0.0) return rc;
  if (res.stragglers == 0) {
    err() << "gate failed: no straggler was detected — the gate proves "
             "nothing";
    return 1;
  }
  if (res.makespan > o.gate_ratio * res.planned_makespan) {
    err() << "gate failed: recovered makespan " << fmt(res.makespan, 3)
          << " s exceeds " << fmt(o.gate_ratio, 2) << " x clean plan "
          << fmt(res.planned_makespan, 3) << " s";
    return 1;
  }
  return rc;
}

/// Executes the workload under injected fail-stop failures, recovers with
/// the selected policy, and reconciles the fault/recovery accounting
/// across its three independent books: the metrics counters, the decision
/// trace, and the RecoveryResult. Returns the process exit code.
int run_fault_mode(const Options& o, const TaskGraph& g,
                   const Cluster& cluster, TraceOut& trace) {
  const CommModel comm(cluster);

  RecoveryOptions ro;
  ro.planner.locbs.slack_factor = o.slack;
  ro.policy = o.fault_policy == "retry" ? RecoveryPolicy::kRetryInPlace
                                        : RecoveryPolicy::kDegradedReplan;

  // Failures land inside the busy part of the schedule: the horizon is a
  // fraction of the fault-free planned makespan.
  const double base =
      LocMPSScheduler(ro.planner).schedule(g, cluster).estimated_makespan;
  FaultPlanParams fpp;
  fpp.fail_fraction = o.fault_rate;
  fpp.horizon_s = std::max(1e-6, 0.6 * base);
  fpp.repairs = o.fault_repair;
  fpp.repair_delay_s = std::max(1e-6, 0.25 * base);
  fpp.seed = o.fault_seed;
  const FaultPlan plan = make_fault_plan(cluster.processors, fpp);

  obs::MetricsRegistry met;
  obs::ObsContext ctx{&met, trace.sink()};
  ro.obs = &ctx;
  RecoveryResult res = run_with_faults(g, cluster, plan, ro);

  if (!o.quiet)
    std::cout << "fault mode      rate " << fmt(o.fault_rate, 2) << ", "
              << plan.events().size() << " failure(s) injected, policy "
              << o.fault_policy
              << (o.fault_repair ? ", repairs on" : ", no repairs") << "\n";
  if (!recovered(res, g, comm)) return 1;

  ModeRun run;
  run.schedule = std::move(res.executed);
  run.counters = trace.counters(met);
  run.analysis = obs::analyze_schedule(g, run.schedule, comm);
  join_fault_plan(run.analysis, plan);
  run.reconcile = [&](Books& book, const obs::TraceSummary& d) {
    const obs::MetricsSnapshot& c = run.counters;
    book.third = "result";
    book("fault.kills", c.counter("fault.kills"),
         static_cast<double>(d.fault_kills), static_cast<double>(res.kills));
    book("fault.transfer_timeouts", c.counter("fault.transfer_timeouts"),
         static_cast<double>(d.fault_transfer_timeouts),
         static_cast<double>(res.transfer_timeouts));
    book("fault.wasted_proc_seconds", c.counter("fault.wasted_proc_seconds"),
         d.fault_wasted_s, res.wasted_proc_seconds);
    book("recovery.retries", c.counter("recovery.retries"),
         static_cast<double>(d.recovery_retries),
         static_cast<double>(res.retries));
    book("recovery.replans", c.counter("recovery.replans"),
         static_cast<double>(d.recovery_replans),
         static_cast<double>(res.replans));
    // The final clean round is the only simulated round with observability
    // attached, so the analyzer's remote volume must equal both books.
    book("remote volume", c.counter("sim.remote_bytes"), d.transfer_bytes,
         run.analysis.locality.remote_bytes);
    book.agreed = "fault/recovery counters == trace == result; analyzer "
                  "remote volume == sim counters";
  };
  run.title = "loc-mps under faults on " + std::to_string(o.procs) +
              " processors";
  std::ostringstream sub;
  sub << g.num_tasks() << " tasks, fault rate " << fmt(o.fault_rate, 2)
      << ", policy " << o.fault_policy << ", realized makespan "
      << fmt(res.makespan, 3) << " s (planned "
      << fmt(res.planned_makespan, 3) << " s)";
  run.subtitle = sub.str();
  return finish(o, g, run, trace);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts) return 2;
  const Options& o = *opts;

  try {
    const TaskGraph g = load_workload(o);
    const Cluster cluster(o.procs, o.bandwidth_mbps * 1e6 / 8.0, o.overlap);

    if (!o.diff_a.empty()) return run_diff_mode(o, g);
    TraceOut trace;
    if (!trace.open(o.obs_out)) return 2;
    if (o.robustness > 0) return run_robustness_mode(o, g, cluster, trace);
    if (o.straggler_rate > 0.0)
      return run_straggler_mode(o, g, cluster, trace);
    if (o.fault_rate > 0.0) return run_fault_mode(o, g, cluster, trace);
    return run_plain_mode(o, g, cluster, trace);
  } catch (const std::exception& e) {
    err() << e.what();
    return 2;
  }
}
