/// \file inspect.cpp
/// locmps-inspect: schedule post-mortem CLI.
///
/// Plans and executes one scheme on a workload (a taskgraph v1 file or a
/// seeded synthetic DAG), runs the analytics of obs/analysis.hpp over the
/// realized schedule, and renders the result as a terminal summary and —
/// with --report-out — a self-contained HTML report (obs/report.hpp).
/// With --obs-out the run also streams the PR-1 JSONL decision trace,
/// reads it back, joins it into the analysis (backfill attribution) and
/// cross-checks the analyzer's aggregate local/remote redistribution
/// volumes against the run's comm-model counters and the trace.
/// With --fault-rate the run executes under injected fail-stop processor
/// failures (src/faults/), recovers with the selected policy, and the
/// cross-check additionally reconciles the "fault.*"/"recovery.*" counters
/// against the decision trace and the RecoveryResult.
///
/// Usage: see usage() below or `locmps-inspect --help`.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

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
        "                         reservations during placement (default "
        "1)\n"
        "  --gate-ratio <r>       straggler mode: exit 1 unless the\n"
        "                         recovered makespan is <= r x the clean\n"
        "                         planned makespan\n"
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
        "                         (LoCBS-backed schemes only)\n"
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

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      err() << flag << " needs a value";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (a == "--graph") {
      if ((v = need(i, "--graph")) == nullptr) return std::nullopt;
      o.graph_file = v;
    } else if (a == "--seed") {
      if ((v = need(i, "--seed")) == nullptr) return std::nullopt;
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--ccr") {
      if ((v = need(i, "--ccr")) == nullptr) return std::nullopt;
      o.ccr = std::strtod(v, nullptr);
    } else if (a == "--procs") {
      if ((v = need(i, "--procs")) == nullptr) return std::nullopt;
      o.procs = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--bandwidth-mbps") {
      if ((v = need(i, "--bandwidth-mbps")) == nullptr) return std::nullopt;
      o.bandwidth_mbps = std::strtod(v, nullptr);
    } else if (a == "--no-overlap") {
      o.overlap = false;
    } else if (a == "--scheme") {
      if ((v = need(i, "--scheme")) == nullptr) return std::nullopt;
      o.scheme = v;
    } else if (a == "--fault-rate") {
      if ((v = need(i, "--fault-rate")) == nullptr) return std::nullopt;
      o.fault_rate = std::strtod(v, nullptr);
    } else if (a == "--fault-seed") {
      if ((v = need(i, "--fault-seed")) == nullptr) return std::nullopt;
      o.fault_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--fault-repair") {
      o.fault_repair = true;
    } else if (a == "--fault-policy") {
      if ((v = need(i, "--fault-policy")) == nullptr) return std::nullopt;
      o.fault_policy = v;
    } else if (a == "--report-out") {
      if ((v = need(i, "--report-out")) == nullptr) return std::nullopt;
      o.report_out = v;
    } else if (a == "--obs-out") {
      if ((v = need(i, "--obs-out")) == nullptr) return std::nullopt;
      o.obs_out = v;
    } else if (a == "--trace") {
      if ((v = need(i, "--trace")) == nullptr) return std::nullopt;
      o.trace_in = v;
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--flame-out") {
      if ((v = need(i, "--flame-out")) == nullptr) return std::nullopt;
      o.flame_out = v;
    } else if (a == "--flame-weight") {
      if ((v = need(i, "--flame-weight")) == nullptr) return std::nullopt;
      const std::string w = v;
      if (w == "wall") {
        o.flame_weight = obs::FlameWeight::kWallMicros;
      } else if (w == "cpu") {
        o.flame_weight = obs::FlameWeight::kCpuMicros;
      } else if (w == "alloc") {
        o.flame_weight = obs::FlameWeight::kAllocBytes;
      } else {
        err() << "--flame-weight must be 'wall', 'cpu' or 'alloc'";
        return std::nullopt;
      }
    } else if (a == "--log-level") {
      if ((v = need(i, "--log-level")) == nullptr) return std::nullopt;
      obs::LogLevel level = obs::LogLevel::kInfo;
      if (!obs::parse_log_level(v, level)) {
        err() << "--log-level must be error, warn, info or debug";
        return std::nullopt;
      }
      obs::set_log_level(level);
    } else if (a == "--title") {
      if ((v = need(i, "--title")) == nullptr) return std::nullopt;
      o.title = v;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--explain") {
      if ((v = need(i, "--explain")) == nullptr) return std::nullopt;
      o.explain.push_back(
          static_cast<TaskId>(std::strtoull(v, nullptr, 10)));
    } else if (a == "--why-critical") {
      o.why_critical = true;
    } else if (a == "--diff") {
      if ((v = need(i, "--diff")) == nullptr) return std::nullopt;
      o.diff_a = v;
      if ((v = need(i, "--diff")) == nullptr) return std::nullopt;
      o.diff_b = v;
    } else if (a == "--diff-json") {
      if ((v = need(i, "--diff-json")) == nullptr) return std::nullopt;
      o.diff_json = v;
    } else if (a == "--perturb-task") {
      if ((v = need(i, "--perturb-task")) == nullptr) return std::nullopt;
      o.perturb_task =
          static_cast<TaskId>(std::strtoull(v, nullptr, 10));
    } else if (a == "--robustness") {
      if ((v = need(i, "--robustness")) == nullptr) return std::nullopt;
      o.robustness = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--straggler-rate") {
      if ((v = need(i, "--straggler-rate")) == nullptr) return std::nullopt;
      o.straggler_rate = std::strtod(v, nullptr);
    } else if (a == "--mitigation") {
      if ((v = need(i, "--mitigation")) == nullptr) return std::nullopt;
      o.mitigation = v;
    } else if (a == "--slow-factor") {
      if ((v = need(i, "--slow-factor")) == nullptr) return std::nullopt;
      o.slow_factor = std::strtod(v, nullptr);
    } else if (a == "--slack") {
      if ((v = need(i, "--slack")) == nullptr) return std::nullopt;
      o.slack = std::strtod(v, nullptr);
    } else if (a == "--gate-ratio") {
      if ((v = need(i, "--gate-ratio")) == nullptr) return std::nullopt;
      o.gate_ratio = std::strtod(v, nullptr);
    } else if (a == "--version") {
      std::cout << "locmps-inspect " << LOCMPS_GIT_DESCRIBE << "\n";
      std::exit(0);
    } else {
      err() << "unknown argument '" << a << "' (--help for usage)";
      usage(std::cerr);
      return std::nullopt;
    }
  }
  if (o.procs == 0) {
    err() << "--procs must be positive";
    return std::nullopt;
  }
  if (o.fault_rate < 0.0 || o.fault_rate > 1.0) {
    err() << "--fault-rate must be in [0, 1]";
    return std::nullopt;
  }
  if (o.fault_policy != "replan" && o.fault_policy != "retry") {
    err() << "--fault-policy must be 'replan' or 'retry'";
    return std::nullopt;
  }
  // 0.0 is the exact flag-unset sentinel. LINT-ALLOW(float-eq)
  if (o.straggler_rate != 0.0 && o.straggler_rate <= 1.0) {
    err() << "--straggler-rate must be > 1 (detection fires at k x the "
             "modeled time)";
    return std::nullopt;
  }
  if (o.mitigation != "speculate" && o.mitigation != "replan") {
    err() << "--mitigation must be 'speculate' or 'replan'";
    return std::nullopt;
  }
  if (o.slow_factor < 1.0) {
    err() << "--slow-factor must be >= 1";
    return std::nullopt;
  }
  if (o.slack < 1.0) {
    err() << "--slack must be >= 1";
    return std::nullopt;
  }
  if (o.gate_ratio < 0.0) {
    err() << "--gate-ratio must be positive";
    return std::nullopt;
  }
  // 0.0 is the exact flag-unset sentinel. LINT-ALLOW(float-eq)
  if (o.gate_ratio > 0.0 && o.straggler_rate == 0.0) {
    err() << "--gate-ratio needs --straggler-rate";
    return std::nullopt;
  }
  if (o.robustness > 0 && o.straggler_rate > 0.0) {
    err() << "--robustness and --straggler-rate are separate modes";
    return std::nullopt;
  }
  if ((!o.explain.empty() || o.why_critical) && o.obs_out.empty() &&
      o.trace_in.empty()) {
    err() << "--explain/--why-critical need a decision trace: add "
             "--obs-out <file> or --trace <file>";
    return std::nullopt;
  }
  if (!o.diff_json.empty() && o.diff_a.empty()) {
    err() << "--diff-json needs --diff <A> <B>";
    return std::nullopt;
  }
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

/// Joins \p trace_path into \p run's analysis and cross-checks the
/// analyzer's aggregate volumes against the trace and the run counters.
/// Returns false (after printing the discrepancy) when they disagree.
bool join_and_reconcile(SchemeRun& run, const std::string& trace_path,
                        bool quiet) {
  std::ifstream in(trace_path);
  if (!in) {
    err() << "cannot read trace " << trace_path;
    return false;
  }
  const auto records = obs::read_trace(in);
  const auto digest = obs::summarize_trace(records, run.analysis.num_tasks);
  obs::join_trace(run.analysis, digest);

  const double analyzer = run.analysis.locality.remote_bytes;
  const double counter = run.counters.counter("sim.remote_bytes");
  const double traced = digest.transfer_bytes;
  const double scale = std::max({1.0, analyzer, counter, traced});
  const bool ok = std::abs(analyzer - counter) <= 1e-9 * scale &&
                  std::abs(analyzer - traced) <= 1e-9 * scale;
  if (!ok) {
    err() << "remote-volume mismatch: analyzer " << analyzer
          << " B, counter sim.remote_bytes " << counter << " B, trace "
          << traced << " B";
  } else if (!quiet) {
    std::cout << "reconciled      analyzer remote volume == sim counters == "
                 "trace ("
              << fmt(analyzer / 1e6, 2) << " MB over "
              << digest.transfer_events << " transfers)\n";
  }
  return ok;
}

/// `--robustness N`: plans once (honoring --scheme and --slack), then
/// replays the schedule through N seeded perturbation ensembles and
/// reports the makespan distribution. With --obs-out the
/// "robust.*" accounting is reconciled across its three books: the
/// metrics counters, the trace events and the RobustnessReport. Returns
/// the process exit code.
int run_robustness_mode(const Options& o, const TaskGraph& g,
                        const Cluster& cluster) {
  const CommModel comm(cluster);

  obs::MetricsRegistry met;
  std::ofstream jsonl;
  std::optional<obs::JsonlSink> sink;
  obs::ObsContext ctx{&met, nullptr};
  if (!o.obs_out.empty()) {
    jsonl.open(o.obs_out);
    if (!jsonl) {
      err() << "cannot open " << o.obs_out;
      return 2;
    }
    sink.emplace(jsonl);
    ctx.sink = &*sink;
  }

  SchedulerOptions sched_opt;
  sched_opt.slack_factor = o.slack;
  const SchedulerPtr sched = make_scheduler(o.scheme, sched_opt);
  const SchedulerResult plan = sched->schedule(g, cluster);

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
  if (sink && sink->dropped() > 0)
    met.add("obs.trace.dropped", static_cast<double>(sink->dropped()));
  sink.reset();
  jsonl.close();

  if (!o.quiet)
    std::cout << "robustness mode " << o.scheme << ", slack "
              << fmt(o.slack, 2) << ", " << o.robustness
              << " perturbed sample(s), slow-factor "
              << fmt(o.slow_factor, 2) << "\n";

  obs::ScheduleAnalysis a = obs::analyze_schedule(g, plan.schedule, comm);
  const obs::MetricsSnapshot snap = met.snapshot();
  obs::join_event_health(a, snap);
  join_robustness(a, rep);

  bool ok = true;
  if (!o.obs_out.empty()) {
    std::ifstream in(o.obs_out);
    if (!in) {
      err() << "cannot read trace " << o.obs_out;
      return 1;
    }
    const auto records = obs::read_trace(in);
    const auto digest = obs::summarize_trace(records, a.num_tasks);
    // Three books: the counters, the trace and the report must agree on
    // the ensemble size, and counters/report on the distribution summary.
    auto book = [&](const char* what, double x, double y, double z) {
      const double scale =
          std::max({1.0, std::fabs(x), std::fabs(y), std::fabs(z)});
      if (std::fabs(x - y) > 1e-9 * scale ||
          std::fabs(x - z) > 1e-9 * scale) {
        err() << what << " mismatch: counter " << x << ", trace " << y
              << ", report " << z;
        ok = false;
      }
    };
    book("robust.samples", snap.counter("robust.samples"),
         static_cast<double>(digest.robust_samples),
         static_cast<double>(rep.samples));
    book("robust.p95", snap.counter("robust.p95"), rep.p95, rep.p95);
    book("robust.worst", snap.counter("robust.worst"), rep.worst,
         rep.worst);
    if (ok && !o.quiet)
      std::cout << "reconciled      robust counters == trace == report ("
                << rep.samples << " samples)\n";
  }

  if (!o.quiet) std::cout << obs::text_report(a);

  if (!o.report_out.empty()) {
    obs::ReportOptions ro;
    ro.title = !o.title.empty() ? o.title
                                : o.scheme + " robustness on " +
                                      std::to_string(o.procs) +
                                      " processors";
    std::ostringstream sub;
    sub << g.num_tasks() << " tasks, slack " << fmt(o.slack, 2) << ", "
        << rep.samples << " perturbed samples, p95 "
        << fmt(rep.p95_over_nominal, 3) << "x nominal";
    ro.subtitle = sub.str();
    std::ofstream html(o.report_out);
    if (!html) {
      err() << "cannot open " << o.report_out;
      return 2;
    }
    obs::write_html_report(html, g, plan.schedule, a, ro);
    if (!o.quiet) std::cout << "report          " << o.report_out << "\n";
  }
  return ok ? 0 : 1;
}

/// `--straggler-rate k`: executes the workload under a seeded processor
/// slowdown (no fail-stop failures), detects tasks running past k x their
/// modeled time, mitigates them with the selected policy, and reconciles
/// the "perturb.*"/"mitigation.*" accounting. With --gate-ratio the exit
/// code enforces recovered makespan <= ratio x the clean plan. Returns
/// the process exit code.
int run_straggler_mode(const Options& o, const TaskGraph& g,
                       const Cluster& cluster) {
  const CommModel comm(cluster);

  RecoveryOptions ro;
  ro.planner.locbs.slack_factor = o.slack;
  ro.perturb = nullptr;
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
  std::ofstream jsonl;
  std::optional<obs::JsonlSink> sink;
  obs::ObsContext ctx{&met, nullptr};
  if (!o.obs_out.empty()) {
    jsonl.open(o.obs_out);
    if (!jsonl) {
      err() << "cannot open " << o.obs_out;
      return 2;
    }
    sink.emplace(jsonl);
    ctx.sink = &*sink;
  }
  ro.perturb = &plan;
  ro.obs = &ctx;
  const RecoveryResult res = run_with_faults(g, cluster, no_faults, ro);
  if (sink && sink->dropped() > 0)
    met.add("obs.trace.dropped", static_cast<double>(sink->dropped()));
  sink.reset();
  jsonl.close();

  if (!o.quiet)
    std::cout << "straggler mode  " << plan.slowdowns().size()
              << " slowdown window(s) at " << fmt(o.slow_factor, 2)
              << "x, detect at " << fmt(o.straggler_rate, 2)
              << "x modeled, mitigation " << o.mitigation << ", slack "
              << fmt(o.slack, 2) << "\n";
  if (!res.completed) {
    err() << "recovery gave up after " << res.rounds
          << " round(s): " << res.error;
    return 1;
  }
  const std::string diag = res.executed.validate(g, comm);
  if (!diag.empty()) {
    err() << "recovered schedule invalid: " << diag;
    return 1;
  }

  obs::ScheduleAnalysis a = obs::analyze_schedule(g, res.executed, comm);
  const obs::MetricsSnapshot snap = met.snapshot();
  obs::join_backfill_stats(a, snap);
  obs::join_perturb_stats(a, snap);
  obs::join_mitigation_stats(a, snap);
  obs::join_event_health(a, snap);
  join_perturbation(a, plan);

  bool ok = true;
  if (!o.obs_out.empty()) {
    std::ifstream in(o.obs_out);
    if (!in) {
      err() << "cannot read trace " << o.obs_out;
      return 1;
    }
    const auto records = obs::read_trace(in);
    const auto digest = obs::summarize_trace(records, a.num_tasks);
    obs::join_trace(a, digest);
    auto book = [&](const char* what, double counter, double traced,
                    double result) {
      const double scale = std::max(
          {1.0, std::fabs(counter), std::fabs(traced), std::fabs(result)});
      if (std::fabs(counter - traced) > 1e-9 * scale ||
          std::fabs(counter - result) > 1e-9 * scale) {
        err() << what << " mismatch: counter " << counter << ", trace "
              << traced << ", result " << result;
        ok = false;
      }
    };
    // Mitigation accounting reconciles across all three books; the
    // perturbation exposure across two (the final clean round is the only
    // obs-attached simulation, and RecoveryResult does not re-expose it).
    book("mitigation.stragglers", snap.counter("mitigation.stragglers"),
         static_cast<double>(digest.mitigation_stragglers),
         static_cast<double>(res.stragglers));
    book("mitigation.speculations", snap.counter("mitigation.speculations"),
         static_cast<double>(digest.mitigation_speculations),
         static_cast<double>(res.speculations));
    book("mitigation.replans", snap.counter("mitigation.replans"),
         static_cast<double>(digest.mitigation_replans),
         static_cast<double>(res.straggler_replans));
    book("mitigation.wasted_seconds",
         snap.counter("mitigation.wasted_seconds"),
         digest.mitigation_wasted_s, res.mitigation_wasted_seconds);
    book("perturb.slowed_tasks", snap.counter("perturb.slowed_tasks"),
         static_cast<double>(digest.perturb_slow_events),
         snap.counter("perturb.slowed_tasks"));
    book("perturb.stretch_seconds", snap.counter("perturb.stretch_seconds"),
         digest.perturb_stretch_s, snap.counter("perturb.stretch_seconds"));
    if (ok && !o.quiet)
      std::cout << "reconciled      mitigation counters == trace == result; "
                   "perturb counters == trace\n";
  }

  if (!o.quiet) {
    std::cout << "makespan        clean plan " << fmt(res.planned_makespan, 3)
              << " s, recovered " << fmt(res.makespan, 3) << " s ("
              << fmt(res.makespan / std::max(1e-9, res.planned_makespan), 3)
              << "x)\n";
    std::cout << obs::text_report(a);
  }

  if (!o.report_out.empty()) {
    obs::ReportOptions ropt;
    ropt.title = !o.title.empty() ? o.title
                                  : "loc-mps under stragglers on " +
                                        std::to_string(o.procs) +
                                        " processors";
    std::ostringstream sub;
    sub << g.num_tasks() << " tasks, " << fmt(o.slow_factor, 2)
        << "x slowdown, detect at " << fmt(o.straggler_rate, 2)
        << "x, mitigation " << o.mitigation << ", realized makespan "
        << fmt(res.makespan, 3) << " s (planned "
        << fmt(res.planned_makespan, 3) << " s)";
    ropt.subtitle = sub.str();
    std::ofstream html(o.report_out);
    if (!html) {
      err() << "cannot open " << o.report_out;
      return 2;
    }
    obs::write_html_report(html, g, res.executed, a, ropt);
    if (!o.quiet) std::cout << "report          " << o.report_out << "\n";
  }

  if (o.gate_ratio > 0.0) {
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
  }
  return ok ? 0 : 1;
}

/// Executes the workload under injected fail-stop failures, recovers with
/// the selected policy, and reconciles the fault/recovery accounting
/// across its three independent books: the metrics counters, the decision
/// trace, and the RecoveryResult. Returns the process exit code.
int run_fault_mode(const Options& o, const TaskGraph& g,
                   const Cluster& cluster) {
  const CommModel comm(cluster);

  // Failures land inside the busy part of the schedule: the horizon is a
  // fraction of the fault-free planned makespan.
  const LocMPSScheduler probe;
  const double base = probe.schedule(g, cluster).estimated_makespan;
  FaultPlanParams fpp;
  fpp.fail_fraction = o.fault_rate;
  fpp.horizon_s = std::max(1e-6, 0.6 * base);
  fpp.repairs = o.fault_repair;
  fpp.repair_delay_s = std::max(1e-6, 0.25 * base);
  fpp.seed = o.fault_seed;
  const FaultPlan plan = make_fault_plan(cluster.processors, fpp);

  obs::MetricsRegistry met;
  std::ofstream jsonl;
  std::optional<obs::JsonlSink> sink;
  obs::ObsContext ctx{&met, nullptr};
  if (!o.obs_out.empty()) {
    jsonl.open(o.obs_out);
    if (!jsonl) {
      err() << "cannot open " << o.obs_out;
      return 2;
    }
    sink.emplace(jsonl);
    ctx.sink = &*sink;
  }

  RecoveryOptions ro;
  ro.policy = o.fault_policy == "retry" ? RecoveryPolicy::kRetryInPlace
                                        : RecoveryPolicy::kDegradedReplan;
  ro.obs = &ctx;
  const RecoveryResult res = run_with_faults(g, cluster, plan, ro);
  if (sink && sink->dropped() > 0)
    met.add("obs.trace.dropped", static_cast<double>(sink->dropped()));
  sink.reset();
  jsonl.close();

  if (!o.quiet)
    std::cout << "fault mode      rate " << fmt(o.fault_rate, 2) << ", "
              << plan.events().size() << " failure(s) injected, policy "
              << o.fault_policy
              << (o.fault_repair ? ", repairs on" : ", no repairs") << "\n";
  if (!res.completed) {
    err() << "recovery gave up after " << res.rounds
          << " round(s): " << res.error;
    return 1;
  }
  const std::string diag = res.executed.validate(g, comm);
  if (!diag.empty()) {
    err() << "recovered schedule invalid: " << diag;
    return 1;
  }

  obs::ScheduleAnalysis a = obs::analyze_schedule(g, res.executed, comm);
  const obs::MetricsSnapshot snap = met.snapshot();
  obs::join_backfill_stats(a, snap);
  obs::join_fault_stats(a, snap);
  obs::join_event_health(a, snap);
  join_fault_plan(a, plan);

  bool ok = true;
  auto book = [&](const char* what, double counter, double traced,
                  double result) {
    const double scale = std::max(
        {1.0, std::fabs(counter), std::fabs(traced), std::fabs(result)});
    if (std::fabs(counter - traced) > 1e-9 * scale ||
        std::fabs(counter - result) > 1e-9 * scale) {
      err() << what << " mismatch: counter " << counter << ", trace "
            << traced << ", result " << result;
      ok = false;
    }
  };
  if (!o.obs_out.empty()) {
    std::ifstream in(o.obs_out);
    if (!in) {
      err() << "cannot read trace " << o.obs_out;
      return 1;
    }
    const auto records = obs::read_trace(in);
    const auto digest = obs::summarize_trace(records, a.num_tasks);
    obs::join_trace(a, digest);
    book("fault.kills", snap.counter("fault.kills"),
         static_cast<double>(digest.fault_kills),
         static_cast<double>(res.kills));
    book("fault.transfer_timeouts",
         snap.counter("fault.transfer_timeouts"),
         static_cast<double>(digest.fault_transfer_timeouts),
         static_cast<double>(res.transfer_timeouts));
    book("fault.wasted_proc_seconds",
         snap.counter("fault.wasted_proc_seconds"), digest.fault_wasted_s,
         res.wasted_proc_seconds);
    book("recovery.retries", snap.counter("recovery.retries"),
         static_cast<double>(digest.recovery_retries),
         static_cast<double>(res.retries));
    book("recovery.replans", snap.counter("recovery.replans"),
         static_cast<double>(digest.recovery_replans),
         static_cast<double>(res.replans));
    // The final clean round is the only simulated round with observability
    // attached, so the analyzer's remote volume must equal both books.
    book("remote volume", snap.counter("sim.remote_bytes"),
         digest.transfer_bytes, a.locality.remote_bytes);
    if (ok && !o.quiet)
      std::cout << "reconciled      fault/recovery counters == trace == "
                   "result; analyzer remote volume == sim counters\n";
  }

  if (!o.quiet) std::cout << obs::text_report(a);

  if (!o.report_out.empty()) {
    obs::ReportOptions ropt;
    ropt.title = !o.title.empty() ? o.title
                                  : "loc-mps under faults on " +
                                        std::to_string(o.procs) +
                                        " processors";
    std::ostringstream sub;
    sub << g.num_tasks() << " tasks, fault rate " << fmt(o.fault_rate, 2)
        << ", policy " << o.fault_policy << ", realized makespan "
        << fmt(res.makespan, 3) << " s (planned "
        << fmt(res.planned_makespan, 3) << " s)";
    ropt.subtitle = sub.str();
    std::ofstream html(o.report_out);
    if (!html) {
      err() << "cannot open " << o.report_out;
      return 2;
    }
    obs::write_html_report(html, g, res.executed, a, ropt);
    if (!o.quiet) std::cout << "report          " << o.report_out << "\n";
  }
  return ok ? 0 : 1;
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
    if (o.robustness > 0) return run_robustness_mode(o, g, cluster);
    if (o.straggler_rate > 0.0) return run_straggler_mode(o, g, cluster);
    if (o.fault_rate > 0.0) return run_fault_mode(o, g, cluster);

    SchedulerOptions sched_opt;
      sched_opt.perturb_task = o.perturb_task;
    sched_opt.slack_factor = o.slack;
    const bool want_profile = o.profile || !o.flame_out.empty() ||
                              !o.report_out.empty();
    std::optional<obs::Profiler> profiler;
    if (want_profile) profiler.emplace();
    obs::Profiler* const prof = profiler ? &*profiler : nullptr;
    SchemeRun run;
    if (!o.obs_out.empty()) {
      std::ofstream jsonl(o.obs_out);
      if (!jsonl) {
        err() << "cannot open " << o.obs_out;
        return 2;
      }
      obs::JsonlSink sink(jsonl);
      run = evaluate_scheme(o.scheme, g, cluster, {}, &sink, sched_opt,
                            prof);
    } else {
      run = evaluate_scheme(o.scheme, g, cluster, {}, nullptr, sched_opt,
                            prof);
    }
    obs::ProfileSnapshot prof_snap;
    if (profiler) prof_snap = profiler->snapshot();

    bool reconciled = true;
    if (!o.obs_out.empty())
      reconciled = join_and_reconcile(run, o.obs_out, o.quiet);
    else if (!o.trace_in.empty())
      reconciled = join_and_reconcile(run, o.trace_in, o.quiet);

    // Final decision per task (last "locbs.decision" record), feeding
    // --explain, --why-critical and the report's "Why" panel.
    std::vector<obs::PlacementDecision> decisions;
    {
      const std::string& tp = !o.obs_out.empty() ? o.obs_out : o.trace_in;
      if (!tp.empty()) {
        std::ifstream in(tp);
        if (in)
          decisions =
              obs::final_decisions(obs::read_trace(in), g.num_tasks());
      }
    }

    if (!o.quiet) {
      std::cout << "scheme          " << o.scheme << " on " << o.procs
                << " procs (" << fmt(o.bandwidth_mbps, 0) << " Mbps, "
                << (o.overlap ? "overlap" : "no overlap") << "), "
                << g.num_tasks() << "-task workload\n";
      std::cout << "planning        " << fmt(run.scheduling_seconds, 6)
                << " s\n";
      std::cout << obs::text_report(run.analysis);
    }

    for (TaskId t : o.explain) {
      if (t >= g.num_tasks()) {
        err() << "--explain task " << t << " out of range (graph has "
              << g.num_tasks() << " tasks)";
        return 2;
      }
      std::cout << "\nwhy task " << t << ":\n";
      obs::print_decision(
          std::cout, g,
          t < decisions.size() ? decisions[t] : obs::PlacementDecision{});
    }

    if (o.why_critical) {
      std::cout << "\nwhy-critical: decision records along the critical "
                   "path (source -> makespan task)\n";
      for (const obs::CriticalPathStep& st :
           run.analysis.critical_path.steps) {
        std::cout << "\n-- compute " << fmt(st.compute_s, 4) << " s";
        if (st.redist_s > 0.0)
          std::cout << ", redistribution in " << fmt(st.redist_s, 4)
                    << " s";
        if (st.wait_s > 0.0)
          std::cout << ", wait " << fmt(st.wait_s, 4) << " s";
        std::cout << "\n";
        for (const obs::TaskBlame& b : run.analysis.blame) {
          if (b.task != st.task || b.delay_s <= 0.0 ||
              b.culprit == kNoTask)
            continue;
          std::cout << "   start delayed " << fmt(b.delay_s, 4)
                    << " s by task " << b.culprit << " ("
                    << g.task(b.culprit).name << ")\n";
          break;
        }
        obs::print_decision(
            std::cout, g,
            st.task < decisions.size() ? decisions[st.task]
                                       : obs::PlacementDecision{});
      }
    }

    bool profile_ok = true;
    if (o.profile) {
      std::cout << "\nplanner self-profile (span taxonomy: "
                   "docs/observability.md)\n";
      obs::write_profile_tree(std::cout, prof_snap);
      const obs::ProfileNode* plan = prof_snap.find("harness.plan");
      if (plan == nullptr) {
        err() << "profile has no harness.plan span";
        profile_ok = false;
      } else {
        // Acceptance check: the span tree must reconcile with the
        // harness's own scheduling-time measurement within 2%.
        const double measured = run.scheduling_seconds;
        const double diff = std::fabs(plan->wall_s - measured);
        const double tol = 0.02 * std::max(measured, 1e-9);
        if (diff > tol) {
          err() << "profile/timer mismatch: harness.plan "
                << fmt(plan->wall_s, 6) << " s vs scheduling time "
                << fmt(measured, 6) << " s (diff " << fmt(diff, 6)
                << " s > 2%)";
          profile_ok = false;
        } else {
          std::cout << "reconciled      harness.plan "
                    << fmt(plan->wall_s, 6) << " s == planning "
                    << fmt(measured, 6) << " s (within 2%)\n";
        }
      }
    }

    if (!o.flame_out.empty()) {
      std::ofstream flame(o.flame_out);
      if (!flame) {
        err() << "cannot open " << o.flame_out;
        return 2;
      }
      obs::write_collapsed_stacks(flame, prof_snap, o.flame_weight);
      if (!o.quiet)
        std::cout << "flamegraph      " << o.flame_out
                  << " (collapsed stacks; fold with flamegraph.pl or "
                     "load in speedscope)\n";
    }

    if (!o.report_out.empty()) {
      obs::ReportOptions ropt;
      ropt.title = !o.title.empty()
                       ? o.title
                       : o.scheme + " schedule on " +
                             std::to_string(o.procs) + " processors";
      std::ostringstream sub;
      sub << g.num_tasks() << " tasks, " << g.num_edges() << " edges, "
          << fmt(o.bandwidth_mbps, 0) << " Mbps "
          << (o.overlap ? "overlap" : "no-overlap") << " platform";
      ropt.subtitle = sub.str();
      if (!prof_snap.empty()) ropt.profile = &prof_snap;
      if (decisions.size() == g.num_tasks()) ropt.decisions = &decisions;
      std::ofstream html(o.report_out);
      if (!html) {
        err() << "cannot open " << o.report_out;
        return 2;
      }
      obs::write_html_report(html, g, run.schedule, run.analysis, ropt);
      if (!o.quiet)
        std::cout << "report          " << o.report_out << "\n";
    }
    return reconciled && profile_ok ? 0 : 1;
  } catch (const std::exception& e) {
    err() << e.what();
    return 2;
  }
}
