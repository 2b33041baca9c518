#pragma once
/// \file experiment.hpp
/// Evaluation harness reproducing the paper's methodology (Section IV).
///
/// Every scheme is evaluated the same way: the scheduler plans a schedule
/// (its wall-clock planning time is the "scheduling time" of Figs 6b/10),
/// then the plan is re-timed by the discrete-event executor under the real
/// communication model. The figures report *relative performance*: the
/// ratio of the reference scheme's makespan (LoC-MPS) to the given
/// scheme's makespan — below 1.0 means worse than LoC-MPS.

#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "graph/task_graph.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "schedule/event_sim.hpp"
#include "schedulers/scheduler.hpp"
#include "util/table.hpp"

namespace locmps {

/// One scheme evaluated on one graph/cluster instance.
struct SchemeRun {
  std::string scheme;
  double makespan = 0.0;         ///< event-simulated (realized) makespan
  double estimated = 0.0;        ///< the scheduler's own estimate
  double scheduling_seconds = 0.0;  ///< wall-clock planning overhead
  /// Refinement iterations as the scheduler reports them
  /// (SchedulerResult::iterations, also the "scheduler.iterations"
  /// counter): for LoC-MPS-backed schemes the charged LoCBS calls, which
  /// equal the plan's "locmps.locbs_calls".
  std::size_t iterations = 0;
  Allocation allocation;
  Schedule schedule;
  /// Counters and sample series collected while planning and executing
  /// this run (see docs/observability.md for the taxonomy). The reports
  /// render the backfill accounting and dropped trace lines from here
  /// (ReportOptions::counters, text_report's second argument).
  obs::MetricsSnapshot counters;
  /// Post-mortem analytics of the realized schedule (utilization, locality
  /// breakdown, critical path, start-delay blame), computed under the same
  /// locality model the simulation used. Feed it with `counters` to
  /// obs::write_html_report / obs::text_report for rendering.
  obs::ScheduleAnalysis analysis;
};

/// Plans and executes \p scheme (a registry name) on \p g / \p cluster.
///
/// Every run is metered: a per-run metrics registry is attached to the
/// scheduler and the executor, and its snapshot lands in
/// SchemeRun::counters. Pass \p sink to additionally stream the
/// structured decision trace (JSONL via obs::JsonlSink) as it happens.
/// \p sched_opt tunes the scheduler itself (SchedulerOptions: incremental
/// replanning, plan budget, slack, seeded perturbation).
///
/// Pass \p profiler to self-profile the run: the planning, simulation,
/// and analysis stages record hierarchical spans (harness.plan /
/// harness.simulate / harness.analyze and their scheduler-side children;
/// taxonomy in docs/observability.md). The harness.plan span brackets
/// exactly the region timed into scheduling_seconds, so the two
/// reconcile within measurement noise.
SchemeRun evaluate_scheme(const std::string& scheme, const TaskGraph& g,
                          const Cluster& cluster, const SimOptions& sim = {},
                          obs::EventSink* sink = nullptr,
                          const SchedulerOptions& sched_opt = {},
                          obs::Profiler* profiler = nullptr);

/// Aggregated scheme x processor-count comparison over a graph suite.
struct Comparison {
  std::vector<std::string> schemes;  ///< schemes[0] is the reference
  std::vector<std::size_t> procs;
  /// relative[pi][si] = mean over graphs of
  /// makespan(reference) / makespan(schemes[si]) at procs[pi].
  std::vector<std::vector<double>> relative;
  /// Mean realized makespans [pi][si] (seconds).
  std::vector<std::vector<double>> makespan;
  /// Mean scheduling times [pi][si] (seconds).
  std::vector<std::vector<double>> sched_seconds;
  /// Raw per-graph samples behind the means, [pi][si][gi] — the inputs of
  /// the benchmark telemetry's median / nonparametric-CI statistics
  /// (bench/bench_util.hpp).
  std::vector<std::vector<std::vector<double>>> relative_samples;
  std::vector<std::vector<std::vector<double>>> makespan_samples;
  std::vector<std::vector<std::vector<double>>> sched_samples;
};

/// Runs every scheme on every graph for every processor count.
/// \p schemes[0] is the reference scheme of the relative-performance
/// ratios. \p bandwidth_Bps and \p overlap configure the platform.
///
/// The (graph x scheme) grid is embarrassingly parallel; set the
/// LOCMPS_THREADS environment variable (or pass \p threads > 1) to fan the
/// runs out over worker threads. Results are deterministic regardless of
/// the thread count; per-run scheduling-time measurements become noisier
/// under oversubscription.
///
/// \p sched_reps > 1 re-plans every (graph, scheme, procs) cell that many
/// times with a fresh scheduler and registry, timing each pass, so
/// sched_samples carries graphs x sched_reps wall-clock samples instead
/// of one per graph — enough for the benchmark telemetry's median /
/// order-statistic-CI statistics to be meaningful on single-graph panels
/// (fig10's sched_seconds ratchet needs n >= 5). Planning is
/// deterministic, so the extra reps change no schedule and only the
/// timing vectors grow; makespan/relative samples stay one per graph.
Comparison compare_schemes(std::span<const TaskGraph> graphs,
                           const std::vector<std::string>& schemes,
                           const std::vector<std::size_t>& procs,
                           double bandwidth_Bps, bool overlap = true,
                           const SimOptions& sim = {},
                           std::size_t threads = 0,
                           const SchedulerOptions& sched_opt = {},
                           std::size_t sched_reps = 1);

/// Renders a Comparison's relative performance as a paper-style table
/// (rows = processor counts, columns = schemes).
Table relative_performance_table(const Comparison& c);

/// Renders the mean scheduling times (seconds).
Table scheduling_time_table(const Comparison& c);

}  // namespace locmps
