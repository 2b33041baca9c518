#pragma once
/// \file analysis.hpp
/// Schedule post-mortem analytics: turns a realized Schedule (plus its
/// TaskGraph and communication model) into conclusions — where processor
/// time went, how much redistribution volume stayed local (the paper's
/// central claim, Sections 3-4), why each task started when it did, and
/// how the makespan decomposes along the critical chain. Optionally joins
/// per-task backfill flags from a JSONL decision trace
/// (docs/observability.md documents the event taxonomy). The run's
/// counters stay in its obs::MetricsSnapshot, which the report renders
/// beside the analysis (obs/report.hpp).
///
/// The analyzer is pure and read-only: it never mutates the schedule and
/// costs O(V + E + P + B log B) where B is the number of busy windows.
/// Every evaluate_scheme() run carries one (SchemeRun::analysis), so tests
/// and the harness can assert on analytics instead of re-deriving them.

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "network/comm_model.hpp"
#include "schedule/schedule.hpp"
#include "schedule/schedule_dag.hpp"
#include "schedule/timeline.hpp"

namespace locmps::obs {

/// Occupancy accounting of one processor over [0, makespan].
struct ProcUtilization {
  ProcId proc = 0;
  double busy_s = 0.0;     ///< summed occupancy windows (busy_from -> finish)
  double idle_s = 0.0;     ///< summed idle holes; busy + idle == horizon
  double utilization = 0.0;  ///< busy / horizon (0 when horizon is 0)
  std::size_t tasks = 0;   ///< tasks executing on this processor
  std::size_t holes = 0;   ///< idle windows (see Timeline::holes)
};

/// Histogram of idle-hole durations across all processors, linear bins
/// over [0, longest hole]. Empty (no bins) when the timeline is packed.
struct HoleHistogram {
  std::vector<double> bin_edges;     ///< bins + 1 edges, ascending
  std::vector<std::size_t> counts;   ///< holes per bin
  std::size_t total_holes = 0;
  double total_idle_s = 0.0;
  double longest_s = 0.0;
  double mean_s = 0.0;
};

/// Locality class of one edge's redistribution.
enum class EdgeClass {
  Empty,    ///< carries no data
  Local,    ///< all data stays on block-cyclic-aligned shared processors
  Partial,  ///< some data crosses the network
  Remote,   ///< all data crosses the network
};

/// Per-edge redistribution breakdown under the realized placements.
struct EdgeLocality {
  EdgeId edge = kNoEdge;
  TaskId src = kNoTask;
  TaskId dst = kNoTask;
  double volume_bytes = 0.0;
  double remote_bytes = 0.0;  ///< crosses the network
  double local_bytes = 0.0;   ///< volume - remote
  double transfer_s = 0.0;    ///< duration of the remote part (0 if local)
  EdgeClass cls = EdgeClass::Empty;
};

/// Aggregate locality accounting. Reconciles with the PR-1 counters of
/// the same run: remote_bytes == "sim.remote_bytes", local_edges ==
/// "sim.local_edges", partial_edges + remote_edges == "sim.transfers"
/// (tests/test_analysis.cpp asserts this end-to-end).
struct LocalityTotals {
  double total_bytes = 0.0;
  double local_bytes = 0.0;
  double remote_bytes = 0.0;
  /// 1 - remote/total; 1.0 when the graph moves no data.
  double locality_fraction = 1.0;
  double transfer_seconds = 0.0;  ///< summed remote-transfer durations
  std::size_t empty_edges = 0;
  std::size_t local_edges = 0;
  std::size_t partial_edges = 0;
  std::size_t remote_edges = 0;
};

/// Why a task started when it did (the binding start constraint).
enum class BlameKind {
  Source,     ///< starts at time ~0: nothing to blame
  Data,       ///< last-arriving predecessor (redistribution included)
  Processor,  ///< waited for its processors to come free
  Backfill,   ///< Processor, and the blocking occupant was backfilled in
              ///< front of it (requires a joined decision trace)
  Release,    ///< started late with no data/processor constraint
              ///< (release times, single-port serialization, noise)
  Tie,        ///< data and processor constraints bind together
};

const char* to_string(BlameKind k);

/// Start-delay attribution of one task.
struct TaskBlame {
  TaskId task = kNoTask;
  BlameKind kind = BlameKind::Source;
  /// The blocking predecessor (Data/Tie) or occupant (Processor/Backfill).
  TaskId culprit = kNoTask;
  /// The last-arriving in-edge (Data/Tie only).
  EdgeId edge = kNoEdge;
  double start = 0.0;
  double data_ready = 0.0;  ///< latest predecessor arrival (ft + transfer)
  double proc_ready = 0.0;  ///< latest prior finish on the task's processors
  /// Excess delay attributable to the binding constraint: how much earlier
  /// the start floor would sit if it vanished (binding - runner-up).
  double delay_s = 0.0;
  /// Unexplained start gap beyond both constraints (>= 0).
  double slack_s = 0.0;
};

/// One link of the critical chain: a task plus the time spent *entering*
/// it from its chain predecessor (redistribution + unexplained wait).
struct CriticalPathStep {
  TaskId task = kNoTask;
  double compute_s = 0.0;  ///< finish - start of this task
  double redist_s = 0.0;   ///< transfer duration of the binding in-edge
  double wait_s = 0.0;     ///< idle gap not covered by compute/redist
};

/// Backward walk from the makespan-defining task along binding
/// constraints. compute + redistribution + wait telescopes to the
/// makespan (tests assert the reconciliation).
struct CriticalPathBreakdown {
  std::vector<CriticalPathStep> steps;  ///< source -> makespan task
  double compute_s = 0.0;
  double redist_s = 0.0;
  double wait_s = 0.0;
  double makespan = 0.0;
};

/// One processor-failure window, for the report's fault timeline lane.
/// Filled from a FaultPlan (faults/recovery.hpp join_fault_plan) or from
/// the "fault.fail" events of a decision trace.
struct FaultWindow {
  ProcId proc = 0;
  double fail_s = 0.0;
  double repair_s = -1.0;  ///< < 0: never repaired
};

/// One processor-slowdown window (a performance fault), for the report's
/// straggler lanes. Filled from a PerturbationPlan via join_perturbation
/// (faults/robustness.hpp) or from the trace's "mitigation.straggler"
/// events.
struct SlowdownWindow {
  ProcId proc = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  double factor = 1.0;  ///< compute-stretch multiplier inside the window
};

/// Monte-Carlo robustness digest, joined from a RobustnessReport
/// (faults/robustness.hpp join_robustness) — absent (samples == 0) when
/// no ensemble was run.
struct RobustnessSummary {
  std::size_t samples = 0;
  double nominal = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double median_lo = 0.0;  ///< order-statistic CI bounds (util/stats.hpp)
  double median_hi = 0.0;
  double p95 = 0.0;
  double worst = 0.0;
  double p95_over_nominal = 1.0;
};

/// Analyzer knobs.
struct AnalysisOptions {
  /// Charge only the exact block-cyclic remote volume per edge (matches
  /// SimOptions::locality_volumes of the run being explained; schemes that
  /// do not orchestrate locality transfer full volumes between differing
  /// layouts).
  bool locality_volumes = true;
  /// Linear bins of the idle-hole histogram.
  std::size_t hole_bins = 8;
};

/// The complete post-mortem of one schedule.
struct ScheduleAnalysis {
  double makespan = 0.0;
  std::size_t num_procs = 0;
  std::size_t num_tasks = 0;

  std::vector<ProcUtilization> procs;  ///< one entry per processor
  double mean_utilization = 0.0;       ///< mean of per-proc utilizations
  HoleHistogram holes;

  std::vector<EdgeLocality> edges;  ///< one entry per edge, by EdgeId
  LocalityTotals locality;

  std::vector<TaskBlame> blame;  ///< one entry per task, by TaskId
  CriticalPathBreakdown critical_path;

  /// Failure windows of the run's FaultPlan, sorted by (fail_s, proc);
  /// empty for fault-free runs. Drawn as the Gantt fault lane.
  std::vector<FaultWindow> fault_windows;

  RobustnessSummary robustness;
  /// Slowdown windows of the run's PerturbationPlan, sorted by
  /// (begin_s, proc); empty for unperturbed runs. Drawn as the Gantt
  /// straggler lanes.
  std::vector<SlowdownWindow> slowdown_windows;

  /// Blame entries with delay_s > 0, sorted by descending delay, at most
  /// \p n of them (the report's top-N blame table).
  std::vector<TaskBlame> top_blame(std::size_t n) const;
};

/// Computes the full analysis of complete schedule \p s. Throws
/// std::invalid_argument when \p s is incomplete.
ScheduleAnalysis analyze_schedule(const TaskGraph& g, const Schedule& s,
                                  const CommModel& comm,
                                  const AnalysisOptions& opt = {});

// ---------------------------------------------------------------------------
// Decision-trace ingestion (the PR-1 JSONL stream).

/// One parsed trace line: the event name plus its flat fields.
struct TraceRecord {
  std::string ev;
  std::vector<std::pair<std::string, double>> nums;
  std::vector<std::pair<std::string, std::string>> strs;
  std::vector<std::pair<std::string, bool>> bools;

  double num(std::string_view key, double fallback = 0.0) const;
  bool flag(std::string_view key, bool fallback = false) const;
  const std::string* str(std::string_view key) const;
};

/// Parses a JSONL decision trace (one flat JSON object per line; blank
/// lines skipped). Throws std::runtime_error on malformed input.
std::vector<TraceRecord> read_trace(std::istream& is);

/// Digest of a trace, joined against a schedule of \p num_tasks tasks.
struct TraceSummary {
  std::size_t decision_events = 0; ///< "locbs.decision" lines (placements)
  std::size_t transfer_events = 0; ///< "sim.transfer" lines
  /// Realized remote bytes: sum of "sim.transfer" byte fields. Must equal
  /// LocalityTotals::remote_bytes of the same run.
  double transfer_bytes = 0.0;
  /// Final-pass split from the *last* "locbs.decision" per task.
  double final_local_bytes = 0.0;
  double final_remote_bytes = 0.0;
  /// Per-task: was the final placement a backfill (started before the
  /// chart end)? Empty fields stay false.
  std::vector<char> backfilled;

  // Fault/recovery digest ("fault.*" / "recovery.*" events). Must
  // reconcile with the same run's counters and RecoveryResult fields
  // (tools/inspect.cpp cross-checks this for faulty runs).
  std::size_t fault_kills = 0;             ///< "fault.kill" lines
  std::size_t fault_transfer_timeouts = 0; ///< ... with kind == "transfer"
  double fault_wasted_s = 0.0;             ///< summed wasted_s fields
  std::size_t recovery_retries = 0;        ///< "recovery.retry" lines
  std::size_t recovery_replans = 0;        ///< "recovery.replan" lines
  /// Failure windows from "fault.fail" events, sorted by (fail_s, proc).
  std::vector<FaultWindow> fault_windows;

  // Performance-fault digest ("perturb.*" / "mitigation.*" events). Must
  // reconcile with the same run's counters and its SimResult /
  // RecoveryResult fields (the third book of the three-way check).
  std::size_t perturb_slow_events = 0;   ///< "perturb.slow" lines
  double perturb_stretch_s = 0.0;        ///< summed stretch_s fields
  std::size_t perturb_link_events = 0;   ///< "perturb.link" lines
  double perturb_link_delay_s = 0.0;     ///< summed delay_s fields
  std::size_t mitigation_stragglers = 0;   ///< "mitigation.straggler" lines
  std::size_t mitigation_speculations = 0; ///< "mitigation.speculate" lines
  std::size_t mitigation_replans = 0;      ///< "mitigation.replan" lines
  double mitigation_wasted_s = 0.0;        ///< summed wasted_s fields
  std::size_t robust_samples = 0;          ///< "robust.sample" lines
};

/// Digests \p records for a schedule of \p num_tasks tasks.
TraceSummary summarize_trace(const std::vector<TraceRecord>& records,
                             std::size_t num_tasks);

/// Joins \p t into \p a: Processor blame whose culprit was backfilled is
/// upgraded to BlameKind::Backfill.
void join_trace(ScheduleAnalysis& a, const TraceSummary& t);

}  // namespace locmps::obs
