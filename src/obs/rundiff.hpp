#pragma once
/// \file rundiff.hpp
/// Differential run attribution: given the decision traces of two runs of
/// the same task graph (baseline A vs. candidate B), align the tasks,
/// classify every divergence, and roll the deltas up the schedule DAG to
/// the ranked root-cause decisions that explain the makespan difference.
///
/// Taxonomy (first matching kind wins):
///   width      — the allocation changed (np differs); an allocator-level
///                decision, always a root cause
///   placement  — same width, different processor set
///   start-shift— same processors, different start/acquire instant
///   redist     — same slot, different remote redistribution volume
///   drift      — same slot and volume, finish differs (pure sim drift)
///
/// A diverged task is a *root cause* when none of its influencers — graph
/// predecessors plus the previous occupant of each of its processors, in
/// either run — diverged; otherwise its divergence is induced and the
/// blame flows to the diverged influencer with the largest |Δfinish|.
/// The makespan delta is attributed along that chain, from the
/// makespan-defining task down to its root decision; other root causes
/// are listed after it, ranked by the largest |Δfinish| in their blame
/// region. Consumed by `locmps-inspect --diff` and scripts/bench_diff.py.

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "obs/analysis.hpp"
#include "obs/provenance.hpp"

namespace locmps::obs {

/// The per-task view of one run's trace: each task's final realized
/// placement, the last "locbs.decision" record it received (invalid when
/// the task was not placed; its processors are the shortlist winner's).
struct RunView {
  std::vector<PlacementDecision> tasks;
  double makespan = 0.0;  ///< max finish over placed tasks
};

/// Builds the run view of a decision trace for a graph of \p num_tasks.
RunView run_view(const std::vector<TraceRecord>& records,
                 std::size_t num_tasks);

enum class DivergenceKind {
  kIdentical,
  kWidth,
  kPlacement,
  kStartShift,
  kRedist,
  kDrift,
};

/// Stable lower-case name ("width", "placement", ...) used in text and
/// JSON output.
const char* kind_name(DivergenceKind k);

/// One diverged task (kind != kIdentical). Deltas are B minus A.
struct TaskDiff {
  TaskId task = kNoTask;
  DivergenceKind kind = DivergenceKind::kIdentical;
  double d_start = 0.0;
  double d_finish = 0.0;
  double d_remote = 0.0;
  bool root = false;        ///< own decision is a root cause
  TaskId source = kNoTask;  ///< diverged influencer blamed when not a root
};

/// One ranked attribution entry: a root-cause decision and the share of
/// the makespan delta laid at its feet.
struct Attribution {
  TaskId task = kNoTask;
  DivergenceKind kind = DivergenceKind::kIdentical;
  double share = 0.0;     ///< seconds of makespan delta attributed
  double fraction = 0.0;  ///< share / |delta| (0 when delta is 0)
  /// Blame chain, makespan-defining task first, root last. Context roots
  /// (not on the makespan chain) carry only themselves.
  std::vector<TaskId> chain;
};

/// The complete diff of two runs.
struct RunDiff {
  double makespan_a = 0.0;
  double makespan_b = 0.0;
  double delta = 0.0;  ///< makespan_b - makespan_a
  std::vector<TaskDiff> diverged;       ///< ascending task id
  std::vector<Attribution> attribution; ///< ranked, primary root first
  /// Fraction of |delta| the ranked list explains (1 when the chain walk
  /// reached a root, 0 when the runs are identical).
  double attributed_fraction = 0.0;
};

/// Diffs two runs of the same graph. Throws std::invalid_argument when a
/// view's task count does not match \p g.
RunDiff diff_runs(const TaskGraph& g, const RunView& a, const RunView& b);

/// Human-readable attribution report: makespans, divergence census,
/// ranked root causes with both runs' decision records.
void print_diff(std::ostream& os, const TaskGraph& g, const RunView& a,
                const RunView& b, const RunDiff& d);

/// Machine-readable attribution artifact (single JSON object).
void write_diff_json(std::ostream& os, const TaskGraph& g, const RunView& a,
                     const RunView& b, const RunDiff& d);

}  // namespace locmps::obs
