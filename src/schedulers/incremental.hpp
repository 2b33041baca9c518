#pragma once
/// \file incremental.hpp
/// Incremental-replanning state shared by the LoCBS evaluations of one
/// refinement stream (docs/incremental.md).
///
/// The LoC-MPS refinement loop evaluates hundreds of allocations that
/// differ from an earlier one by a single widened task. LoCBS is a
/// deterministic list scheduler, so as long as the priority argmax picks
/// the same task with the same processor count as the previous
/// evaluation, the whole placement — timeline state, finish events,
/// realized G' weights, pseudo-edges, even the per-placement counters — is
/// provably identical, and the recorded step is committed again without
/// scanning a single hole. The first divergent pick ends replay; from there the
/// scan runs in full. A scanned and a replayed placement go through the
/// same commit, and the pass folds its counters over the finished log
/// (schedulers/locbs.cpp). A pass given no context logs into a pass-local
/// one whose log starts empty, so it scans every placement: that
/// from-scratch path (LocMPSOptions::incremental = false) serves as the
/// differential-equivalence oracle (tests/test_incremental).
///
/// One IncrementalContext serves one evaluation stream (one LoC-MPS
/// run), so no locking is needed and replay decisions stay
/// bit-deterministic.

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/processor_set.hpp"
#include "graph/task_graph.hpp"
#include "schedule/schedule_dag.hpp"
#include "schedulers/scheduler.hpp"

namespace locmps {

/// One placement of a LoCBS pass, as the hole scan found it: everything
/// the commit writes (schedule, timeline, G' weights, pseudo-edges) plus
/// the per-placement telemetry of the scan, which the pass folds into its
/// counters, so a replayed step counts bit-identically to a re-scan. Every
/// placement is committed from one of these.
struct ReplayStep {
  TaskId task = kNoTask;
  std::size_t np = 0;  ///< processor count at record time (validity key)
  double busy_from = 0.0;
  double start = 0.0;
  double finish = 0.0;
  std::vector<ProcId> procs;  ///< ascending
  ProcessorSet pset;
  // Realized G' weights of this task's in-edges, and the pseudo-edges the
  // commit added (predecessor side; the destination is `task`).
  std::vector<std::pair<EdgeId, double>> edge_times;
  std::vector<TaskId> pseudo_preds;
  // Per-placement telemetry the scan would have produced.
  std::uint32_t holes_probed = 0;
  /// 0 = locality-first win, 1 = horizon-first win, 2 = the reference
  /// scan's shadow runner-up, committed only by the perturb hook
  std::uint8_t subset = 0;
  bool pruned = false;
  bool backfilled = false;
  double local_bytes = 0.0;
  double remote_bytes = 0.0;
  double cost_evals = 0.0;  ///< comm.cost_evals delta of this placement
};

/// The allocation-dependent LoCBS arrays. Every pass computes them in
/// full; a state kept across the passes of a stream reuses the buffers
/// and computes the graph-constant topological order once.
struct PriorityState {
  std::vector<double> et;      ///< slack-inflated execution times
  std::vector<double> west;    ///< allocation-stage edge costs
  std::vector<double> bottom;  ///< bottom levels under (et, west)
  std::vector<double> prio;    ///< bottom + max in-edge cost
  std::vector<TaskId> order;   ///< topological order (graph-constant)
};

/// The step log and priority arrays of one evaluation stream. Not
/// thread-safe by design; see the file comment.
struct IncrementalContext {
  /// The stream's allocation-dependent arrays and topological order.
  PriorityState prio_state;

  /// The previous pass's placements in commit order (frozen-prefix tasks
  /// excluded: the prefix is constant across a stream). A pass replays
  /// them while its picks match, then overwrites the rest in place with
  /// the steps it scans, so the record holds exactly one evaluation and
  /// reuses the step buffers. A pass that throws leaves the record
  /// half-overwritten; the context must then be discarded, as LoC-MPS's
  /// is with the exception.
  std::vector<ReplayStep> steps;
};

}  // namespace locmps
