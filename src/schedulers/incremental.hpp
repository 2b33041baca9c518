#pragma once
/// \file incremental.hpp
/// Incremental-replanning state shared by the LoCBS evaluations of one
/// refinement stream (docs/incremental.md).
///
/// The LoC-MPS refinement loop evaluates hundreds of allocations that
/// differ from an earlier one by a single widened task. LoCBS is a
/// deterministic list scheduler, so as long as the priority argmax picks
/// the same task with the same processor count as a recorded evaluation,
/// the whole placement — timeline state, finish events, realized G'
/// weights, pseudo-edges, even the per-placement counters — is provably
/// identical, and the recorded step is committed again without scanning
/// a single hole. The first divergent pick ends replay; from there the
/// scan runs in full. A scanned and a replayed placement go through the
/// same commit (schedulers/locbs.cpp). The from-scratch path
/// (LocMPSOptions::incremental = false) never consults this context and
/// serves as the differential-equivalence oracle (tests/test_incremental).
///
/// One IncrementalContext serves one evaluation stream (one LoC-MPS
/// run), so no locking is needed and replay decisions stay
/// bit-deterministic.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/processor_set.hpp"
#include "graph/task_graph.hpp"
#include "schedule/schedule_dag.hpp"
#include "schedulers/scheduler.hpp"

namespace locmps {

/// One placement of a LoCBS pass, as the hole scan found it: everything
/// the commit writes (schedule, timeline, G' weights, pseudo-edges) plus
/// the per-placement telemetry of the scan, so a replayed step leaves
/// counters bit-identical to a re-scan. Every placement is committed from
/// one of these. Recorded steps are immutable and shared between
/// successive records by pointer, so replaying a long prefix costs one
/// refcount bump per step instead of a deep copy.
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
  std::uint8_t subset = 0;  ///< 0 = locality-first win, 1 = horizon-first
  bool pruned = false;
  bool backfilled = false;
  double local_bytes = 0.0;
  double remote_bytes = 0.0;
  double cost_evals = 0.0;  ///< comm.cost_evals delta of this placement
};

/// A full recorded LoCBS evaluation: the allocation it ran under and its
/// placement steps in commit order (frozen-prefix tasks excluded — the
/// prefix is constant across a stream).
struct ReplayRecord {
  Allocation np;
  std::vector<std::shared_ptr<const ReplayStep>> steps;
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

/// Replay state of one evaluation stream. Not thread-safe by design;
/// see the file comment.
class IncrementalContext {
 public:
  /// Recent evaluations kept as replay bases. Records share their step
  /// storage, so keeping a few extra bases is cheap and lets a look-ahead
  /// walk replay against the incumbent realization as well as its own
  /// previous step.
  static constexpr std::size_t kMaxRecords = 8;

  /// The stream's allocation-dependent arrays and topological order.
  PriorityState prio_state;

  /// The record with the longest np-compatible step prefix for \p np, or
  /// null when no record matches even its first step. The estimate only
  /// checks processor counts in recorded commit order; the actual replay
  /// additionally verifies every priority-argmax pick, so this is just a
  /// ranking heuristic — correctness never depends on it.
  const ReplayRecord* pick_record(const Allocation& np) const {
    const ReplayRecord* best = nullptr;
    std::size_t best_len = 0;
    for (const ReplayRecord& r : records_) {
      std::size_t len = 0;
      while (len < r.steps.size() &&
             np[r.steps[len]->task] == r.steps[len]->np)
        ++len;
      if (len > best_len) {
        best_len = len;
        best = &r;
      }
    }
    return best;
  }

  /// Remembers \p rec as the most recent evaluation (LRU, capped).
  void remember(ReplayRecord&& rec) {
    records_.insert(records_.begin(), std::move(rec));
    if (records_.size() > kMaxRecords) records_.pop_back();
  }

 private:
  std::vector<ReplayRecord> records_;
};

}  // namespace locmps
