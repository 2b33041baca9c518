#pragma once
/// \file locbs.hpp
/// LoCBS — Locality Conscious Backfill Scheduling (Algorithm 2).
///
/// Given a processor allocation np(t), LoCBS maps every task onto a concrete
/// processor set and start time. It is a priority-based backfill scheduler:
/// the 2-D (time x processor) chart is packed by placing each ready task in
/// the idle slot ("hole") that minimizes its finish time, choosing within a
/// hole the processor subset with maximum data locality so that part of the
/// input data needs no redistribution. Tasks delayed by resource limits get
/// pseudo-edges in the schedule-DAG G', which LoC-MPS uses to find the
/// schedule's true critical path.

#include "network/comm_model.hpp"
#include "obs/events.hpp"
#include "schedule/schedule.hpp"
#include "schedule/schedule_dag.hpp"
#include "schedulers/scheduler.hpp"

namespace locmps {

class IncrementalContext;  // schedulers/incremental.hpp

/// Behavioural switches of LoCBS (used for the paper's ablations).
struct LocBSOptions {
  /// Backfill into idle slots. When false, only the latest free time of
  /// each processor is tracked (the cheaper scheme of Fig 6).
  bool backfill = true;

  /// Prefer processor subsets that already hold input data and charge only
  /// the remote block-cyclic volume. When false, processors are picked by
  /// availability and the full edge volume is charged.
  bool locality = true;

  /// Treat all communication as free (the iCASLB assumption). Implies that
  /// edge weights, redistribution times and priorities ignore data volumes.
  bool comm_blind = false;

  /// Slack-aware placement: inflate every task's modeled execution time by
  /// this factor during the hole scan, so reservations are longer than the
  /// nominal profile predicts. Feasibility (`window >= tau + exec`) and
  /// occupancy both see the inflated duration, which spreads placements
  /// across processors and leaves headroom that absorbs performance faults
  /// (stragglers, degraded links — see faults/perturbation.hpp). The
  /// realized simulation still runs at profile speed, so the cost is paid
  /// only through placement and ordering changes. 1.0 (the default) is the
  /// paper's tight packing; values < 1.0 are rejected. The robustness
  /// benchmark (bench/ext_robustness.cpp) scores the resulting
  /// mean-makespan vs p95-degradation tradeoff.
  double slack_factor = 1.0;

  /// Seeded-divergence hook for differential attribution (obs/rundiff.hpp)
  /// and its tests: when set, this task adopts the distinct runner-up of
  /// its candidate scan instead of the winner — one controlled placement
  /// flip whose makespan effect `locmps-inspect --diff` must attribute
  /// back to this decision. No-op when the scan produced no distinct
  /// alternative. kNoTask (the default) disables the hook; LoC-MPS keeps
  /// its refinement search unperturbed and applies the flip only in one
  /// extra final realization (schedulers/loc_mps.cpp).
  TaskId perturb_task = kNoTask;
};

/// Result of one LoCBS run.
struct LocBSResult {
  Schedule schedule;
  ScheduleDag dag;  ///< G' with realized vertex/edge times + pseudo-edges
  double makespan = 0.0;
};

/// A fixed prefix of the schedule: tasks that have already started (or
/// finished) executing when a plan is recomputed at run time. Their
/// placements and time windows are taken verbatim from \p placements and
/// the scheduler packs the remaining tasks around them. Used by the online
/// rescheduling extension (schedulers/online.hpp).
struct FixedPrefix {
  /// Per-task flag; true = this task's placement is frozen.
  std::vector<char> frozen;
  /// Source of the frozen placements (every frozen task must be placed).
  const Schedule* placements = nullptr;
  /// Wall-clock instant of the replan: no non-frozen task may acquire
  /// processors earlier than this (the past cannot be scheduled into).
  double not_before = 0.0;
  /// Survivor mask for degraded-cluster replans (faults/recovery.hpp):
  /// when set, non-frozen tasks may only use these processors and their
  /// allocations are capped at the survivor count. Frozen placements are
  /// exempt — work committed before a failure may sit on since-failed
  /// processors. Null (default) = every processor is usable.
  const ProcessorSet* available = nullptr;

  bool is_frozen(TaskId t) const {
    return t < frozen.size() && frozen[t] != 0;
  }

  /// True if processor \p q may be assigned to non-frozen tasks.
  bool usable(ProcId q) const {
    return available == nullptr || available->contains(q);
  }
};

/// Schedules \p g under allocation \p np on comm.cluster().
///
/// \p np must contain one entry per task with 1 <= np[t] <= P. The
/// no-overlap platform model (comm.overlap() == false) makes incoming
/// redistributions occupy the destination processors and serializes them.
/// When \p fixed is given, its frozen tasks are copied into the result
/// unchanged and only the remaining tasks are scheduled.
///
/// \p obs (optional) receives per-placement decision telemetry: "locbs.*"
/// counters (holes scanned, backfill hits, subset choices, local/remote
/// redistribution bytes), a "locbs.pass" phase timer, and one
/// "locbs.place" plus one "locbs.decision" provenance event per task
/// (obs/provenance.hpp documents the record schema). Null — the default —
/// is a zero-cost fast path: all instrumentation hides behind
/// per-placement branches.
///
/// \p incr (optional) is the incremental-replanning context of the
/// caller's evaluation stream (schedulers/incremental.hpp,
/// docs/incremental.md): the pass replays the longest placement prefix
/// that provably matches a recorded earlier evaluation, scans only the
/// dirty remainder, and records itself for future replays. The result —
/// schedule, G', counters — is bit-identical to incr == nullptr (the
/// from-scratch oracle path); only the digest-excluded `incr.*` counters
/// reveal which path ran.
LocBSResult locbs(const TaskGraph& g, const Allocation& np,
                  const CommModel& comm, const LocBSOptions& opt = {},
                  const FixedPrefix* fixed = nullptr,
                  obs::ObsContext* obs = nullptr,
                  IncrementalContext* incr = nullptr);

}  // namespace locmps
