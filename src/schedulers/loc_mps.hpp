#pragma once
/// \file loc_mps.hpp
/// LoC-MPS — Locality Conscious Mixed Parallel allocation and Scheduling
/// (Algorithm 1 of the paper).
///
/// Starting from a pure task-parallel allocation (one processor per task),
/// LoC-MPS iteratively attacks the critical path of the *schedule* DAG G'
/// (which includes resource-induced pseudo-dependences):
///  * if computation dominates the path, the best candidate task — good
///    execution-time gain, low concurrency ratio — is widened by one
///    processor (Section III-C);
///  * if communication dominates, the heaviest path edge gets more parallel
///    transfer streams by widening its thinner endpoint (Section III-D).
/// A bounded look-ahead (default 20 refinements) may pass through worse
/// schedules to escape local minima (Section III-E); a look-ahead that ends
/// no better than it started marks its entry task/edge as a bad starting
/// point. The schedule for each trial allocation comes from LoCBS.

#include "schedulers/locbs.hpp"
#include "schedulers/scheduler.hpp"

namespace locmps {

/// Tunables of LoC-MPS. Defaults are the paper's constants.
struct LocMPSOptions {
  /// Refinements explored per look-ahead before reverting to the best
  /// allocation seen (the paper found 20 to work well).
  std::size_t look_ahead_depth = 20;

  /// Fraction of the gain-sorted candidate list from which the minimum
  /// concurrency-ratio task is picked (the paper's top 10%).
  double candidate_top_fraction = 0.10;

  /// Let the bad-entry marks constrain every look-ahead step, not just the
  /// first (the paper's text binds them at iter 0 only). Without this the
  /// walk keeps revisiting saturated tasks whose widenings always fail and
  /// never explores the rest of the critical path; binding the marks
  /// throughout reproduces the paper's reported dominance (see DESIGN.md).
  bool marks_bind_lookahead = true;

  /// Scheduler used to realize each trial allocation.
  LocBSOptions locbs;

  /// Safety valve: hard cap on LoCBS calls (the algorithm converges long
  /// before this on the paper's workloads). Calls are what
  /// SchedulerResult::iterations reports: every LoCBS pass plus one charge
  /// per look-ahead round, which keeps the walk's realization of the
  /// incumbent instead of re-running it. The search therefore runs at most
  /// this many passes; only the final traced or perturbed realization
  /// (loc_mps.cpp) may add one more, and the initial pass always runs.
  std::size_t max_locbs_calls = 100000;

  /// Incremental replanning (docs/incremental.md): each LoCBS evaluation
  /// of the refinement stream replays the placement prefix it shares with
  /// the previous evaluation instead of re-scanning every hole. Schedules,
  /// counters (minus the digest-excluded `incr.*` family), and analyses
  /// stay bit-identical to the from-scratch path —
  /// tests/test_incremental.cpp enforces this differentially on every
  /// workload. false = always from-scratch (the oracle side of the
  /// differential harness).
  bool incremental = true;
};

/// The LoC-MPS scheduling scheme.
class LocMPSScheduler final : public Scheduler {
 public:
  explicit LocMPSScheduler(LocMPSOptions opt = {}) : opt_(opt) {}

  std::string name() const override {
    if (opt_.locbs.comm_blind) return "iCASLB";
    return opt_.locbs.backfill ? "LoC-MPS" : "LoC-MPS-nbf";
  }

  SchedulerResult schedule(const TaskGraph& g,
                           const Cluster& cluster) const override;

  /// Online-rescheduling entry point: re-optimizes the allocation and
  /// placement of every task NOT frozen in \p fixed, packing around the
  /// frozen tasks' committed windows (see schedulers/online.hpp). Frozen
  /// tasks keep their processor counts.
  SchedulerResult schedule_with_fixed(const TaskGraph& g,
                                      const Cluster& cluster,
                                      const FixedPrefix& fixed) const;

  const LocMPSOptions& options() const { return opt_; }

 private:
  SchedulerResult run(const TaskGraph& g, const Cluster& cluster,
                      const FixedPrefix* fixed) const;

  LocMPSOptions opt_;
};

}  // namespace locmps
