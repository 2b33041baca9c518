#pragma once
/// \file scheduler.hpp
/// Common interface of all allocation-and-scheduling schemes evaluated in
/// the paper (LoC-MPS, iCASLB, CPR, CPA, TASK, DATA).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "graph/task_graph.hpp"
#include "obs/events.hpp"
#include "schedule/schedule.hpp"

namespace locmps {

/// Processor allocation: np(t) for every task.
using Allocation = std::vector<std::size_t>;

/// Scheme-independent construction knobs, applied by the registry factory
/// (make_scheduler) to every scheduler that supports them.
struct SchedulerOptions {
  /// Slack-aware placement: forwarded to LocBSOptions::slack_factor by
  /// the LoC-MPS-backed schemes (loc-mps, loc-mps-nbf, loc-mps-noloc,
  /// icaslb) and by "task". Inflates modeled execution times during the
  /// hole scan so schedules carry headroom against performance faults
  /// (see schedulers/locbs.hpp). 1.0 = the paper's tight packing; ignored
  /// by "sa", "data" and the list-scheduling baselines.
  double slack_factor = 1.0;

  /// Seeded-divergence hook: forwarded to LocBSOptions::perturb_task by
  /// the same schemes as slack_factor (see schedulers/locbs.hpp). The
  /// named task adopts the distinct runner-up of its final placement
  /// scan, giving differential attribution (obs/rundiff.hpp) a controlled
  /// single-flip run to diff against. Ignored by the other schemes.
  TaskId perturb_task = kNoTask;

  /// Incremental replanning (docs/incremental.md): LoC-MPS-backed schemes
  /// replay the placement prefix each refinement-round LoCBS evaluation
  /// shares with the previous one instead of re-scanning every task.
  /// Results are bit-identical to the from-scratch path (the differential
  /// oracle of tests/test_incremental); false forces the from-scratch
  /// reference. Ignored by schemes without LoCBS.
  bool incremental = true;

  /// When > 0, caps the planner's refinement budget: for LoC-MPS-backed
  /// schemes, LocMPSOptions::max_locbs_calls, which counts LoCBS passes
  /// plus one charge per look-ahead round, as `iterations` does. The
  /// search runs at most this many passes; only a final traced or
  /// perturbed realization may add one. Bounds planning time on very
  /// large graphs — the |V| >= 2000 fig10 panel runs under such a cap. 0
  /// (the default) keeps each scheme's own safety valve. Ignored by
  /// one-shot schemes.
  std::size_t plan_budget = 0;
};

/// Output of a scheduling scheme.
struct SchedulerResult {
  Schedule schedule;           ///< complete placement of every task
  Allocation allocation;       ///< np(t) chosen by the scheme
  double estimated_makespan = 0.0;  ///< the scheme's own makespan estimate
  std::size_t iterations = 0;  ///< refinement iterations (0 for one-shot)
};

/// A mixed-parallel allocation-and-scheduling algorithm.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Short identifier used in tables ("LoC-MPS", "CPA", ...).
  virtual std::string name() const = 0;

  /// Computes a complete schedule of \p g on \p cluster.
  virtual SchedulerResult schedule(const TaskGraph& g,
                                   const Cluster& cluster) const = 0;

  /// Attaches an observability context for subsequent schedule() calls
  /// (counters, profiler spans, decision events — see src/obs/). Null (the
  /// default) disables instrumentation at the cost of a single branch.
  /// The caller keeps ownership and must outlive the scheduling calls.
  void attach_observability(obs::ObsContext* obs) { obs_ = obs; }

  /// The attached context, or null. Schedulers forward this into their
  /// instrumented internals (LoC-MPS threads it through every LoCBS pass).
  obs::ObsContext* observability() const { return obs_; }

 private:
  obs::ObsContext* obs_ = nullptr;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

}  // namespace locmps
