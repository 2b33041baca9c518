#pragma once
/// \file recovery.hpp
/// Fault-tolerant execution of a task graph under an injected FaultPlan.
///
/// run_with_faults() closes the loop the paper leaves to a runtime
/// framework (§VI): it plans with LoC-MPS, replays the plan through the
/// event simulator with fail-stop faults injected, and — whenever a
/// processor failure kills work — recovers and carries on, with one of two
/// policies:
///
///  * **retry-in-place** keeps the schedule and re-runs each killed task on
///    its original processors once they are repaired, after an exponential
///    backoff. Bounded restarts; a structured failure is returned when a
///    needed processor never repairs or a task exhausts its retries.
///  * **degraded-cluster replan** masks every processor known failed at the
///    recovery instant out of the survivor ProcessorSet, freezes all work
///    already committed (via LoCBS FixedPrefix), and re-runs LoC-MPS on the
///    survivors. Degrades gracefully down to `min_procs` survivors and
///    returns a structured failure below that.
///
/// Performance faults (faults/perturbation.hpp) close a second loop:
/// straggler *detection* declares a task a straggler the instant it has run
/// straggler_threshold x its modeled time without finishing, and mitigates
/// with one of two policies — **speculative re-execution** launches a copy
/// of the straggler on the least-loaded idle processors, the first finisher
/// wins and the loser is cancelled with its processor-seconds accounted as
/// waste, or **straggler replan**, which masks the slowed processors and
/// reuses the degraded-replan FixedPrefix path. Each straggler is mitigated
/// at most once, so the loop converges.
///
/// Determinism: the whole loop is a pure function of (graph, cluster,
/// plan, options). Faults, kills, retries and replans are counted in the
/// metrics registry ("fault.*" / "recovery.*") and emitted on the decision
/// trace; the final clean execution flushes the usual "sim.*" telemetry so
/// a faulty run reconciles end-to-end like a fault-free one.

#include <cstddef>
#include <string>

#include "cluster/cluster.hpp"
#include "faults/fault_plan.hpp"
#include "faults/perturbation.hpp"
#include "graph/task_graph.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "schedule/schedule.hpp"
#include "schedulers/loc_mps.hpp"

namespace locmps {

/// How run_with_faults reacts to killed work.
enum class RecoveryPolicy {
  kRetryInPlace,    ///< re-run killed tasks on their original processors
  kDegradedReplan,  ///< mask failed processors and re-plan on the survivors
};

/// Table label of a policy ("retry" / "replan").
const char* to_string(RecoveryPolicy p);

/// How run_with_faults mitigates a detected straggler.
enum class StragglerMitigation {
  kSpeculate,  ///< launch a speculative copy; first finisher wins
  kReplan,     ///< mask the slowed processors and replan via FixedPrefix
};

/// Table label of a mitigation ("speculate" / "replan").
const char* to_string(StragglerMitigation m);

/// Knobs of the recovery executor.
struct RecoveryOptions {
  RecoveryPolicy policy = RecoveryPolicy::kDegradedReplan;

  /// Retry-in-place: restarts allowed per task before giving up.
  std::size_t max_retries = 3;
  /// Retry-in-place backoff: attempt k waits backoff_base_s *
  /// backoff_factor^(k-1) after the processors are usable again.
  double backoff_base_s = 1.0;
  double backoff_factor = 2.0;

  /// Degraded replan: minimum survivor count; fewer survivors is a
  /// structured failure (completed == false).
  std::size_t min_procs = 1;

  /// Runtime noise of the underlying simulation (same semantics as
  /// SimOptions::runtime_noise; one factor per task, fixed for the whole
  /// recovery loop so every round replays identically).
  double runtime_noise = 0.0;
  std::uint64_t seed = 42;

  /// Optional performance-fault script injected into every simulation
  /// round (SimOptions::perturb). Null = model-exact execution. Must be
  /// sized for the cluster; the caller keeps ownership.
  const PerturbationPlan* perturb = nullptr;

  /// Straggler detection threshold: a task still running at
  /// straggler_threshold x its modeled time is declared a straggler at
  /// that instant and mitigated. 0 (the default) disables detection;
  /// values in (0, 1] are rejected (detection would fire before the
  /// modeled finish).
  double straggler_threshold = 0.0;

  /// Mitigation applied to detected stragglers.
  StragglerMitigation straggler_mitigation = StragglerMitigation::kSpeculate;

  /// Planner used for the initial plan and for degraded replans.
  LocMPSOptions planner;

  /// Safety valve on recovery rounds (the policies terminate long before
  /// this: retries are bounded per task and each replan masks at least one
  /// new processor).
  std::size_t max_rounds = 1024;

  /// Optional observability: "fault.*" / "recovery.*" counters and events,
  /// planner decision telemetry, and the final clean execution's "sim.*"
  /// telemetry all land here; a profiler records the call as one
  /// "recovery.run" span.
  obs::ObsContext* obs = nullptr;
};

/// Outcome of a fault-tolerant run.
struct RecoveryResult {
  /// The realized execution. Complete and valid when completed == true;
  /// on a structured failure it holds the partial execution of the last
  /// round (killed/skipped tasks absent).
  Schedule executed;
  double makespan = 0.0;          ///< realized makespan of `executed`
  double planned_makespan = 0.0;  ///< the initial (fault-free) estimate

  bool completed = false;  ///< every task executed
  std::string error;       ///< reason when completed == false

  std::size_t rounds = 0;             ///< simulation rounds run
  std::size_t kills = 0;              ///< tasks killed by faults (handled)
  std::size_t transfer_timeouts = 0;  ///< kills caused by in-flight transfers
  std::size_t retries = 0;            ///< retry-in-place restarts issued
  std::size_t replans = 0;            ///< degraded replans issued
  double wasted_proc_seconds = 0.0;   ///< processor-time thrown away by kills
  double backoff_seconds = 0.0;       ///< summed retry backoff waits
  ProcessorSet masked;                ///< processors masked out by replans

  // Straggler-mitigation accounting ("mitigation.*" counters and events
  // reconcile with these, three ways — tests/test_robustness.cpp).
  std::size_t stragglers = 0;         ///< stragglers detected
  std::size_t speculations = 0;       ///< speculative copies launched
  std::size_t spec_wins = 0;          ///< the copy finished first
  std::size_t spec_losses = 0;        ///< the original finished first
  std::size_t straggler_replans = 0;  ///< slowdown-triggered replans issued
  /// Processor-seconds of cancelled losers: the straggler's partial run
  /// when a copy or replan supersedes it, the copy's run when the original
  /// wins the race.
  double mitigation_wasted_seconds = 0.0;
};

/// Executes \p g on \p cluster under the failure script \p plan (and the
/// performance-fault script \p opt.perturb, when set). Deterministic:
/// identical inputs give identical results, traces and counter values.
/// Throws std::invalid_argument when \p plan or \p opt.perturb is sized
/// for a different cluster, or when \p opt is malformed (negative backoff,
/// zero retries, min_procs beyond the cluster, ... — every violation is
/// named in the message).
RecoveryResult run_with_faults(const TaskGraph& g, const Cluster& cluster,
                               const FaultPlan& plan,
                               const RecoveryOptions& opt = {});

/// Copies \p plan's failure windows into \p a.fault_windows (sorted by
/// onset) so the XHTML report draws the fault timeline lane. Ground truth
/// alternative to recovering the windows from "fault.fail" trace events.
void join_fault_plan(obs::ScheduleAnalysis& a, const FaultPlan& plan);

}  // namespace locmps
