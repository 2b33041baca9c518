#pragma once
/// \file perturbation.hpp
/// Deterministic performance-fault injection: the complement of fail-stop
/// faults (fault_plan.hpp) for the way real clusters usually misbehave —
/// processors that keep running but slower (stragglers), links that
/// degrade, and runtimes that wobble around the model.
///
/// A PerturbationPlan is a seeded, immutable script of three perturbation
/// families:
///  * **slowdown intervals**: processor q computes at 1/factor speed
///    inside [begin, end). A gang computation advances at the pace of its
///    slowest member, so a task spanning a slowed processor stretches.
///  * **degraded-link windows**: every network transfer progresses at
///    `scale` times the nominal bandwidth inside [begin, end) — the same
///    bandwidth the CommModel prices statically (CommModel::degraded gives
///    the uniformly-degraded counterpart model).
///  * **bounded per-task noise**: one multiplicative runtime factor per
///    task, drawn uniformly from [1 - noise, 1 + noise).
///
/// The event simulator integrates compute and transfer progress piecewise
/// across these windows (SimOptions::perturb), so a perturbed replay is an
/// exact pure function of (schedule, plan) — the same determinism contract
/// as fail-stop injection. The Monte-Carlo robustness harness
/// (faults/robustness.hpp) replays one schedule under an ensemble of these
/// plans to score how much slack the schedule really has.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/processor_set.hpp"

namespace locmps {

/// One processor-slowdown window: q computes `factor` times slower inside.
struct SlowdownInterval {
  ProcId proc = 0;
  double begin = 0.0;
  double end = 0.0;     ///< strictly after begin
  double factor = 1.0;  ///< >= 1; work takes factor x as long inside
};

/// One degraded-link window: all transfers run at `scale` x bandwidth.
struct LinkDegradation {
  double begin = 0.0;
  double end = 0.0;    ///< strictly after begin
  double scale = 1.0;  ///< in (0, 1]; transfer progress rate inside
};

/// An immutable, validated script of performance faults.
class PerturbationPlan {
 public:
  /// Empty plan (model-exact execution) over a cluster of \p processors.
  explicit PerturbationPlan(std::size_t processors = 0)
      : processors_(processors) {
    proc_begin_.assign(processors_ + 1, 0);
  }

  /// Validates and adopts the scripts: slowdown intervals in range, with
  /// factor >= 1 and pairwise-disjoint windows per processor; link windows
  /// pairwise disjoint with scale in (0, 1]; noise factors strictly
  /// positive. Throws std::invalid_argument otherwise.
  PerturbationPlan(std::size_t processors,
                   std::vector<SlowdownInterval> slowdowns,
                   std::vector<LinkDegradation> links,
                   std::vector<double> task_noise = {});

  std::size_t processors() const { return processors_; }
  const std::vector<SlowdownInterval>& slowdowns() const {
    return slowdowns_;
  }
  const std::vector<LinkDegradation>& links() const { return links_; }

  /// Per-task runtime factors; empty means "no noise" (all 1.0). When
  /// non-empty its size must match the task count of the simulated graph.
  const std::vector<double>& task_noise() const { return task_noise_; }

  bool empty() const {
    return slowdowns_.empty() && links_.empty() && task_noise_.empty();
  }

  /// Compute-stretch factor of processor \p q at instant \p t (1.0 when
  /// unperturbed).
  double slowdown(ProcId q, double t) const;

  /// Finish instant of \p work nominal compute-seconds started at \p st on
  /// \p procs: piecewise integration at the slowest-member rate across the
  /// slowdown windows. Returns st + work when nothing intersects.
  double compute_finish(const ProcessorSet& procs, double st,
                        double work) const;

  /// Finish instant of a transfer of nominal duration \p dur started at
  /// \p st: piecewise integration across the degraded-link windows.
  double transfer_finish(double st, double dur) const;

 private:
  std::size_t processors_ = 0;
  std::vector<SlowdownInterval> slowdowns_;  // sorted by (proc, begin)
  std::vector<std::size_t> proc_begin_;      // CSR offsets into slowdowns_
  std::vector<LinkDegradation> links_;       // sorted by begin, disjoint
  std::vector<double> task_noise_;
};

/// Knobs of the seeded perturbation generator.
struct PerturbationParams {
  /// Fraction of the cluster that straggles (one slowdown window each,
  /// rounded to nearest, clamped so min_unperturbed procs stay clean).
  double slow_fraction = 0.25;

  /// Stretch of a slowed processor: factor = 1 + (slow_factor - 1) * u
  /// with u uniform in [0.5, 1.5). slow_factor = 1 disables slowdowns.
  double slow_factor = 2.0;

  /// Mean slowdown window length: duration = u * slow_duration_s with u
  /// uniform in [0.5, 1.5).
  double slow_duration_s = 20.0;

  /// Slowdown onsets are drawn uniformly from [0, horizon_s); pick the
  /// clean makespan (or a fraction) so windows land inside the execution.
  double horizon_s = 100.0;

  /// Number of degraded-link windows, drawn one per equal stratum of the
  /// horizon (so they are disjoint by construction). 0 = clean network.
  std::size_t link_windows = 0;

  /// Bandwidth multiplier inside a degraded window, in (0, 1].
  double link_scale = 0.5;

  /// Mean degraded-window length (clamped into its stratum).
  double link_duration_s = 10.0;

  /// Half-width of the bounded per-task runtime noise: factors uniform in
  /// [1 - task_noise, 1 + task_noise). 0 = exact runtimes. Must be < 1.
  double task_noise = 0.0;

  /// Processors never picked to straggle, bounding degradation.
  std::size_t min_unperturbed = 1;

  /// Seed; the plan is a pure function of (processors, num_tasks, params).
  std::uint64_t seed = 42;
};

/// Draws a deterministic PerturbationPlan for a cluster of \p processors
/// and a graph of \p num_tasks tasks. Throws std::invalid_argument on
/// nonsensical parameters.
PerturbationPlan make_perturbation_plan(std::size_t processors,
                                        std::size_t num_tasks,
                                        const PerturbationParams& prm);

}  // namespace locmps
