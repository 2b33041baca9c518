#pragma once
/// \file robustness.hpp
/// Monte-Carlo robustness scoring of a schedule under performance faults.
///
/// A schedule's estimated makespan says nothing about how it degrades when
/// processors straggle or links sag. score_robustness() answers that
/// question empirically: it replays ONE schedule through the event
/// simulator under an ensemble of N independently-seeded PerturbationPlans
/// (faults/perturbation.hpp) and reports the resulting makespan
/// distribution — median with a distribution-free CI (util/stats.hpp
/// median_ci), p95, worst case, and the p95/nominal degradation ratio the
/// slack-aware placement benchmark (bench/ext_robustness.cpp) trades off
/// against mean makespan.
///
/// Everything is a pure function of (graph, schedule, comm, options): the
/// per-sample plans derive from RobustnessOptions::perturb.seed, so two
/// calls with identical inputs produce bit-identical reports — which is
/// what lets bench baselines and the CI self-diff gate pin the numbers.

#include <cstddef>
#include <vector>

#include "faults/perturbation.hpp"
#include "obs/events.hpp"
#include "schedule/event_sim.hpp"
#include "util/stats.hpp"

namespace locmps {

/// Knobs of the Monte-Carlo robustness harness.
struct RobustnessOptions {
  /// Ensemble size: perturbation plans drawn and replayed.
  std::size_t samples = 32;

  /// Perturbation family of the ensemble. The per-sample seeds derive
  /// deterministically from perturb.seed (sample i uses the i-th draw of
  /// an Rng seeded with it), so the whole report is a pure function of
  /// this struct.
  PerturbationParams perturb;

  /// Replay knobs forwarded to the simulator (the fault/perturbation and
  /// noise fields of SimOptions are owned by the harness).
  bool single_port = false;
  bool locality_volumes = true;

  /// Confidence level of the median CI.
  double confidence = 0.95;

  /// Optional observability: "robust.*" summary gauges, one
  /// "robust.sample" event per ensemble member, and a "robust.score"
  /// profiler span.
  obs::ObsContext* obs = nullptr;
};

/// The makespan distribution of one schedule under the perturbation
/// ensemble.
struct RobustnessReport {
  std::size_t samples = 0;
  double nominal_makespan = 0.0;  ///< unperturbed replay of the schedule

  std::vector<double> makespans;  ///< per-sample realized makespans

  double mean = 0.0;
  double worst = 0.0;         ///< max over the ensemble
  double p95 = 0.0;           ///< 0.95-quantile
  MedianCI median;            ///< median with order-statistic CI
  /// Degradation ratio p95 / nominal (1.0 when nominal is 0): the number
  /// the slack-factor tradeoff is scored on.
  double p95_over_nominal = 1.0;

  // Ensemble-summed perturbation exposure, for context in reports.
  double stretch_seconds = 0.0;     ///< summed compute stretch
  double link_delay_seconds = 0.0;  ///< summed transfer stretch
};

/// Replays \p s under \p opt.samples independently-seeded perturbation
/// plans and scores the makespan distribution. Throws std::invalid_argument
/// when \p s is incomplete, \p opt.samples is 0, or the perturbation
/// parameters are malformed.
RobustnessReport score_robustness(const TaskGraph& g, const Schedule& s,
                                  const CommModel& comm,
                                  const RobustnessOptions& opt = {});

}  // namespace locmps

// Forward-declared join: fills the analysis' robustness panel from a
// report (obs cannot depend on faults, so the join lives here).
namespace locmps::obs {
struct ScheduleAnalysis;
}
namespace locmps {
/// Copies \p r's distribution summary into \p a.robustness so the XHTML
/// report renders the Robustness panel.
void join_robustness(obs::ScheduleAnalysis& a, const RobustnessReport& r);

/// Copies \p plan's slowdown windows into \p a.slowdown_windows (sorted by
/// onset) so the report draws the straggler lanes. Ground-truth analogue
/// of join_fault_plan.
void join_perturbation(obs::ScheduleAnalysis& a, const PerturbationPlan& plan);
}  // namespace locmps
