#include "faults/robustness.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "obs/analysis.hpp"
#include "obs/profile.hpp"
#include "util/rng.hpp"

namespace locmps {

RobustnessReport score_robustness(const TaskGraph& g, const Schedule& s,
                                  const CommModel& comm,
                                  const RobustnessOptions& opt) {
  if (opt.samples == 0)
    throw std::invalid_argument("score_robustness: samples must be >= 1");
  if (!s.complete())
    throw std::invalid_argument("score_robustness: incomplete schedule");

  obs::ObsContext* const obs = opt.obs;
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  LOCMPS_SPAN(obs, "robust.score");

  const std::size_t P = s.num_procs();
  const std::size_t n = g.num_tasks();

  SimOptions base;
  base.single_port = opt.single_port;
  base.locality_volumes = opt.locality_volumes;

  RobustnessReport rep;
  rep.samples = opt.samples;
  rep.nominal_makespan = simulate_execution(g, s, comm, base).makespan;

  // Pre-draw the per-sample seeds so the ensemble is a pure function of
  // perturb.seed regardless of evaluation order.
  Rng root(opt.perturb.seed);
  std::vector<std::uint64_t> seeds(opt.samples);
  for (auto& sd : seeds) sd = root.next();

  rep.makespans.reserve(opt.samples);
  for (std::size_t i = 0; i < opt.samples; ++i) {
    PerturbationParams prm = opt.perturb;
    prm.seed = seeds[i];
    const PerturbationPlan plan = make_perturbation_plan(P, n, prm);
    SimOptions so = base;
    so.perturb = &plan;
    const SimResult run = simulate_execution(g, s, comm, so);
    rep.makespans.push_back(run.makespan);
    rep.stretch_seconds += run.stretch_seconds;
    rep.link_delay_seconds += run.link_delay_seconds;
    if (obs::wants_events(obs))
      obs->sink->emit(obs::Event("robust.sample")
                          .with("sample", static_cast<std::uint64_t>(i))
                          .with("makespan", run.makespan)
                          .with("slowed_tasks", static_cast<std::uint64_t>(
                                                    run.slowed_tasks))
                          .with("stretch_s", run.stretch_seconds)
                          .with("link_delay_s", run.link_delay_seconds));
  }

  rep.mean = mean(rep.makespans);
  rep.p95 = quantile(rep.makespans, 0.95);
  rep.worst = *std::max_element(rep.makespans.begin(), rep.makespans.end(),
                                total_less);
  rep.median = median_ci(rep.makespans, opt.confidence);
  rep.p95_over_nominal =
      rep.nominal_makespan > 0.0 ? rep.p95 / rep.nominal_makespan : 1.0;

  if (met != nullptr) {
    met->set("robust.samples", static_cast<double>(rep.samples));
    met->set("robust.nominal", rep.nominal_makespan);
    met->set("robust.median", rep.median.median);
    met->set("robust.p95", rep.p95);
    met->set("robust.worst", rep.worst);
  }
  return rep;
}

void join_robustness(obs::ScheduleAnalysis& a, const RobustnessReport& r) {
  a.robustness.samples = r.samples;
  a.robustness.nominal = r.nominal_makespan;
  a.robustness.mean = r.mean;
  a.robustness.median = r.median.median;
  a.robustness.median_lo = r.median.lo;
  a.robustness.median_hi = r.median.hi;
  a.robustness.p95 = r.p95;
  a.robustness.worst = r.worst;
  a.robustness.p95_over_nominal = r.p95_over_nominal;
}

void join_perturbation(obs::ScheduleAnalysis& a,
                       const PerturbationPlan& plan) {
  a.slowdown_windows.clear();
  for (const SlowdownInterval& iv : plan.slowdowns()) {
    obs::SlowdownWindow w;
    w.proc = iv.proc;
    w.begin_s = iv.begin;
    w.end_s = iv.end;
    w.factor = iv.factor;
    a.slowdown_windows.push_back(w);
  }
  std::sort(a.slowdown_windows.begin(), a.slowdown_windows.end(),
            [](const obs::SlowdownWindow& x, const obs::SlowdownWindow& y) {
              // Deterministic sort key tie-break. LINT-ALLOW(float-eq)
              if (x.begin_s != y.begin_s) return x.begin_s < y.begin_s;
              return x.proc < y.proc;
            });
}

}  // namespace locmps
