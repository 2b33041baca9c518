#include "faults/robustness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "faults/recovery.hpp"
#include "network/comm_model.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

TaskGraph workload(std::uint64_t seed) {
  SyntheticParams p;
  p.ccr = 0.4;
  p.max_procs = 8;
  p.min_tasks = 16;
  p.max_tasks = 24;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

/// A perturbation family whose windows land inside the schedule.
RobustnessOptions family_for(double nominal, std::uint64_t seed,
                             std::size_t samples = 8) {
  RobustnessOptions opt;
  opt.samples = samples;
  opt.perturb.seed = seed;
  opt.perturb.slow_factor = 4.0;
  opt.perturb.horizon_s = nominal;
  opt.perturb.slow_duration_s = 0.5 * nominal;
  opt.perturb.link_windows = 2;
  opt.perturb.link_duration_s = 0.2 * nominal;
  return opt;
}

/// Same deterministic textual event capture as tests/test_recovery.cpp.
class CollectingSink final : public obs::EventSink {
 public:
  void emit(const obs::Event& e) override {
    std::ostringstream os;
    os << e.name();
    for (const auto& [k, v] : e.fields()) {
      os << ' ' << k << '=';
      std::visit([&](const auto& x) { write(os, x); }, v);
    }
    lines.push_back(os.str());
  }
  std::vector<std::string> lines;

 private:
  static void write(std::ostream& os, bool b) { os << (b ? "T" : "F"); }
  static void write(std::ostream& os, std::int64_t i) { os << i; }
  static void write(std::ostream& os, double d) {
    os << std::setprecision(17) << d;
  }
  static void write(std::ostream& os, const std::string& s) { os << s; }
};

/// Forwards every event to both sinks (JSONL digest + textual capture of
/// one run).
class FanoutSink final : public obs::EventSink {
 public:
  FanoutSink(obs::EventSink* a, obs::EventSink* b) : a_(a), b_(b) {}
  void emit(const obs::Event& e) override {
    a_->emit(e);
    b_->emit(e);
  }

 private:
  obs::EventSink* a_;
  obs::EventSink* b_;
};

// ---------------------------------------------------------------------------
// Monte-Carlo robustness scoring.

TEST(Robustness, RejectsMalformedInputs) {
  const TaskGraph g = workload(1);
  const Cluster c(8);
  const CommModel m(c);
  const SchedulerResult plan = LocMPSScheduler().schedule(g, c);

  RobustnessOptions zero;
  zero.samples = 0;
  EXPECT_THROW(score_robustness(g, plan.schedule, m, zero),
               std::invalid_argument);

  Schedule incomplete(g.num_tasks(), c.processors);
  EXPECT_THROW(score_robustness(g, incomplete, m),
               std::invalid_argument);

  RobustnessOptions bad;
  bad.perturb.slow_factor = 0.5;
  EXPECT_THROW(score_robustness(g, plan.schedule, m, bad),
               std::invalid_argument);
}

TEST(Robustness, ReportsAConsistentDistribution) {
  const TaskGraph g = workload(2);
  const Cluster c(8);
  const CommModel m(c);
  const SchedulerResult plan = LocMPSScheduler().schedule(g, c);
  const double nominal = simulate_execution(g, plan.schedule, m).makespan;

  const RobustnessReport r =
      score_robustness(g, plan.schedule, m, family_for(nominal, 3, 16));
  EXPECT_EQ(r.samples, 16u);
  ASSERT_EQ(r.makespans.size(), 16u);
  EXPECT_DOUBLE_EQ(r.nominal_makespan, nominal);

  const double lo = *std::min_element(r.makespans.begin(), r.makespans.end());
  const double hi = *std::max_element(r.makespans.begin(), r.makespans.end());
  EXPECT_DOUBLE_EQ(r.worst, hi);
  EXPECT_GE(r.p95, r.median.median);
  EXPECT_LE(r.p95, r.worst);
  EXPECT_GE(r.mean, lo);
  EXPECT_LE(r.mean, hi);
  EXPECT_GE(r.median.lo, lo);
  EXPECT_LE(r.median.hi, hi);
  EXPECT_DOUBLE_EQ(r.p95_over_nominal, r.p95 / nominal);

  // Performance faults only ever delay this work-conserving replay.
  EXPECT_GE(lo, nominal);
  EXPECT_GT(r.stretch_seconds, 0.0);
}

TEST(Robustness, ScoreIsAPureFunctionOfItsInputs) {
  const TaskGraph g = workload(3);
  const Cluster c(8);
  const CommModel m(c);
  const SchedulerResult plan = LocMPSScheduler().schedule(g, c);
  const double nominal = simulate_execution(g, plan.schedule, m).makespan;

  const RobustnessOptions opt = family_for(nominal, 9);
  const RobustnessReport a = score_robustness(g, plan.schedule, m, opt);
  const RobustnessReport b = score_robustness(g, plan.schedule, m, opt);
  ASSERT_EQ(a.makespans.size(), b.makespans.size());
  for (std::size_t i = 0; i < a.makespans.size(); ++i)
    EXPECT_EQ(a.makespans[i], b.makespans[i]);  // bit-identical
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.worst, b.worst);
  EXPECT_EQ(a.median.median, b.median.median);
  EXPECT_EQ(a.stretch_seconds, b.stretch_seconds);

  // A different family seed draws a different ensemble.
  RobustnessOptions other = opt;
  other.perturb.seed = 10;
  const RobustnessReport d = score_robustness(g, plan.schedule, m, other);
  bool differs = false;
  for (std::size_t i = 0; !differs && i < a.makespans.size(); ++i)
    differs = a.makespans[i] != d.makespans[i];
  EXPECT_TRUE(differs) << "the ensemble seed does not matter";
}

TEST(Robustness, ObservabilityReconcilesWithTheReport) {
  const TaskGraph g = workload(4);
  const Cluster c(8);
  const CommModel m(c);
  const SchedulerResult plan = LocMPSScheduler().schedule(g, c);
  const double nominal = simulate_execution(g, plan.schedule, m).makespan;

  std::ostringstream jsonl;
  obs::MetricsRegistry met;
  obs::JsonlSink sink(jsonl);
  obs::ObsContext ctx{&met, &sink};
  RobustnessOptions opt = family_for(nominal, 5);
  opt.obs = &ctx;
  const RobustnessReport r = score_robustness(g, plan.schedule, m, opt);

  const obs::MetricsSnapshot snap = met.snapshot();
  EXPECT_EQ(snap.counter("robust.samples"), static_cast<double>(r.samples));
  EXPECT_EQ(snap.counter("robust.nominal"), r.nominal_makespan);
  EXPECT_EQ(snap.counter("robust.median"), r.median.median);
  EXPECT_EQ(snap.counter("robust.p95"), r.p95);
  EXPECT_EQ(snap.counter("robust.worst"), r.worst);

  std::istringstream in(jsonl.str());
  const auto digest = obs::summarize_trace(obs::read_trace(in), g.num_tasks());
  EXPECT_EQ(digest.robust_samples, r.samples);
}

TEST(Robustness, JoinsFillTheAnalysisPanels) {
  RobustnessReport r;
  r.samples = 4;
  r.nominal_makespan = 100.0;
  r.mean = 110.0;
  r.worst = 140.0;
  r.p95 = 130.0;
  r.median.median = 105.0;
  r.median.lo = 101.0;
  r.median.hi = 120.0;
  r.p95_over_nominal = 1.3;
  obs::ScheduleAnalysis a;
  join_robustness(a, r);
  EXPECT_EQ(a.robustness.samples, 4u);
  EXPECT_DOUBLE_EQ(a.robustness.p95, 130.0);
  EXPECT_DOUBLE_EQ(a.robustness.p95_over_nominal, 1.3);

  const PerturbationPlan plan(4, {{3, 7.0, 9.0, 2.5}, {1, 2.0, 5.0, 4.0}},
                              {});
  join_perturbation(a, plan);
  ASSERT_EQ(a.slowdown_windows.size(), 2u);
  EXPECT_EQ(a.slowdown_windows[0].proc, 1u);  // sorted by onset
  EXPECT_DOUBLE_EQ(a.slowdown_windows[0].begin_s, 2.0);
  EXPECT_DOUBLE_EQ(a.slowdown_windows[0].factor, 4.0);
  EXPECT_EQ(a.slowdown_windows[1].proc, 3u);
}

// ---------------------------------------------------------------------------
// Straggler detection and mitigation inside run_with_faults.

struct StragglerRun {
  RecoveryResult result;
  obs::TraceSummary digest;
  obs::MetricsSnapshot snap;
  std::vector<std::string> trace;
};

StragglerRun run_stragglers(const TaskGraph& g, const Cluster& c,
                            const PerturbationPlan& perturb,
                            StragglerMitigation mitigation) {
  std::ostringstream jsonl;
  CollectingSink collect;
  obs::MetricsRegistry met;
  obs::JsonlSink js(jsonl);
  FanoutSink sink(&js, &collect);
  obs::ObsContext ctx{&met, &sink};
  RecoveryOptions opt;
  opt.perturb = &perturb;
  opt.straggler_threshold = 1.5;
  opt.straggler_mitigation = mitigation;
  opt.obs = &ctx;
  StragglerRun out;
  out.result = run_with_faults(g, c, FaultPlan(c.processors), opt);
  std::istringstream in(jsonl.str());
  out.digest = obs::summarize_trace(obs::read_trace(in), g.num_tasks());
  out.snap = met.snapshot();
  out.trace = collect.lines;
  return out;
}

/// A slowdown script that reliably creates stragglers: half the cluster
/// runs 5x slower across the busy part of the schedule.
PerturbationPlan stragglers_for(const TaskGraph& g, const Cluster& c,
                                std::uint64_t seed) {
  const double base = LocMPSScheduler().schedule(g, c).estimated_makespan;
  PerturbationParams prm;
  prm.slow_fraction = 0.5;
  prm.slow_factor = 5.0;
  prm.horizon_s = 0.6 * base;
  prm.slow_duration_s = 0.8 * base;
  prm.seed = seed;
  return make_perturbation_plan(c.processors, g.num_tasks(), prm);
}

TEST(Straggler, MitigationAccountingReconcilesAcrossAllThreeBooks) {
  const TaskGraph g = workload(7);
  const Cluster c(16);
  const PerturbationPlan perturb = stragglers_for(g, c, 31);

  for (const StragglerMitigation mit :
       {StragglerMitigation::kSpeculate, StragglerMitigation::kReplan}) {
    const StragglerRun r = run_stragglers(g, c, perturb, mit);
    const RecoveryResult& res = r.result;
    ASSERT_TRUE(res.completed) << res.error;
    ASSERT_GT(res.stragglers, 0u)
        << "the script produced no stragglers; the test proves nothing";

    // Counters, decision trace, and RecoveryResult are three independently
    // maintained books of the same run; they must agree exactly.
    EXPECT_EQ(r.snap.counter("mitigation.stragglers"),
              static_cast<double>(res.stragglers));
    EXPECT_EQ(r.digest.mitigation_stragglers, res.stragglers);
    EXPECT_EQ(r.snap.counter("mitigation.speculations"),
              static_cast<double>(res.speculations));
    EXPECT_EQ(r.digest.mitigation_speculations, res.speculations);
    EXPECT_EQ(res.spec_wins + res.spec_losses, res.speculations);
    EXPECT_EQ(r.snap.counter("mitigation.spec_wins"),
              static_cast<double>(res.spec_wins));
    EXPECT_EQ(r.snap.counter("mitigation.spec_losses"),
              static_cast<double>(res.spec_losses));
    EXPECT_EQ(r.snap.counter("mitigation.replans"),
              static_cast<double>(res.straggler_replans));
    EXPECT_EQ(r.digest.mitigation_replans, res.straggler_replans);
    EXPECT_NEAR(r.snap.counter("mitigation.wasted_seconds"),
                res.mitigation_wasted_seconds, 1e-9);
    EXPECT_NEAR(r.digest.mitigation_wasted_s, res.mitigation_wasted_seconds,
                1e-9);
    if (mit == StragglerMitigation::kSpeculate) {
      EXPECT_EQ(res.straggler_replans, 0u);
      EXPECT_GT(res.speculations, 0u);
    } else {
      EXPECT_EQ(res.speculations, 0u);
      EXPECT_GT(res.straggler_replans, 0u);
    }

    // The recovered execution is complete and the realized makespan covers
    // the clean plan (slowdowns only ever delay a work-conserving replay).
    EXPECT_GE(res.makespan, res.planned_makespan - 1e-9);
  }
}

TEST(Straggler, EachStragglerIsMitigatedAtMostOnce) {
  const TaskGraph g = workload(7);
  const Cluster c(16);
  const PerturbationPlan perturb = stragglers_for(g, c, 31);
  const StragglerRun r =
      run_stragglers(g, c, perturb, StragglerMitigation::kSpeculate);
  ASSERT_TRUE(r.result.completed) << r.result.error;
  ASSERT_GT(r.result.stragglers, 0u);
  // Convergence: every detected straggler is mitigated exactly once, so
  // rounds are bounded by stragglers + the final clean round.
  EXPECT_EQ(r.result.speculations, r.result.stragglers);
  EXPECT_LE(r.result.rounds, r.result.stragglers + 1);
}

TEST(Straggler, SpeculativeCopyWinsOnAnIdleCleanProcessor) {
  // Two serial tasks in a chain on a two-processor cluster; whichever
  // processor the planner picks runs 4x slower for the whole horizon. The
  // first-finisher race is hand-computable: each straggler's copy launches
  // on the idle clean processor, runs at full speed, and wins.
  const TaskGraph g = test::chain(2, 10.0, 1);
  const Cluster c(2, 100.0);
  const SchedulerResult plan = LocMPSScheduler().schedule(g, c);
  const ProcId slow = plan.schedule.at(0).procs.first();
  const PerturbationPlan perturb(2, {{slow, 0.0, 1000.0, 4.0}}, {});

  const StragglerRun r =
      run_stragglers(g, c, perturb, StragglerMitigation::kSpeculate);
  const RecoveryResult& res = r.result;
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_GT(res.stragglers, 0u);
  EXPECT_EQ(res.speculations, res.stragglers);
  EXPECT_GT(res.spec_wins, 0u);
  EXPECT_GT(res.mitigation_wasted_seconds, 0.0);

  // The adopted copies run on the clean processor and launch no earlier
  // than their detection instants (1.5 x the 10 s modeled time).
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const Placement& pe = res.executed.at(t);
    if (pe.procs.contains(slow)) continue;  // never mitigated
    EXPECT_GE(pe.start, 15.0);
  }

  // Mitigation beats riding out the slowdown: the unmitigated perturbed
  // replay stretches every task 4x.
  RecoveryOptions off;
  off.perturb = &perturb;
  const RecoveryResult raw =
      run_with_faults(g, c, FaultPlan(c.processors), off);
  ASSERT_TRUE(raw.completed) << raw.error;
  EXPECT_LT(res.makespan, raw.makespan);
}

}  // namespace
}  // namespace locmps
