#include "faults/perturbation.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "network/comm_model.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedule/event_sim.hpp"
#include "test_util.hpp"

namespace locmps {
namespace {

// ---------------------------------------------------------------------------
// PerturbationPlan: validation.

TEST(PerturbationPlan, RejectsMalformedScripts) {
  EXPECT_THROW(PerturbationPlan(2, {{2, 0.0, 1.0, 2.0}}, {}),
               std::invalid_argument);  // proc out of range
  EXPECT_THROW(PerturbationPlan(2, {{0, -1.0, 1.0, 2.0}}, {}),
               std::invalid_argument);  // negative onset
  EXPECT_THROW(PerturbationPlan(2, {{0, 5.0, 5.0, 2.0}}, {}),
               std::invalid_argument);  // window not after onset
  EXPECT_THROW(PerturbationPlan(2, {{0, 0.0, 1.0, 0.5}}, {}),
               std::invalid_argument);  // factor below 1
  EXPECT_THROW(PerturbationPlan(2, {{0, 0.0, 5.0, 2.0}, {0, 4.0, 8.0, 3.0}},
                                {}),
               std::invalid_argument);  // overlapping windows on one proc
  EXPECT_THROW(PerturbationPlan(2, {}, {{5.0, 4.0, 0.5}}),
               std::invalid_argument);  // link window ends before it begins
  EXPECT_THROW(PerturbationPlan(2, {}, {{0.0, 5.0, 0.0}}),
               std::invalid_argument);  // link scale out of (0, 1]
  EXPECT_THROW(PerturbationPlan(2, {}, {{0.0, 5.0, 1.5}}),
               std::invalid_argument);  // link scale out of (0, 1]
  EXPECT_THROW(PerturbationPlan(2, {}, {{0.0, 5.0, 0.5}, {4.0, 8.0, 0.5}}),
               std::invalid_argument);  // overlapping link windows
  EXPECT_THROW(PerturbationPlan(2, {}, {}, {1.0, 0.0}),
               std::invalid_argument);  // non-positive noise factor
}

TEST(PerturbationPlan, BackToBackWindowsAreDisjoint) {
  // Half-open windows: [0, 5) and [5, 10) share only the boundary instant.
  const PerturbationPlan p(1, {{0, 0.0, 5.0, 2.0}, {0, 5.0, 10.0, 3.0}},
                           {{0.0, 4.0, 0.5}, {4.0, 8.0, 0.25}});
  EXPECT_DOUBLE_EQ(p.slowdown(0, 4.9), 2.0);
  EXPECT_DOUBLE_EQ(p.slowdown(0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(p.slowdown(0, 10.0), 1.0);  // end exclusive
  // A short transfer runs at the scale of the link window it starts in.
  EXPECT_DOUBLE_EQ(p.transfer_finish(3.9, 0.01), 3.9 + 0.01 / 0.5);
  EXPECT_DOUBLE_EQ(p.transfer_finish(4.0, 0.01), 4.0 + 0.01 / 0.25);
  EXPECT_DOUBLE_EQ(p.transfer_finish(8.0, 0.01), 8.0 + 0.01);
}

// ---------------------------------------------------------------------------
// Piecewise integration math (hand-computable cases).

TEST(PerturbationPlan, ComputeFinishIntegratesAcrossWindows) {
  // Proc 0 runs at half speed inside [5, 15).
  const PerturbationPlan p(2, {{0, 5.0, 15.0, 2.0}}, {});
  const ProcessorSet on0 = ProcessorSet::of(2, {0});
  const ProcessorSet on1 = ProcessorSet::of(2, {1});

  // Entirely before the window: unperturbed.
  EXPECT_DOUBLE_EQ(p.compute_finish(on0, 0.0, 5.0), 5.0);
  // 5 nominal seconds clean, then 5 more at half speed take 10: finish 15.
  EXPECT_DOUBLE_EQ(p.compute_finish(on0, 0.0, 10.0), 15.0);
  // Started inside the window: 5 nominal at half speed exactly drains the
  // window ([5,15) holds 5 nominal seconds), then 1 more runs clean.
  EXPECT_DOUBLE_EQ(p.compute_finish(on0, 5.0, 6.0), 16.0);
  // The clean processor is untouched.
  EXPECT_DOUBLE_EQ(p.compute_finish(on1, 0.0, 10.0), 10.0);
  // A gang spanning both advances at the slowest member's pace.
  const ProcessorSet gang = ProcessorSet::of(2, {0, 1});
  EXPECT_DOUBLE_EQ(p.compute_finish(gang, 0.0, 10.0), 15.0);
}

TEST(PerturbationPlan, TransferFinishIntegratesAcrossLinkWindows) {
  // Bandwidth halves inside [5, 15).
  const PerturbationPlan p(2, {}, {{5.0, 15.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.transfer_finish(0.0, 5.0), 5.0);   // entirely clean
  EXPECT_DOUBLE_EQ(p.transfer_finish(0.0, 10.0), 15.0); // 5 clean + 5 at 1/2
  EXPECT_DOUBLE_EQ(p.transfer_finish(5.0, 6.0), 16.0);  // drains the window
  EXPECT_DOUBLE_EQ(p.transfer_finish(20.0, 5.0), 25.0); // after the window
}

// ---------------------------------------------------------------------------
// Seeded generator: determinism, bounds, 20-seed validation fuzz.

TEST(PerturbationGenerator, IsDeterministicAndSeedSensitive) {
  PerturbationParams prm;
  prm.slow_fraction = 0.5;
  prm.slow_factor = 4.0;
  prm.horizon_s = 50.0;
  prm.link_windows = 3;
  prm.task_noise = 0.1;
  prm.seed = 7;
  const PerturbationPlan a = make_perturbation_plan(8, 12, prm);
  const PerturbationPlan b = make_perturbation_plan(8, 12, prm);
  ASSERT_EQ(a.slowdowns().size(), b.slowdowns().size());
  for (std::size_t i = 0; i < a.slowdowns().size(); ++i) {
    EXPECT_EQ(a.slowdowns()[i].proc, b.slowdowns()[i].proc);
    EXPECT_EQ(a.slowdowns()[i].begin, b.slowdowns()[i].begin);
    EXPECT_EQ(a.slowdowns()[i].end, b.slowdowns()[i].end);
    EXPECT_EQ(a.slowdowns()[i].factor, b.slowdowns()[i].factor);
  }
  ASSERT_EQ(a.links().size(), b.links().size());
  ASSERT_EQ(a.task_noise(), b.task_noise());
  EXPECT_EQ(a.task_noise().size(), 12u);

  prm.seed = 8;
  const PerturbationPlan c = make_perturbation_plan(8, 12, prm);
  bool differs = c.slowdowns().size() != a.slowdowns().size() ||
                 c.task_noise() != a.task_noise();
  for (std::size_t i = 0; !differs && i < a.slowdowns().size(); ++i)
    differs = a.slowdowns()[i].proc != c.slowdowns()[i].proc ||
              a.slowdowns()[i].begin != c.slowdowns()[i].begin;
  EXPECT_TRUE(differs) << "the seed does not matter";
}

TEST(PerturbationGenerator, TwentySeedFuzzProducesValidBoundedPlans) {
  PerturbationParams prm;
  prm.slow_fraction = 0.75;
  prm.slow_factor = 6.0;
  prm.slow_duration_s = 12.0;
  prm.horizon_s = 80.0;
  prm.link_windows = 4;
  prm.link_scale = 0.3;
  prm.link_duration_s = 15.0;
  prm.task_noise = 0.2;
  prm.min_unperturbed = 2;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    prm.seed = seed;
    const PerturbationPlan p = make_perturbation_plan(8, 10, prm);

    // Re-constructing from the components re-runs the full validator: the
    // generator may only emit scripts the validating constructor accepts.
    EXPECT_NO_THROW(PerturbationPlan(8, p.slowdowns(), p.links(),
                                     p.task_noise()))
        << "seed " << seed << " generated an invalid plan";

    // Parameter bounds hold for every draw.
    ProcessorSet slowed(8);
    for (const SlowdownInterval& iv : p.slowdowns()) {
      slowed.insert(iv.proc);
      EXPECT_GE(iv.begin, 0.0);
      EXPECT_LT(iv.begin, prm.horizon_s);
      EXPECT_GE(iv.factor, 1.0 + (prm.slow_factor - 1.0) * 0.5);
      EXPECT_LT(iv.factor, 1.0 + (prm.slow_factor - 1.0) * 1.5);
      EXPECT_GE(iv.end - iv.begin, 0.5 * prm.slow_duration_s);
      EXPECT_LE(iv.end - iv.begin, 1.5 * prm.slow_duration_s);
    }
    EXPECT_LE(slowed.count(), 8u - prm.min_unperturbed);
    EXPECT_EQ(p.links().size(), prm.link_windows);
    for (const LinkDegradation& w : p.links()) {
      EXPECT_DOUBLE_EQ(w.scale, prm.link_scale);
      EXPECT_GE(w.begin, 0.0);
      EXPECT_LE(w.end, prm.horizon_s);
    }
    ASSERT_EQ(p.task_noise().size(), 10u);
    for (const double f : p.task_noise()) {
      EXPECT_GE(f, 1.0 - prm.task_noise);
      EXPECT_LT(f, 1.0 + prm.task_noise);
    }
  }
}

TEST(PerturbationGenerator, RejectsNonsensicalParameters) {
  const PerturbationParams ok;
  EXPECT_NO_THROW(make_perturbation_plan(4, 4, ok));
  EXPECT_THROW(make_perturbation_plan(0, 4, ok), std::invalid_argument);
  PerturbationParams bad = ok;
  bad.slow_fraction = -0.1;
  EXPECT_THROW(make_perturbation_plan(4, 4, bad), std::invalid_argument);
  bad = ok;
  bad.slow_factor = 0.5;
  EXPECT_THROW(make_perturbation_plan(4, 4, bad), std::invalid_argument);
  bad = ok;
  bad.horizon_s = 0.0;
  EXPECT_THROW(make_perturbation_plan(4, 4, bad), std::invalid_argument);
  bad = ok;
  bad.link_windows = 1;  // the link knobs are only validated when used
  bad.link_scale = 0.0;
  EXPECT_THROW(make_perturbation_plan(4, 4, bad), std::invalid_argument);
  bad = ok;
  bad.task_noise = 1.0;
  EXPECT_THROW(make_perturbation_plan(4, 4, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Event-simulator injection.

SimOptions with_perturb(const PerturbationPlan& plan) {
  SimOptions opt;
  opt.perturb = &plan;
  return opt;
}

TEST(EventSimPerturb, EmptyPlanIsAnIdentityTransform) {
  const TaskGraph g = test::diamond(10.0, 4, 1000.0);
  const Cluster c(4, 100.0);
  const CommModel m(c);
  Schedule s(4, 4);
  s.place(0, 0, 0, 10, ProcessorSet::of(4, {0}));
  s.place(1, 20, 20, 30, ProcessorSet::of(4, {1}));
  s.place(2, 20, 20, 30, ProcessorSet::of(4, {2}));
  s.place(3, 40, 40, 50, ProcessorSet::of(4, {0}));

  const PerturbationPlan empty(4);
  const SimResult plain = simulate_execution(g, s, m);
  const SimResult perturbed = simulate_execution(g, s, m, with_perturb(empty));
  EXPECT_EQ(perturbed.slowed_tasks, 0u);
  EXPECT_DOUBLE_EQ(perturbed.stretch_seconds, 0.0);
  EXPECT_EQ(perturbed.degraded_transfers, 0u);
  EXPECT_DOUBLE_EQ(perturbed.makespan, plain.makespan);
  for (TaskId t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(perturbed.executed.at(t).start, plain.executed.at(t).start);
    EXPECT_DOUBLE_EQ(perturbed.executed.at(t).finish,
                     plain.executed.at(t).finish);
  }
}

TEST(EventSimPerturb, RejectsWrongSizedPlan) {
  const TaskGraph g = test::chain(2, 10.0, 1);
  const Cluster c(2, 100.0);
  const CommModel m(c);
  Schedule s(2, 2);
  s.place(0, 0, 0, 10, ProcessorSet::of(2, {0}));
  s.place(1, 10, 10, 20, ProcessorSet::of(2, {0}));
  const PerturbationPlan wrong(3);
  EXPECT_THROW(simulate_execution(g, s, m, with_perturb(wrong)),
               std::invalid_argument);
}

TEST(EventSimPerturb, StretchesComputeAndAccountsIt) {
  // A two-task chain on one processor that runs at half speed in [5, 15):
  // t0 takes 5 clean + 5 slowed nominal seconds -> finishes at 15 (stretch
  // 5); t1 then runs entirely clean -> makespan 25.
  const TaskGraph g = test::chain(2, 10.0, 1);
  const Cluster c(1, 100.0);
  const CommModel m(c);
  Schedule s(2, 1);
  s.place(0, 0, 0, 10, ProcessorSet::of(1, {0}));
  s.place(1, 10, 10, 20, ProcessorSet::of(1, {0}));

  const PerturbationPlan p(1, {{0, 5.0, 15.0, 2.0}}, {});
  const SimResult r = simulate_execution(g, s, m, with_perturb(p));
  EXPECT_EQ(r.slowed_tasks, 1u);
  EXPECT_DOUBLE_EQ(r.stretch_seconds, 5.0);
  EXPECT_DOUBLE_EQ(r.executed.at(0).finish, 15.0);
  EXPECT_DOUBLE_EQ(r.executed.at(1).start, 15.0);
  EXPECT_DOUBLE_EQ(r.makespan, 25.0);
}

TEST(EventSimPerturb, DegradesTransfersAndAccountsIt) {
  // One unit-volume edge between distinct processors; bandwidth halves for
  // the entire horizon, so the transfer takes twice its nominal duration.
  const TaskGraph g = test::chain(2, 10.0, 1, 1000.0);
  const Cluster c(2, 100.0);
  const CommModel m(c);
  Schedule s(2, 2);
  s.place(0, 0, 0, 10, ProcessorSet::of(2, {0}));
  s.place(1, 20, 20, 30, ProcessorSet::of(2, {1}));

  const PerturbationPlan clean_net(2);
  const SimResult base = simulate_execution(g, s, m, with_perturb(clean_net));
  ASSERT_GT(base.total_transfer_time, 0.0);

  const PerturbationPlan p(2, {}, {{0.0, 1e9, 0.5}});
  const SimResult r = simulate_execution(g, s, m, with_perturb(p));
  EXPECT_EQ(r.degraded_transfers, 1u);
  EXPECT_NEAR(r.link_delay_seconds, base.total_transfer_time, 1e-9);
  EXPECT_NEAR(r.executed.at(1).start - r.executed.at(0).finish,
              2.0 * base.total_transfer_time, 1e-9);
}

TEST(EventSimPerturb, PerturbedReplayIsDeterministicAndReconciles) {
  const TaskGraph g = test::diamond(10.0, 4, 5000.0);
  const Cluster c(4, 100.0);
  const CommModel m(c);
  Schedule s(4, 4);
  s.place(0, 0, 0, 10, ProcessorSet::of(4, {0}));
  s.place(1, 20, 20, 30, ProcessorSet::of(4, {1}));
  s.place(2, 20, 20, 30, ProcessorSet::of(4, {2}));
  s.place(3, 40, 40, 50, ProcessorSet::of(4, {0}));

  PerturbationParams prm;
  prm.slow_fraction = 0.75;
  prm.slow_factor = 3.0;
  prm.slow_duration_s = 30.0;
  prm.horizon_s = 60.0;
  prm.link_windows = 2;
  prm.link_duration_s = 10.0;
  prm.seed = 5;
  const PerturbationPlan plan = make_perturbation_plan(4, 4, prm);

  auto once = [&](obs::ObsContext* ctx) {
    SimOptions opt = with_perturb(plan);
    opt.obs = ctx;
    return simulate_execution(g, s, m, opt);
  };

  std::ostringstream jsonl;
  obs::MetricsRegistry met;
  obs::JsonlSink sink(jsonl);
  obs::ObsContext ctx{&met, &sink};
  const SimResult a = once(&ctx);
  const SimResult b = once(nullptr);

  // Pure function of (schedule, plan): bit-identical replays.
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.slowed_tasks, b.slowed_tasks);
  EXPECT_EQ(a.stretch_seconds, b.stretch_seconds);
  EXPECT_EQ(a.link_delay_seconds, b.link_delay_seconds);
  for (TaskId t = 0; t < 4; ++t) {
    EXPECT_EQ(a.executed.at(t).start, b.executed.at(t).start);
    EXPECT_EQ(a.executed.at(t).finish, b.executed.at(t).finish);
  }

  // Counters and the trace digest agree with the SimResult book.
  const obs::MetricsSnapshot snap = met.snapshot();
  EXPECT_EQ(snap.counter("perturb.slowed_tasks"),
            static_cast<double>(a.slowed_tasks));
  EXPECT_NEAR(snap.counter("perturb.stretch_seconds"), a.stretch_seconds,
              1e-9);
  EXPECT_EQ(snap.counter("perturb.degraded_transfers"),
            static_cast<double>(a.degraded_transfers));
  EXPECT_NEAR(snap.counter("perturb.link_delay_seconds"),
              a.link_delay_seconds, 1e-9);

  std::istringstream in(jsonl.str());
  const auto digest = obs::summarize_trace(obs::read_trace(in), 4);
  EXPECT_EQ(digest.perturb_slow_events, a.slowed_tasks);
  EXPECT_NEAR(digest.perturb_stretch_s, a.stretch_seconds, 1e-9);
  EXPECT_EQ(digest.perturb_link_events, a.degraded_transfers);
  EXPECT_NEAR(digest.perturb_link_delay_s, a.link_delay_seconds, 1e-9);
}

TEST(EventSimPerturb, TaskNoiseComposesWithRuntimeFactors) {
  const TaskGraph g = test::chain(1, 10.0, 1);
  const Cluster c(1, 100.0);
  const CommModel m(c);
  Schedule s(1, 1);
  s.place(0, 0, 0, 10, ProcessorSet::of(1, {0}));

  const PerturbationPlan p(1, {}, {}, {1.3});
  const SimResult r = simulate_execution(g, s, m, with_perturb(p));
  EXPECT_DOUBLE_EQ(r.makespan, 13.0);
}

}  // namespace
}  // namespace locmps
