#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/profile.hpp"
#include "schedulers/registry.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

TEST(Experiment, EvaluateSchemeFillsAllFields) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 4;
  Rng rng(1);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(4);
  const SchemeRun run = evaluate_scheme("cpa", g, c);
  EXPECT_EQ(run.scheme, "cpa");
  EXPECT_GT(run.makespan, 0.0);
  EXPECT_GT(run.estimated, 0.0);
  EXPECT_GE(run.scheduling_seconds, 0.0);
  EXPECT_EQ(run.allocation.size(), g.num_tasks());
  EXPECT_TRUE(run.schedule.complete());
}

TEST(Experiment, RealizedNeverBeatsPlanByMuch) {
  // Re-timing can only compact or preserve a consistent plan.
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 4;
  Rng rng(2);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(4);
  for (const auto& s : {"loc-mps", "task", "data"}) {
    const SchemeRun run = evaluate_scheme(s, g, c);
    EXPECT_LE(run.makespan, run.estimated * (1.0 + 1e-9)) << s;
  }
}

TEST(Experiment, ComparisonReferenceRatioIsOne) {
  SyntheticParams p;
  p.ccr = 0.1;
  p.max_procs = 4;
  const auto graphs = make_synthetic_suite(p, 2, 3);
  const Comparison c = compare_schemes(graphs, {"cpa", "task", "data"},
                                       {2, 4}, kFastEthernetBytesPerSec);
  ASSERT_EQ(c.relative.size(), 2u);
  for (const auto& row : c.relative) {
    ASSERT_EQ(row.size(), 3u);
    EXPECT_DOUBLE_EQ(row[0], 1.0);  // reference scheme vs itself
    for (double v : row) EXPECT_GT(v, 0.0);
  }
}

TEST(Experiment, ComparisonRecordsMakespansAndTimes) {
  SyntheticParams p;
  p.ccr = 0.0;
  p.max_procs = 4;
  const auto graphs = make_synthetic_suite(p, 2, 5);
  const Comparison c = compare_schemes(graphs, {"task", "data"}, {4},
                                       kFastEthernetBytesPerSec);
  EXPECT_GT(c.makespan[0][0], 0.0);
  EXPECT_GT(c.makespan[0][1], 0.0);
  EXPECT_GE(c.sched_seconds[0][0], 0.0);
}

TEST(Experiment, TablesHaveSchemeColumnsAndProcRows) {
  SyntheticParams p;
  p.max_procs = 4;
  const auto graphs = make_synthetic_suite(p, 1, 7);
  const Comparison c = compare_schemes(graphs, {"task", "data"}, {2, 4},
                                       kFastEthernetBytesPerSec);
  const Table rel = relative_performance_table(c);
  EXPECT_EQ(rel.rows(), 2u);
  std::ostringstream os;
  rel.print(os);
  EXPECT_NE(os.str().find("task"), std::string::npos);
  EXPECT_NE(os.str().find("data"), std::string::npos);
  const Table times = scheduling_time_table(c);
  EXPECT_EQ(times.rows(), 2u);
}

TEST(Experiment, ThreadedSweepMatchesSequential) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 4;
  const auto graphs = make_synthetic_suite(p, 3, 9);
  const std::vector<std::string> schemes{"cpa", "task", "data"};
  const Comparison seq = compare_schemes(graphs, schemes, {2, 4},
                                         kFastEthernetBytesPerSec, true, {},
                                         1);
  const Comparison par = compare_schemes(graphs, schemes, {2, 4},
                                         kFastEthernetBytesPerSec, true, {},
                                         4);
  for (std::size_t pi = 0; pi < seq.procs.size(); ++pi)
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      EXPECT_DOUBLE_EQ(par.relative[pi][si], seq.relative[pi][si]);
      EXPECT_DOUBLE_EQ(par.makespan[pi][si], seq.makespan[pi][si]);
    }
}

TEST(Experiment, NonLocalitySchemesChargedFullVolumes) {
  // The same plan evaluated as a locality scheme vs not: evaluate_scheme
  // uses the registry's classification, so iCASLB's realized makespan is
  // at least its own estimate (which already charges full transfers).
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 4;
  Rng rng(10);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(4);
  const SchemeRun run = evaluate_scheme("icaslb", g, c);
  EXPECT_NEAR(run.makespan, run.estimated, 1e-9 * run.estimated);
}

TEST(Experiment, EveryPaperSchemeReportsIterationsFromCounters) {
  // SchemeRun::iterations is sourced from the per-run metrics registry
  // ("scheduler.iterations"): the instrumented LoCBS-call count where one
  // exists (loc-mps, and icaslb via its inner allocator — its scheduler
  // reports 0 itself), the scheduler's own report otherwise. It must be
  // at least 1 for every paper scheme.
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 4;
  Rng rng(3);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(4);
  for (const std::string& s : paper_schemes()) {
    const SchemeRun run = evaluate_scheme(s, g, c);
    EXPECT_GE(run.iterations, 1u) << s;
    EXPECT_EQ(run.iterations,
              static_cast<std::size_t>(
                  run.counters.counter("scheduler.iterations")))
        << s;
  }
}

TEST(Experiment, EveryRunCarriesHarnessCounters) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 4;
  Rng rng(5);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(4);
  for (const std::string& s : paper_schemes()) {
    obs::Profiler prof;
    const SchemeRun run = evaluate_scheme(s, g, c, {}, nullptr, {}, &prof);
    EXPECT_GE(run.counters.counter("scheduler.plan_seconds"), 0.0) << s;
    EXPECT_NEAR(run.counters.counter("sim.makespan"), run.makespan,
                1e-12 + 1e-9 * run.makespan)
        << s;
    EXPECT_NE(prof.snapshot().find("harness.simulate;sim.execute"), nullptr)
        << s;
  }
}

TEST(Experiment, LocMpsRunExposesPlannerCounters) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 4;
  Rng rng(6);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const SchemeRun run = evaluate_scheme("loc-mps", g, Cluster(4));
  const obs::MetricsSnapshot& c = run.counters;
  EXPECT_GT(c.counter("locmps.locbs_calls"), 0.0);
  EXPECT_GT(c.counter("locbs.tasks_placed"), 0.0);
  EXPECT_GT(c.counter("comm.cost_evals"), 0.0);
  const obs::SeriesStats* ms = c.find_series("locmps.best_makespan");
  ASSERT_NE(ms, nullptr);
  ASSERT_FALSE(ms->points.empty());
  // The refinement series is non-increasing and ends at the estimate.
  for (std::size_t i = 1; i < ms->points.size(); ++i)
    EXPECT_LE(ms->points[i].value, ms->points[i - 1].value + 1e-12);
  EXPECT_NEAR(ms->points.back().value, run.estimated,
              1e-9 * run.estimated);
}

TEST(Experiment, NoOverlapPlatformIsHonoured) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 4;
  Rng rng(4);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const SchemeRun ov = evaluate_scheme(
      "task", g, Cluster(4, kFastEthernetBytesPerSec, true));
  const SchemeRun nov = evaluate_scheme(
      "task", g, Cluster(4, kFastEthernetBytesPerSec, false));
  EXPECT_GE(nov.makespan, ov.makespan - 1e-9);
}

}  // namespace
}  // namespace locmps
