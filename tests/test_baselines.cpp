#include <gtest/gtest.h>

#include "schedule/event_sim.hpp"
#include "schedulers/cpa.hpp"
#include "schedulers/cpr.hpp"
#include "schedulers/data_parallel.hpp"
#include "schedulers/icaslb.hpp"
#include "schedulers/list_scheduler.hpp"
#include "schedulers/registry.hpp"
#include "schedulers/task_parallel.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using test::serial;

TaskGraph small_graph(std::uint64_t seed, double ccr, std::size_t maxp) {
  SyntheticParams p;
  p.ccr = ccr;
  p.max_procs = maxp;
  p.min_tasks = 10;
  p.max_tasks = 20;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

// ---------------------------------------------------------------- TASK --
TEST(TaskParallel, AllocatesOneProcessorEach) {
  const TaskGraph g = small_graph(1, 0.1, 8);
  const Cluster c(8);
  const SchedulerResult r = TaskParallelScheduler().schedule(g, c);
  for (TaskId t : g.task_ids()) EXPECT_EQ(r.allocation[t], 1u);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(TaskParallel, ParallelizesIndependentWork) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task("t", serial(10.0, 4));
  const Cluster c(4);
  const SchedulerResult r = TaskParallelScheduler().schedule(g, c);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 10.0);
}

// ---------------------------------------------------------------- DATA --
TEST(DataParallel, RunsEveryTaskOnAllProcessorsInSequence) {
  const TaskGraph g = test::diamond(10.0, 8, 1e9);
  const Cluster c(8);
  const SchedulerResult r = DataParallelScheduler().schedule(g, c);
  for (TaskId t : g.task_ids()) {
    EXPECT_EQ(r.allocation[t], 8u);
    EXPECT_EQ(r.schedule.at(t).np(), 8u);
  }
  // Serial tasks gain nothing: makespan = 4 * 10, and crucially no
  // redistribution cost despite the huge edge volumes.
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 40.0);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
  const SimResult sim = simulate_execution(g, r.schedule, CommModel(c));
  EXPECT_DOUBLE_EQ(sim.total_transfer_bytes, 0.0);
}

TEST(DataParallel, BenefitsFromScalableTasks) {
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("a", ExecutionProfile(lin, 40.0, 8));
  g.add_task("b", ExecutionProfile(lin, 40.0, 8));
  const Cluster c(8);
  const SchedulerResult r = DataParallelScheduler().schedule(g, c);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 10.0);
}

// ------------------------------------------------------- list scheduler --
TEST(ListScheduler, SchedulesChainSequentially) {
  const TaskGraph g = test::chain(3, 5.0, 4, 0.0);
  const CommModel m{Cluster(4)};
  const ListScheduleResult r = list_schedule(g, {1, 1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 15.0);
  EXPECT_EQ(r.schedule.validate(g, m), "");
}

TEST(ListScheduler, ChargesPlacementIndependentCommCost) {
  // 1000 B at 100 B/s between 1-proc groups = 10 s, even if the child
  // happens to land on the parent's processor.
  const TaskGraph g = test::chain(2, 5.0, 2, 1000.0);
  const CommModel m{Cluster(2, 100.0)};
  const ListScheduleResult r = list_schedule(g, {1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);
}

TEST(ListScheduler, RejectsBadAllocation) {
  const TaskGraph g = test::chain(2);
  const CommModel m{Cluster(2)};
  EXPECT_THROW(list_schedule(g, {1}, m), std::invalid_argument);
}

// ----------------------------------------------------------------- CPR --
TEST(CPR, ImprovesOnTaskParallelForScalableChain) {
  test::LinearSpeedup lin;
  TaskGraph g;
  const TaskId a = g.add_task("a", ExecutionProfile(lin, 40.0, 4));
  const TaskId b = g.add_task("b", ExecutionProfile(lin, 40.0, 4));
  g.add_edge(a, b, 0.0);
  const Cluster c(4);
  const SchedulerResult r = CPRScheduler().schedule(g, c);
  // One-processor schedule is 80; CPR must widen the chain to 4+4 -> 20.
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 20.0);
  EXPECT_EQ(r.allocation, (Allocation{4, 4}));
}

TEST(CPR, ProducesValidSchedules) {
  const TaskGraph g = small_graph(2, 1.0, 8);
  const Cluster c(8);
  const SchedulerResult r = CPRScheduler().schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
  for (TaskId t : g.task_ids()) {
    EXPECT_GE(r.allocation[t], 1u);
    EXPECT_LE(r.allocation[t], 8u);
  }
}

TEST(CPR, StopsAtLocalMinimum) {
  // Paper Fig 3 workload: CPR has no look-ahead, so it stalls above the
  // data-parallel optimum of 30.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const Cluster c(4);
  const SchedulerResult r = CPRScheduler().schedule(g, c);
  EXPECT_GE(r.estimated_makespan, 40.0);
}

// ----------------------------------------------------------------- CPA --
TEST(CPA, BalancesCriticalPathAgainstArea) {
  test::LinearSpeedup lin;
  TaskGraph g;
  const TaskId a = g.add_task("a", ExecutionProfile(lin, 40.0, 4));
  const TaskId b = g.add_task("b", ExecutionProfile(lin, 40.0, 4));
  g.add_edge(a, b, 0.0);
  const Cluster c(4);
  const SchedulerResult r = CPAScheduler().schedule(g, c);
  // The chain is the whole graph: phase 1 widens until L <= TA.
  EXPECT_LT(r.estimated_makespan, 80.0);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(CPA, ProducesValidSchedules) {
  const TaskGraph g = small_graph(3, 1.0, 8);
  const Cluster c(8);
  const SchedulerResult r = CPAScheduler().schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(CPA, CheapSchemeDoesFewIterations) {
  const TaskGraph g = small_graph(4, 0.1, 8);
  const Cluster c(8);
  const SchedulerResult r = CPAScheduler().schedule(g, c);
  // Phase 1 adds at most one processor per iteration.
  EXPECT_LE(r.iterations, g.num_tasks() * 8 + 16);
}

// -------------------------------------------------------------- iCASLB --
TEST(ICASLB, MatchesLocMPSWhenCommIsFree) {
  const TaskGraph g = small_graph(5, 0.0, 8);
  const Cluster c(8);
  const double blind = ICASLBScheduler().schedule(g, c).estimated_makespan;
  const double aware =
      make_scheduler("loc-mps")->schedule(g, c).estimated_makespan;
  // With zero communication the two schemes solve the same problem.
  EXPECT_NEAR(blind, aware, 0.15 * aware);
}

TEST(ICASLB, PaysForIgnoredCommunication) {
  // A chain with two children and large transfers: the comm-blind plan is
  // re-timed with the real transfers, so its makespan must include them.
  TaskGraph g;
  test::LinearSpeedup lin;
  const TaskId a = g.add_task("a", ExecutionProfile(lin, 2.0, 4));
  const TaskId b = g.add_task("b", ExecutionProfile(lin, 2.0, 4));
  g.add_edge(a, b, 100.0 * kFastEthernetBytesPerSec);
  const Cluster c(4);
  const SchedulerResult r = ICASLBScheduler().schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(ICASLB, ReturnsExecutableSchedule) {
  const TaskGraph g = small_graph(6, 1.0, 8);
  const Cluster c(8);
  const SchedulerResult r = ICASLBScheduler().schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
  // Re-timing under iCASLB's own (non-locality) transfer model is stable.
  SimOptions sim;
  sim.locality_volumes = false;
  const SimResult run = simulate_execution(g, r.schedule, CommModel(c), sim);
  EXPECT_NEAR(run.makespan, r.estimated_makespan, 1e-9);
}

// ------------------------------------------------------------ registry --
TEST(Registry, CreatesAllKnownSchemes) {
  for (const auto& name :
       {"loc-mps", "loc-mps-nbf", "loc-mps-noloc", "icaslb", "cpr", "cpa",
        "task", "data"}) {
    const SchedulerPtr s = make_scheduler(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_FALSE(s->name().empty());
  }
}

TEST(Registry, ThrowsOnUnknownScheme) {
  EXPECT_THROW(make_scheduler("hls"), std::invalid_argument);
  EXPECT_THROW(make_scheduler(""), std::invalid_argument);
}

/// The registry's "task" takes the LoCBS knobs of SchedulerOptions: with
/// slack 1.25 it plans exactly what TaskParallelScheduler plans with that
/// slack, which on this graph differs from the tight plan.
TEST(Registry, TaskSchemeTakesSlack) {
  const TaskGraph g = small_graph(3, 0.5, 8);
  const Cluster c(8);
  SchedulerOptions so;
  so.slack_factor = 1.25;
  LocBSOptions lo;
  lo.slack_factor = 1.25;
  const SchedulerResult reg = make_scheduler("task", so)->schedule(g, c);
  const SchedulerResult direct = TaskParallelScheduler(lo).schedule(g, c);
  EXPECT_EQ(reg.estimated_makespan, direct.estimated_makespan);
  for (TaskId t : g.task_ids()) {
    const Placement& a = reg.schedule.at(t);
    const Placement& b = direct.schedule.at(t);
    EXPECT_EQ(a.busy_from, b.busy_from) << "task " << t;
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_TRUE(a.procs == b.procs) << "task " << t;
  }
  EXPECT_NE(reg.estimated_makespan,
            make_scheduler("task")->schedule(g, c).estimated_makespan);
}

TEST(Registry, PaperSchemesLineUp) {
  const auto schemes = paper_schemes();
  ASSERT_EQ(schemes.size(), 6u);
  EXPECT_EQ(schemes[0], "loc-mps");  // the reference scheme comes first
  EXPECT_EQ(schemes.back(), "data");
}

}  // namespace
}  // namespace locmps
