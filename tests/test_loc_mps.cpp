#include "schedulers/loc_mps.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "schedule/event_sim.hpp"
#include "schedulers/task_parallel.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using test::serial;

TEST(LocMPS, SingleSerialTaskStaysNarrow) {
  TaskGraph g;
  g.add_task("a", serial(10.0, 8));
  const Cluster c(8);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.allocation[0], 1u);  // Pbest of a serial task is 1
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 10.0);
}

TEST(LocMPS, WidensScalableTask) {
  TaskGraph g;
  g.add_task("a", test::profile({16.0, 8.0, 6.0, 4.0}));
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.allocation[0], 4u);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 4.0);
}

TEST(LocMPS, AllocationCappedByPbest) {
  // Time worsens past 2 processors: never allocate more.
  TaskGraph g;
  g.add_task("a", test::profile({10.0, 6.0, 7.0, 9.0}));
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.allocation[0], 2u);
}

TEST(LocMPS, EscapesLocalMinimumViaLookAhead) {
  // Paper Fig 3: two independent linear-speedup tasks of 40 and 80 on 4
  // processors. The greedy path stalls at {T1:1, T2:3} (makespan 40); the
  // data-parallel allocation {4, 4} reaches 30.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 30.0);
  EXPECT_EQ(r.allocation, (Allocation{4, 4}));
}

TEST(LocMPS, NoLookAheadStaysInLocalMinimum) {
  // Same instance with look-ahead depth 1: the pure greedy scheme cannot
  // accept the temporary makespan increase and stalls above 30.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const Cluster c(4);
  LocMPSOptions opt;
  opt.look_ahead_depth = 1;
  const SchedulerResult r = LocMPSScheduler(opt).schedule(g, c);
  EXPECT_GT(r.estimated_makespan, 30.0);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 40.0);
}

TEST(LocMPS, NeverWorseThanPureTaskParallel) {
  SyntheticParams p;
  p.ccr = 0.1;
  p.max_procs = 8;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const TaskGraph g = make_synthetic_dag(p, rng);
    const Cluster c(8);
    const double mps =
        LocMPSScheduler().schedule(g, c).estimated_makespan;
    const double task =
        TaskParallelScheduler().schedule(g, c).estimated_makespan;
    EXPECT_LE(mps, task + 1e-9) << "seed=" << seed;
  }
}

TEST(LocMPS, EstimateMatchesEventSimulation) {
  // The scheduler's internal makespan must agree with an independent
  // re-execution of the plan under the same platform model.
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 8;
  Rng rng(11);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  const SimResult sim =
      simulate_execution(g, r.schedule, CommModel(c));
  EXPECT_NEAR(sim.makespan, r.estimated_makespan,
              1e-6 * r.estimated_makespan);
}

TEST(LocMPS, ProducesValidSchedules) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 8;
  Rng rng(13);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  const CommModel m(c);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, m), "");
  for (TaskId t : g.task_ids()) {
    EXPECT_GE(r.allocation[t], 1u);
    EXPECT_LE(r.allocation[t], 8u);
    EXPECT_EQ(r.schedule.at(t).np(), r.allocation[t]);
  }
}

TEST(LocMPS, RespectsMaxLocbsCallBudget) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(17);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(16);
  LocMPSOptions opt;
  opt.max_locbs_calls = 25;
  LocMPSScheduler sched(opt);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx{&reg, nullptr, nullptr};
  sched.attach_observability(&ctx);
  const SchedulerResult r = sched.schedule(g, c);
  EXPECT_LE(r.iterations, 25u + 2u);
  // The cap binds the LoCBS passes that actually run.
  EXPECT_LE(reg.snapshot().counter("locbs.calls"), 25.0);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(LocMPS, NamesReflectOptions) {
  EXPECT_EQ(LocMPSScheduler().name(), "LoC-MPS");
  LocMPSOptions nbf;
  nbf.locbs.backfill = false;
  EXPECT_EQ(LocMPSScheduler(nbf).name(), "LoC-MPS-nbf");
  LocMPSOptions blind;
  blind.locbs.comm_blind = true;
  EXPECT_EQ(LocMPSScheduler(blind).name(), "iCASLB");
}

TEST(LocMPS, CandidateFractionWidensThePool) {
  // With the pool at 100% the concurrency-ratio tie-break always applies;
  // both settings must still produce valid schedules and the paper's
  // default must not be worse than pure greedy on the Fig 2 instance.
  TaskGraph g;
  const TaskId t1 = g.add_task("T1", test::profile({10, 7, 5}));
  const TaskId t2 = g.add_task("T2", test::profile({8, 6, 5}));
  const TaskId t3 = g.add_task("T3", test::profile({9, 7, 5}));
  const TaskId t4 = g.add_task("T4", test::profile({7, 5, 4}));
  g.add_edge(t2, t1, 0.0);
  g.add_edge(t2, t3, 0.0);
  g.add_edge(t2, t4, 0.0);
  const Cluster c(3);
  LocMPSOptions wide;
  wide.candidate_top_fraction = 1.0;
  const double pooled =
      LocMPSScheduler(wide).schedule(g, c).estimated_makespan;
  const double standard = LocMPSScheduler().schedule(g, c).estimated_makespan;
  EXPECT_DOUBLE_EQ(pooled, 15.0);  // cr(T2)=0 wins immediately
  EXPECT_LE(standard, pooled + 1e-9);
}

TEST(LocMPS, LiteralMarkSemanticsRemainAvailable) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 8;
  Rng rng(19);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  LocMPSOptions literal;
  literal.marks_bind_lookahead = false;
  const SchedulerResult r = LocMPSScheduler(literal).schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(LocMPS, WidensCommEdgesWhenCommDominates) {
  // A cheap computation chain with a huge transfer: LoC-MPS must widen
  // both endpoints to raise the aggregate bandwidth (Section III-D), since
  // with multiple children the data cannot all stay local.
  TaskGraph g;
  test::LinearSpeedup lin;
  const TaskId a = g.add_task("a", ExecutionProfile(lin, 2.0, 4));
  const TaskId b = g.add_task("b", ExecutionProfile(lin, 2.0, 4));
  const TaskId cld = g.add_task("c", ExecutionProfile(lin, 2.0, 4));
  g.add_edge(a, b, 50.0 * kFastEthernetBytesPerSec);
  g.add_edge(a, cld, 50.0 * kFastEthernetBytesPerSec);
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  // Pure task-parallel would pay ~50 s of redistribution on at least one
  // edge; widening + locality must do much better.
  EXPECT_LT(r.estimated_makespan, 56.0);
}

}  // namespace
}  // namespace locmps
