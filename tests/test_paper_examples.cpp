/// Reconstructions of the worked examples in the paper (Figures 1-3),
/// checked end-to-end against the algorithms.

#include <gtest/gtest.h>

#include "schedulers/loc_mps.hpp"
#include "schedulers/locbs.hpp"
#include "test_util.hpp"

namespace locmps {
namespace {

/// Fig 1 / Fig 2 task graph: T2 -> {T1, T3, T4} with the execution-time
/// profile of Fig 2(b).
TaskGraph fig2_graph() {
  TaskGraph g;
  const TaskId t1 = g.add_task("T1", test::profile({10, 7, 5}));
  const TaskId t2 = g.add_task("T2", test::profile({8, 6, 5}));
  const TaskId t3 = g.add_task("T3", test::profile({9, 7, 5}));
  const TaskId t4 = g.add_task("T4", test::profile({7, 5, 4}));
  g.add_edge(t2, t1, 0.0);
  g.add_edge(t2, t3, 0.0);
  g.add_edge(t2, t4, 0.0);
  return g;
}

TEST(PaperExamples, Fig2PureTaskParallelSchedule) {
  // One processor each on P=3: T2 (8), then T1/T3/T4 in parallel.
  const TaskGraph g = fig2_graph();
  const CommModel m{Cluster(3)};
  const LocBSResult r = locbs(g, {1, 1, 1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 18.0);  // 8 + max(10, 9, 7)
}

TEST(PaperExamples, Fig2GreedyChoiceIsWorse) {
  // Widening T1 (the max-gain task) to 2 procs serializes T3 or T4.
  const TaskGraph g = fig2_graph();
  const CommModel m{Cluster(3)};
  const LocBSResult r = locbs(g, {2, 1, 1, 1}, m);
  // T2=8; T1 on 2 procs [8,15); T3 or T4 must wait.
  EXPECT_GT(r.makespan, 18.0 - 1e-9);
}

TEST(PaperExamples, Fig2BestChoiceReaches15) {
  // The paper's better choice: run T2 on all 3 processors (et=5), then the
  // three independent tasks in parallel: 5 + max(10,9,7) = 15.
  const TaskGraph g = fig2_graph();
  const CommModel m{Cluster(3)};
  const LocBSResult r = locbs(g, {1, 3, 1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 15.0);
}

TEST(PaperExamples, Fig2LocMPSFindsTheGoodAllocation) {
  // LoC-MPS's concurrency-ratio guard plus look-ahead must reach the
  // paper's makespan of 15 on 3 processors.
  const TaskGraph g = fig2_graph();
  const SchedulerResult r = LocMPSScheduler().schedule(g, Cluster(3));
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 15.0);
}

TEST(PaperExamples, Fig1PseudoEdgeAppearsInScheduleDag) {
  // Fig 1: T1 -> {T2, T3} -> T4 on 4 processors with allocations
  // (4, 3, 2, 4): T2 and T3 cannot run together, so the schedule-DAG gains
  // a pseudo-edge and its critical path becomes 30.
  TaskGraph g;
  const TaskId t1 = g.add_task("T1", test::profile({10, 10, 10, 10}));
  const TaskId t2 = g.add_task("T2", test::profile({7, 7, 7, 7}));
  const TaskId t3 = g.add_task("T3", test::profile({5, 5, 5, 5}));
  const TaskId t4 = g.add_task("T4", test::profile({8, 8, 8, 8}));
  g.add_edge(t1, t2, 0.0);
  g.add_edge(t1, t3, 0.0);
  g.add_edge(t2, t4, 0.0);
  g.add_edge(t3, t4, 0.0);
  const CommModel m{Cluster(4)};
  const LocBSResult r = locbs(g, {4, 3, 2, 4}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 30.0);
  ASSERT_GE(r.dag.pseudo_edges().size(), 1u);
  const CriticalPathInfo cp = r.dag.critical_path();
  EXPECT_DOUBLE_EQ(cp.length, 30.0);
  EXPECT_EQ(cp.tasks.size(), 4u);  // T1, T2, T3, T4 chained
}

TEST(PaperExamples, Fig3LookAheadBeatsGreedy) {
  // Fig 3: two independent tasks, linear speedup, et(T1,1)=40 and
  // et(T2,1)=80 on P=4. Greedy stalls at 40 (T2 on 3); the bounded
  // look-ahead reaches the data-parallel optimum of 30.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const SchedulerResult r = LocMPSScheduler().schedule(g, Cluster(4));
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 30.0);
  // Fig 3's profile table itself (linear speedup).
  EXPECT_DOUBLE_EQ(g.task(1).profile.time(2), 40.0);
  EXPECT_NEAR(g.task(1).profile.time(3), 26.7, 0.05);
  EXPECT_DOUBLE_EQ(g.task(1).profile.time(4), 20.0);
}

TEST(PaperExamples, Fig3IntermediateStateIsTheLocalMinimum) {
  // The local minimum the paper describes: np = (1, 3) has makespan 40 and
  // no single increment improves it.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const CommModel m{Cluster(4)};
  EXPECT_DOUBLE_EQ(locbs(g, {1, 3}, m).makespan, 40.0);
  // Both single increments serialize the pair and are strictly worse:
  EXPECT_GT(locbs(g, {2, 3}, m).makespan, 40.0);  // 26.67 + 20
  EXPECT_GT(locbs(g, {1, 4}, m).makespan, 40.0);  // 40 + 20
}

}  // namespace
}  // namespace locmps
