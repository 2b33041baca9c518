#include "schedule/schedule_dag.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace locmps {
namespace {

using test::serial;

TEST(ScheduleDag, CriticalPathOfChainSumsAllWeights) {
  const TaskGraph g = test::chain(3);
  ScheduleDag dag(g);
  dag.set_vertex_time(0, 2.0);
  dag.set_vertex_time(1, 3.0);
  dag.set_vertex_time(2, 4.0);
  dag.set_edge_time(0, 1.0);
  dag.set_edge_time(1, 0.5);
  const CriticalPathInfo cp = dag.critical_path();
  EXPECT_DOUBLE_EQ(cp.length, 10.5);
  EXPECT_DOUBLE_EQ(cp.comp_cost, 9.0);
  EXPECT_DOUBLE_EQ(cp.comm_cost, 1.5);
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{0, 1, 2}));
  EXPECT_EQ(cp.edges.size(), 2u);
  EXPECT_NE(cp.edges[0], kNoEdge);
}

TEST(ScheduleDag, CriticalPathPicksHeavierBranch) {
  const TaskGraph g = test::diamond();  // 0->1, 0->2, 1->3, 2->3
  ScheduleDag dag(g);
  for (TaskId t : g.task_ids()) dag.set_vertex_time(t, 1.0);
  dag.set_vertex_time(2, 10.0);
  const CriticalPathInfo cp = dag.critical_path();
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(cp.length, 12.0);
}

TEST(ScheduleDag, HeavyEdgeDrawsCriticalPath) {
  const TaskGraph g = test::diamond();
  ScheduleDag dag(g);
  for (TaskId t : g.task_ids()) dag.set_vertex_time(t, 1.0);
  // Edge 0 is 0->1; make it dominate.
  dag.set_edge_time(0, 50.0);
  const CriticalPathInfo cp = dag.critical_path();
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(cp.comm_cost, 50.0);
}

TEST(ScheduleDag, PseudoEdgeExtendsCriticalPath) {
  // Two independent tasks; a pseudo-edge serializes them.
  TaskGraph g;
  g.add_task("a", serial(5.0, 2));
  g.add_task("b", serial(7.0, 2));
  ScheduleDag dag(g);
  dag.set_vertex_time(0, 5.0);
  dag.set_vertex_time(1, 7.0);
  EXPECT_DOUBLE_EQ(dag.critical_path().length, 7.0);
  dag.add_pseudo_edge(0, 1);
  const CriticalPathInfo cp = dag.critical_path();
  EXPECT_DOUBLE_EQ(cp.length, 12.0);
  EXPECT_DOUBLE_EQ(cp.comm_cost, 0.0);  // pseudo edges are free
  ASSERT_EQ(cp.edges.size(), 1u);
  EXPECT_EQ(cp.edges[0], kNoEdge);
}

TEST(ScheduleDag, PaperFig1ScheduleDag) {
  // Fig 1: G with T1 -> {T2, T3} -> T4 on 4 processors; allocations
  // (4,3,2,4) serialize T2 and T3, giving CP length 10+7+5+8 = 30.
  TaskGraph g;
  const TaskId t1 = g.add_task("T1", serial(10.0, 4));
  const TaskId t2 = g.add_task("T2", serial(7.0, 4));
  const TaskId t3 = g.add_task("T3", serial(5.0, 4));
  const TaskId t4 = g.add_task("T4", serial(8.0, 4));
  g.add_edge(t1, t2, 0.0);
  g.add_edge(t1, t3, 0.0);
  g.add_edge(t2, t4, 0.0);
  g.add_edge(t3, t4, 0.0);
  ScheduleDag dag(g);
  dag.set_vertex_time(t1, 10.0);
  dag.set_vertex_time(t2, 7.0);
  dag.set_vertex_time(t3, 5.0);
  dag.set_vertex_time(t4, 8.0);
  // Without the induced dependence the CP is T1,T2,T4 = 25.
  EXPECT_DOUBLE_EQ(dag.critical_path().length, 25.0);
  dag.add_pseudo_edge(t2, t3);  // resource-induced serialization
  const CriticalPathInfo cp = dag.critical_path();
  EXPECT_DOUBLE_EQ(cp.length, 30.0);
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{t1, t2, t3, t4}));
}

TEST(ScheduleDag, RejectsBadPseudoEdges) {
  const TaskGraph g = test::chain(2);
  ScheduleDag dag(g);
  EXPECT_THROW(dag.add_pseudo_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(dag.add_pseudo_edge(0, 9), std::invalid_argument);
}

TEST(ScheduleDag, DetectsPseudoCycle) {
  const TaskGraph g = test::chain(2);
  ScheduleDag dag(g);
  dag.add_pseudo_edge(1, 0);  // against the chain direction
  EXPECT_THROW(dag.critical_path(), std::logic_error);
}

TEST(ScheduleDag, TracksPseudoEdgeList) {
  const TaskGraph g = test::diamond();
  ScheduleDag dag(g);
  EXPECT_EQ(dag.pseudo_edges().size(), 0u);
  dag.add_pseudo_edge(1, 2);
  ASSERT_EQ(dag.pseudo_edges().size(), 1u);
  EXPECT_EQ(dag.pseudo_edges()[0], (std::pair<TaskId, TaskId>{1, 2}));
}

}  // namespace
}  // namespace locmps
