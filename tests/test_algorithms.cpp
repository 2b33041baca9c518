#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/strassen.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

namespace locmps {
namespace {

using test::serial;

TEST(Algorithms, TopologicalOrderRespectsEdges) {
  const TaskGraph g = test::diamond();
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (std::size_t e = 0; e < g.num_edges(); ++e)
    EXPECT_LT(pos[g.edge(static_cast<EdgeId>(e)).src],
              pos[g.edge(static_cast<EdgeId>(e)).dst]);
}

TEST(Algorithms, TopologicalOrderThrowsOnCycle) {
  TaskGraph g;
  const TaskId a = g.add_task("a", serial(1.0, 2));
  const TaskId b = g.add_task("b", serial(1.0, 2));
  g.add_edge(a, b, 0.0);
  g.add_edge(b, a, 0.0);
  EXPECT_THROW(topological_order(g), std::invalid_argument);
}

TEST(Algorithms, DescendantsIncludeSelfAndReachable) {
  const TaskGraph g = test::diamond();  // 0->1, 0->2, 1->3, 2->3
  const auto d = descendants(g, 1);
  EXPECT_TRUE(d[1]);
  EXPECT_TRUE(d[3]);
  EXPECT_FALSE(d[0]);
  EXPECT_FALSE(d[2]);
}

TEST(Algorithms, AncestorsMirrorDescendants) {
  const TaskGraph g = test::diamond();
  const auto a = ancestors(g, 2);
  EXPECT_TRUE(a[2]);
  EXPECT_TRUE(a[0]);
  EXPECT_FALSE(a[1]);
  EXPECT_FALSE(a[3]);
}

TEST(Algorithms, ConcurrentSetIsSiblings) {
  const TaskGraph g = test::diamond();
  EXPECT_EQ(concurrent_set(g, 1), (std::vector<TaskId>{2}));
  EXPECT_EQ(concurrent_set(g, 0), (std::vector<TaskId>{}));
  EXPECT_EQ(concurrent_set(g, 3), (std::vector<TaskId>{}));
}

TEST(Algorithms, ConcurrencyRatioOfChainIsZero) {
  const TaskGraph g = test::chain(5);
  const ConcurrencyAnalysis ca(g);
  for (TaskId t : g.task_ids()) EXPECT_DOUBLE_EQ(ca.ratio(t), 0.0);
}

TEST(Algorithms, ConcurrencyRatioPaperFig2) {
  // The paper's Fig 2 rationale: cr(t) = concurrent serial work / own work.
  TaskGraph g;
  const TaskId t2 = g.add_task("T2", test::profile({8, 6, 5}));
  const TaskId t1 = g.add_task("T1", test::profile({10, 7, 5}));
  const TaskId t3 = g.add_task("T3", test::profile({9, 7, 5}));
  const TaskId t4 = g.add_task("T4", test::profile({7, 5, 4}));
  g.add_edge(t2, t1, 0.0);
  g.add_edge(t2, t3, 0.0);
  g.add_edge(t2, t4, 0.0);
  const ConcurrencyAnalysis ca(g);
  EXPECT_DOUBLE_EQ(ca.ratio(t2), 0.0);            // nothing concurrent
  EXPECT_DOUBLE_EQ(ca.ratio(t1), (9.0 + 7.0) / 10.0);
  EXPECT_DOUBLE_EQ(ca.ratio(t3), (10.0 + 7.0) / 9.0);
  EXPECT_DOUBLE_EQ(ca.ratio(t4), (10.0 + 9.0) / 7.0);
}

// The 64-task masks must give every ratio bit for bit as the sum over
// concurrent_set: graphs around the 64-task chunk edges and the paper's
// application graphs.
TEST(Algorithms, ConcurrencyRatiosEqualConcurrentSetSums) {
  std::vector<TaskGraph> graphs;
  for (const std::size_t n : {1, 2, 63, 64, 65, 128, 130, 200})
    for (const double ccr : {0.0, 0.5, 1.0}) {
      SyntheticParams sp;
      sp.min_tasks = sp.max_tasks = n;
      sp.ccr = ccr;
      Rng rng(n * 31 + static_cast<std::uint64_t>(ccr * 2));
      graphs.push_back(make_synthetic_dag(sp, rng));
    }
  graphs.push_back(test::chain(70));
  TCEParams tp;
  tp.occupied = 8;
  tp.virt = 32;
  graphs.push_back(make_ccsd_t1(tp));
  StrassenParams sp;
  sp.n = 512;
  graphs.push_back(make_strassen(sp));
  for (const TaskGraph& g : graphs) {
    const ConcurrencyAnalysis ca(g);
    for (TaskId t : g.task_ids()) {
      double work = 0.0;
      for (TaskId u : concurrent_set(g, t))
        work += g.task(u).profile.serial_time();
      const double want = work / g.task(t).profile.serial_time();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.ratio(t)),
                std::bit_cast<std::uint64_t>(want))
          << "|V|=" << g.num_tasks() << " task " << t;
    }
  }
}

TEST(Algorithms, LevelsOfChain) {
  const TaskGraph g = test::chain(3, 10.0);
  const Levels lv = compute_levels(
      g, [&](TaskId t) { return g.task(t).profile.serial_time(); },
      [](EdgeId) { return 0.0; });
  EXPECT_DOUBLE_EQ(lv.top[0], 0.0);
  EXPECT_DOUBLE_EQ(lv.top[1], 10.0);
  EXPECT_DOUBLE_EQ(lv.top[2], 20.0);
  EXPECT_DOUBLE_EQ(lv.bottom[0], 30.0);
  EXPECT_DOUBLE_EQ(lv.bottom[2], 10.0);
  EXPECT_DOUBLE_EQ(lv.critical_path_length(), 30.0);
}

TEST(Algorithms, LevelsIncludeEdgeWeights) {
  const TaskGraph g = test::chain(2, 10.0);
  const Levels lv = compute_levels(
      g, [](TaskId) { return 10.0; }, [](EdgeId) { return 5.0; });
  EXPECT_DOUBLE_EQ(lv.top[1], 15.0);
  EXPECT_DOUBLE_EQ(lv.bottom[0], 25.0);
  EXPECT_DOUBLE_EQ(lv.critical_path_length(), 25.0);
}

TEST(Algorithms, LevelsOfDiamondTakeLongestBranch) {
  TaskGraph g;  // a -> b(3), a -> c(7), b -> d, c -> d
  const TaskId a = g.add_task("a", serial(1.0, 2));
  const TaskId b = g.add_task("b", serial(3.0, 2));
  const TaskId c = g.add_task("c", serial(7.0, 2));
  const TaskId d = g.add_task("d", serial(1.0, 2));
  g.add_edge(a, b, 0.0);
  g.add_edge(a, c, 0.0);
  g.add_edge(b, d, 0.0);
  g.add_edge(c, d, 0.0);
  const Levels lv = compute_levels(
      g, [&](TaskId t) { return g.task(t).profile.serial_time(); },
      [](EdgeId) { return 0.0; });
  EXPECT_DOUBLE_EQ(lv.top[d], 8.0);  // through c
  EXPECT_DOUBLE_EQ(lv.critical_path_length(), 9.0);
}

TEST(Algorithms, TopLevelOfEverySourceIsZero) {
  const TaskGraph g = test::diamond();
  const Levels lv = compute_levels(
      g, [](TaskId) { return 1.0; }, [](EdgeId) { return 0.0; });
  for (TaskId s : g.sources()) EXPECT_DOUBLE_EQ(lv.top[s], 0.0);
}

}  // namespace
}  // namespace locmps
