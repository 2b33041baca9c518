#include "graph/transform.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "workloads/tce.hpp"

namespace locmps {
namespace {

using test::serial;

// ------------------------------------------------------- chain coarsening --
TEST(Coarsen, MergesAPureChainToOneTask) {
  const TaskGraph g = test::chain(5, 10.0, 4, 1e6);
  const Coarsening c = coarsen_chains(g);
  ASSERT_EQ(c.graph.num_tasks(), 1u);
  EXPECT_EQ(c.graph.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(c.graph.task(0).profile.serial_time(), 50.0);
  EXPECT_EQ(c.members[0].size(), 5u);
  for (TaskId t : g.task_ids()) EXPECT_EQ(c.member_of[t], 0u);
}

TEST(Coarsen, DiamondIsIrreducible) {
  const TaskGraph g = test::diamond();
  const Coarsening c = coarsen_chains(g);
  EXPECT_EQ(c.graph.num_tasks(), 4u);
  EXPECT_EQ(c.graph.num_edges(), 4u);
}

TEST(Coarsen, MixedGraphMergesOnlyChains) {
  // a -> b -> c -> d with an extra edge a -> d: only b -> c contractible
  // (b has 1 out, c has 1 in).
  TaskGraph g;
  const TaskId a = g.add_task("a", serial(1, 2));
  const TaskId b = g.add_task("b", serial(2, 2));
  const TaskId cc = g.add_task("c", serial(3, 2));
  const TaskId d = g.add_task("d", serial(4, 2));
  g.add_edge(a, b, 0.0);
  g.add_edge(b, cc, 7.0);
  g.add_edge(cc, d, 0.0);
  g.add_edge(a, d, 0.0);
  const Coarsening c = coarsen_chains(g);
  EXPECT_EQ(c.graph.num_tasks(), 3u);  // a, b+c, d
  EXPECT_EQ(c.member_of[b], c.member_of[cc]);
  // The internal b->c data edge is internalized.
  for (std::size_t e = 0; e < c.graph.num_edges(); ++e)
    EXPECT_NE(c.graph.edge(static_cast<EdgeId>(e)).volume_bytes, 7.0);
  EXPECT_EQ(c.graph.validate(), "");
}

TEST(Coarsen, CompositeProfileIsMemberwiseSum) {
  TaskGraph g;
  const TaskId a = g.add_task("a", test::profile({10, 6}));
  const TaskId b = g.add_task("b", test::profile({4, 2}));
  g.add_edge(a, b, 0.0);
  const Coarsening c = coarsen_chains(g);
  ASSERT_EQ(c.graph.num_tasks(), 1u);
  EXPECT_DOUBLE_EQ(c.graph.task(0).profile.time(1), 14.0);
  EXPECT_DOUBLE_EQ(c.graph.task(0).profile.time(2), 8.0);
}

TEST(Coarsen, CoarseningPreservesScheduleQuality) {
  // Scheduling the coarse graph must be no worse than ~15% off the direct
  // schedule on chain-rich graphs (often identical or better: fewer
  // decisions).
  TCEParams tp;
  tp.occupied = 8;
  tp.virt = 32;
  tp.max_procs = 8;
  const TaskGraph g = make_ccsd_t1(tp);
  const Coarsening c = coarsen_chains(g);
  EXPECT_LT(c.graph.num_tasks(), g.num_tasks());  // the acc chain merges
  const Cluster cl(8, 250e6);
  const double direct =
      LocMPSScheduler().schedule(g, cl).estimated_makespan;
  const double coarse =
      LocMPSScheduler().schedule(c.graph, cl).estimated_makespan;
  EXPECT_LE(coarse, direct * 1.15);
}

}  // namespace
}  // namespace locmps
