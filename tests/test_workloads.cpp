#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "workloads/strassen.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

namespace locmps {
namespace {

// ----------------------------------------------------------- synthetic --
TEST(Synthetic, DeterministicInSeed) {
  SyntheticParams p;
  p.ccr = 0.5;
  Rng r1(42), r2(42);
  const TaskGraph a = make_synthetic_dag(p, r1);
  const TaskGraph b = make_synthetic_dag(p, r2);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t e = 0; e < a.num_edges(); ++e)
    EXPECT_DOUBLE_EQ(a.edge(e).volume_bytes, b.edge(e).volume_bytes);
}

TEST(Synthetic, TaskCountWithinRange) {
  SyntheticParams p;
  p.min_tasks = 10;
  p.max_tasks = 50;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const TaskGraph g = make_synthetic_dag(p, rng);
    EXPECT_GE(g.num_tasks(), 10u);
    EXPECT_LE(g.num_tasks(), 50u);
    EXPECT_EQ(g.validate(), "");
  }
}

TEST(Synthetic, AverageDegreeNearTarget) {
  SyntheticParams p;
  p.min_tasks = 40;
  p.max_tasks = 50;
  p.avg_degree = 4.0;
  Rng rng(9);
  double total_ratio = 0.0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const TaskGraph g = make_synthetic_dag(p, rng);
    total_ratio += static_cast<double>(g.num_edges()) /
                   static_cast<double>(g.num_tasks());
  }
  EXPECT_NEAR(total_ratio / n, 4.0, 1.0);
}

TEST(Synthetic, SerialTimesHaveRequestedMean) {
  SyntheticParams p;
  p.min_tasks = 50;
  p.max_tasks = 50;
  Rng rng(11);
  double sum = 0.0;
  std::size_t count = 0;
  for (int i = 0; i < 40; ++i) {
    const TaskGraph g = make_synthetic_dag(p, rng);
    for (TaskId t : g.task_ids()) sum += g.task(t).profile.serial_time();
    count += g.num_tasks();
  }
  EXPECT_NEAR(sum / static_cast<double>(count), 30.0, 2.0);
}

TEST(Synthetic, CcrZeroMeansNoData) {
  SyntheticParams p;
  p.ccr = 0.0;
  Rng rng(13);
  const TaskGraph g = make_synthetic_dag(p, rng);
  for (std::size_t e = 0; e < g.num_edges(); ++e)
    EXPECT_DOUBLE_EQ(g.edge(e).volume_bytes, 0.0);
}

TEST(Synthetic, CcrScalesCommunication) {
  // Mean edge cost at np=1 should be ~ mean_serial_time * ccr.
  SyntheticParams p;
  p.ccr = 1.0;
  p.min_tasks = 50;
  p.max_tasks = 50;
  Rng rng(17);
  double cost_sum = 0.0;
  std::size_t edges = 0;
  for (int i = 0; i < 40; ++i) {
    const TaskGraph g = make_synthetic_dag(p, rng);
    for (std::size_t e = 0; e < g.num_edges(); ++e)
      cost_sum += g.edge(e).volume_bytes / p.bandwidth_Bps;
    edges += g.num_edges();
  }
  EXPECT_NEAR(cost_sum / static_cast<double>(edges), 30.0, 2.0);
}

TEST(Synthetic, SuiteIsDeterministicAndIndependent) {
  SyntheticParams p;
  const auto s1 = make_synthetic_suite(p, 5, 99);
  const auto s2 = make_synthetic_suite(p, 5, 99);
  ASSERT_EQ(s1.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(s1[i].num_tasks(), s2[i].num_tasks());
  // Different seeds give different suites.
  const auto s3 = make_synthetic_suite(p, 5, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < 5; ++i)
    any_diff |= s1[i].num_tasks() != s3[i].num_tasks();
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, ProfilesFollowDowneyShape) {
  SyntheticParams p;
  p.amax = 64.0;
  p.sigma = 1.0;
  p.max_procs = 64;
  Rng rng(19);
  const TaskGraph g = make_synthetic_dag(p, rng);
  for (TaskId t : g.task_ids()) {
    const auto& prof = g.task(t).profile;
    EXPECT_EQ(prof.max_procs(), 64u);
    // Non-increasing in p (Downey speedups are non-decreasing).
    for (std::size_t n = 1; n < 64; ++n)
      EXPECT_LE(prof.time(n + 1), prof.time(n) + 1e-9);
  }
}

/// One edge of a synthetic DAG: (src, dst, volume).
struct DrawnEdge {
  TaskId src;
  TaskId dst;
  double volume;
};

/// make_synthetic_dag's random draws, with each task's predecessors drawn
/// by a partial Fisher-Yates shuffle of a literal i-element pool: the
/// reference the generator's displaced-slot draw must reproduce edge for
/// edge and draw for draw.
std::vector<DrawnEdge> literal_pool_edges(const SyntheticParams& p, Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(p.min_tasks),
                      static_cast<std::int64_t>(p.max_tasks)));
  for (std::size_t i = 0; i < n; ++i) {  // serial time, then Downey's A
    (void)rng.uniform(0.0, 2.0 * p.mean_serial_time);
    (void)rng.uniform(1.0, p.amax);
  }
  const auto deg_hi = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(2.0 * p.avg_degree) - 1);
  std::vector<DrawnEdge> out;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(i), rng.uniform_int(1, deg_hi)));
    std::vector<TaskId> pool(i);
    std::iota(pool.begin(), pool.end(), TaskId{0});
    for (std::size_t k = 0; k < want; ++k) {
      const std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(k),
                          static_cast<std::int64_t>(i) - 1));
      std::swap(pool[k], pool[j]);
      const double cost =
          p.ccr > 0.0 ? rng.uniform(0.0, 2.0 * p.mean_serial_time * p.ccr)
                      : 0.0;
      out.push_back({pool[k], static_cast<TaskId>(i), cost * p.bandwidth_Bps});
    }
  }
  return out;
}

TEST(Synthetic, PredecessorDrawMatchesTheLiteralPool) {
  // Sizes 2 and 5 clip every task's in-degree draw to the i tasks before
  // it; avg_degree 8 draws up to 15 predecessors per task.
  for (const std::size_t size : {2, 5, 50, 1024, 2048})
    for (const double degree : {4.0, 8.0})
      for (const std::uint64_t seed : {1, 7, 42, 1024, 20060901}) {
        SyntheticParams p;
        p.min_tasks = p.max_tasks = size;
        p.avg_degree = degree;
        p.ccr = seed % 2 == 0 ? 0.5 : 0.0;
        p.max_procs = 4;
        Rng gen(seed), ref(seed);
        const TaskGraph g = make_synthetic_dag(p, gen);
        const std::vector<DrawnEdge> want = literal_pool_edges(p, ref);
        ASSERT_EQ(g.num_edges(), want.size()) << size << ' ' << seed;
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          const Edge& ed = g.edge(e);
          ASSERT_TRUE(ed.src == want[e].src && ed.dst == want[e].dst &&
                      ed.volume_bytes == want[e].volume)  // bit-exact
              << "edge " << e << " of |V| = " << size << ", seed " << seed;
        }
        EXPECT_EQ(gen.next(), ref.next()) << "the random streams diverged";
      }
}

// ----------------------------------------------------------------- TCE --
TEST(TCE, GraphIsValidWithSourceAndSink) {
  const TaskGraph g = make_ccsd_t1();
  EXPECT_EQ(g.validate(), "");
  // Contractions over pre-distributed inputs are the sources (Fig 7a).
  EXPECT_EQ(g.sources().size(), 9u);
  EXPECT_EQ(g.sinks().size(), 1u);  // the residual accumulation
  EXPECT_EQ(g.task(g.sinks()[0]).name, "residual");
}

TEST(TCE, HasFewLargeAndManySmallTasks) {
  const TaskGraph g = make_ccsd_t1();
  std::vector<double> times;
  for (TaskId t : g.task_ids())
    times.push_back(g.task(t).profile.serial_time());
  std::sort(times.begin(), times.end());
  // The largest contraction (O(o^2 v^3)) dwarfs the median task.
  EXPECT_GT(times.back(), 20.0 * times[times.size() / 2]);
}

TEST(TCE, LargeTasksScaleSmallTasksDoNot) {
  const TCEParams p;
  const TaskGraph g = make_ccsd_t1(p);
  double best_speedup = 0.0, worst_speedup = 1e30;
  for (TaskId t : g.task_ids()) {
    const auto& prof = g.task(t).profile;
    const double s = prof.speedup(64);
    best_speedup = std::max(best_speedup, s);
    worst_speedup = std::min(worst_speedup, s);
  }
  EXPECT_GT(best_speedup, 16.0);
  EXPECT_LT(worst_speedup, 4.0);
}

TEST(TCE, ProblemSizeScalesWork) {
  TCEParams small;
  small.occupied = 8;
  small.virt = 32;
  TCEParams big;
  big.occupied = 16;
  big.virt = 64;
  EXPECT_GT(make_ccsd_t1(big).total_serial_work(),
            8.0 * make_ccsd_t1(small).total_serial_work());
}

TEST(TCE, AccumulationChainIsSequential) {
  const TaskGraph g = make_ccsd_t1();
  // Find acc tasks by name; each acc_{i+1} depends on acc_i.
  TaskId prev = kNoTask;
  for (TaskId t : g.task_ids()) {
    if (g.task(t).name.rfind("acc", 0) == 0 || g.task(t).name == "residual") {
      if (prev != kNoTask) {
        bool linked = false;
        for (EdgeId e : g.in_edges(t)) linked |= g.edge(e).src == prev;
        EXPECT_TRUE(linked) << g.task(t).name;
      }
      prev = t;
    }
  }
}

// ------------------------------------------------------------ Strassen --
TEST(Strassen, OneLevelHasExpectedStructure) {
  StrassenParams p;
  p.n = 1024;
  p.levels = 1;
  const TaskGraph g = make_strassen(p);
  EXPECT_EQ(g.validate(), "");
  // 10 pre-adds + 7 multiplies + 4 combines + 1 assemble.
  EXPECT_EQ(g.num_tasks(), 22u);
  EXPECT_EQ(g.sinks().size(), 1u);
  EXPECT_EQ(g.sources().size(), 10u);  // the pre-addition tasks
}

TEST(Strassen, RecursionMultipliesTaskCount) {
  StrassenParams p1;
  p1.n = 1024;
  p1.levels = 1;
  StrassenParams p2 = p1;
  p2.levels = 2;
  const std::size_t t1 = make_strassen(p1).num_tasks();
  const std::size_t t2 = make_strassen(p2).num_tasks();
  // Level 2 replaces each of the 7 leaf multiplies with a 22-task sub-DAG.
  EXPECT_EQ(t1, 22u);
  EXPECT_EQ(t2, 22u - 7u + 7u * 22u);
  EXPECT_EQ(make_strassen(p2).validate(), "");
}

TEST(Strassen, MultipliesDominateAdds) {
  StrassenParams p;
  p.n = 4096;
  const TaskGraph g = make_strassen(p);
  double mul_time = 0.0, add_time = 0.0;
  for (TaskId t : g.task_ids()) {
    const double s = g.task(t).profile.serial_time();
    if (g.task(t).name.rfind("mul", 0) == 0)
      mul_time += s;
    else
      add_time += s;
  }
  EXPECT_GT(mul_time, 10.0 * add_time);
}

TEST(Strassen, LargerMatricesScaleBetter) {
  StrassenParams small;
  small.n = 1024;
  StrassenParams big;
  big.n = 4096;
  const TaskGraph gs = make_strassen(small);
  const TaskGraph gb = make_strassen(big);
  auto mul_speedup = [](const TaskGraph& g) {
    for (TaskId t : g.task_ids())
      if (g.task(t).name.rfind("mul", 0) == 0)
        return g.task(t).profile.speedup(64);
    return 0.0;
  };
  EXPECT_GT(mul_speedup(gb), mul_speedup(gs));
}

TEST(Strassen, RejectsBadParameters) {
  StrassenParams p;
  p.n = 1000;  // not a power of two
  EXPECT_THROW(make_strassen(p), std::invalid_argument);
  p.n = 1024;
  p.levels = 0;
  EXPECT_THROW(make_strassen(p), std::invalid_argument);
  p.levels = 20;  // exceeds recursion room for n
  EXPECT_THROW(make_strassen(p), std::invalid_argument);
}

TEST(Strassen, EdgeVolumesMatchBlockSizes) {
  StrassenParams p;
  p.n = 1024;
  const TaskGraph g = make_strassen(p);
  const double quarter = 512.0 * 512.0 * 8.0;
  // Every combine -> assemble edge carries one quadrant.
  const TaskId sink = g.sinks()[0];
  for (EdgeId e : g.in_edges(sink))
    EXPECT_DOUBLE_EQ(g.edge(e).volume_bytes, quarter);
}

}  // namespace
}  // namespace locmps
