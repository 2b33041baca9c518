/// Differential run attribution (obs/rundiff.hpp): self-diffs are exactly
/// zero, the divergence taxonomy classifies hand-built views correctly,
/// and a single seeded LoCBS placement flip is attributed back to that
/// task's decision record.

#include "obs/rundiff.hpp"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

std::vector<obs::TraceRecord> traced_run(const TaskGraph& g,
                                         const Cluster& cluster,
                                         TaskId perturb = kNoTask) {
  LocMPSOptions opt;
  opt.locbs.perturb_task = perturb;
  LocMPSScheduler sched(opt);
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx{&reg, &sink};
  sched.attach_observability(&ctx);
  (void)sched.schedule(g, cluster);
  std::istringstream in(buf.str());
  return obs::read_trace(in);
}

TaskGraph small_graph(unsigned seed = 42) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 8;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

TEST(RunDiff, SelfDiffIsExactlyZero) {
  const TaskGraph g = small_graph();
  const Cluster cluster(8);
  const auto records = traced_run(g, cluster);
  const auto v = obs::run_view(records, g.num_tasks());
  EXPECT_GT(v.makespan, 0.0);

  const auto d = obs::diff_runs(g, v, v);
  EXPECT_EQ(d.delta, 0.0);
  EXPECT_TRUE(d.diverged.empty());
  EXPECT_TRUE(d.attribution.empty());
  EXPECT_EQ(d.attributed_fraction, 0.0);

  std::ostringstream text;
  obs::print_diff(text, g, v, v, d);
  EXPECT_NE(text.str().find("identical"), std::string::npos);
  std::ostringstream json;
  obs::write_diff_json(json, g, v, v, d);
  EXPECT_NE(json.str().find("\"delta\":0"), std::string::npos);
}

TEST(RunDiff, TaskCountMismatchThrows) {
  const TaskGraph g = small_graph();
  obs::RunView v;
  v.tasks.resize(g.num_tasks() + 1);
  EXPECT_THROW(obs::diff_runs(g, v, v), std::invalid_argument);
}

/// Two-task chain views for taxonomy unit tests: a â†’ b, both placed.
struct ViewPair {
  TaskGraph g;
  obs::RunView a, b;
};

ViewPair chain_views() {
  ViewPair vp;
  const auto prof = test::profile({10.0, 5.0});
  const TaskId t0 = vp.g.add_task("a", prof);
  const TaskId t1 = vp.g.add_task("b", prof);
  vp.g.add_edge(t0, t1, 1024.0);
  auto mk = [](std::size_t np, double start, double finish,
               std::vector<ProcId> procs, double remote) {
    obs::TaskRun r;
    r.placed = true;
    r.np = np;
    r.busy_from = start;
    r.start = start;
    r.finish = finish;
    r.remote_bytes = remote;
    r.procs = std::move(procs);
    return r;
  };
  vp.a.tasks = {mk(1, 0.0, 10.0, {0}, 0.0), mk(1, 10.0, 20.0, {0}, 0.0)};
  vp.a.makespan = 20.0;
  vp.b = vp.a;
  vp.b.makespan = 20.0;
  return vp;
}

TEST(RunDiff, TaxonomyClassifiesEachKind) {
  {  // width: allocation size changed — always a root cause
    ViewPair vp = chain_views();
    vp.b.tasks[0].np = 2;
    vp.b.tasks[0].procs = {0, 1};
    const auto d = obs::diff_runs(vp.g, vp.a, vp.b);
    ASSERT_FALSE(d.diverged.empty());
    EXPECT_EQ(d.diverged[0].task, 0u);
    EXPECT_EQ(d.diverged[0].kind, obs::DivergenceKind::kWidth);
    EXPECT_TRUE(d.diverged[0].root);
  }
  {  // placement: same width, different processor set
    ViewPair vp = chain_views();
    vp.b.tasks[0].procs = {1};
    const auto d = obs::diff_runs(vp.g, vp.a, vp.b);
    ASSERT_FALSE(d.diverged.empty());
    EXPECT_EQ(d.diverged[0].kind, obs::DivergenceKind::kPlacement);
  }
  {  // start-shift: same processors, later start
    ViewPair vp = chain_views();
    vp.b.tasks[1].start = 12.0;
    vp.b.tasks[1].busy_from = 12.0;
    vp.b.tasks[1].finish = 22.0;
    vp.b.makespan = 22.0;
    const auto d = obs::diff_runs(vp.g, vp.a, vp.b);
    ASSERT_EQ(d.diverged.size(), 1u);
    EXPECT_EQ(d.diverged[0].task, 1u);
    EXPECT_EQ(d.diverged[0].kind, obs::DivergenceKind::kStartShift);
  }
  {  // redist: same slot, different remote volume
    ViewPair vp = chain_views();
    vp.b.tasks[1].remote_bytes = 512.0;
    const auto d = obs::diff_runs(vp.g, vp.a, vp.b);
    ASSERT_EQ(d.diverged.size(), 1u);
    EXPECT_EQ(d.diverged[0].kind, obs::DivergenceKind::kRedist);
  }
  {  // drift: same slot and volume, finish moved
    ViewPair vp = chain_views();
    vp.b.tasks[1].finish = 21.0;
    vp.b.makespan = 21.0;
    const auto d = obs::diff_runs(vp.g, vp.a, vp.b);
    ASSERT_EQ(d.diverged.size(), 1u);
    EXPECT_EQ(d.diverged[0].kind, obs::DivergenceKind::kDrift);
  }
}

TEST(RunDiff, InducedDivergenceBlamesItsRoot) {
  // Task 0 moves (placement root); task 1's start shift is induced by it
  // and must carry task 0 as its source.
  ViewPair vp = chain_views();
  vp.b.tasks[0].procs = {1};
  vp.b.tasks[0].finish = 11.0;
  vp.b.tasks[1].start = 11.0;
  vp.b.tasks[1].busy_from = 11.0;
  vp.b.tasks[1].finish = 21.0;
  vp.b.makespan = 21.0;
  const auto d = obs::diff_runs(vp.g, vp.a, vp.b);
  ASSERT_EQ(d.diverged.size(), 2u);
  EXPECT_TRUE(d.diverged[0].root);
  EXPECT_FALSE(d.diverged[1].root);
  EXPECT_EQ(d.diverged[1].source, 0u);
  ASSERT_FALSE(d.attribution.empty());
  EXPECT_EQ(d.attribution[0].task, 0u);
  EXPECT_EQ(d.attribution[0].fraction, 1.0);
  // Chain runs from the makespan task down to the root.
  ASSERT_GE(d.attribution[0].chain.size(), 2u);
  EXPECT_EQ(d.attribution[0].chain.front(), 1u);
  EXPECT_EQ(d.attribution[0].chain.back(), 0u);
}

TEST(RunDiff, SeededFlipIsAttributedToItsDecision) {
  // 16 processors: varied allocation widths leave room for distinct
  // runner-up subsets (see test_provenance.cpp).
  const Cluster cluster(16);
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 16;
  Rng rng(42);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const auto base_records = traced_run(g, cluster);
  const auto base = obs::run_view(base_records, g.num_tasks());
  const auto decisions =
      obs::final_decisions(base_records, g.num_tasks());

  // Scan for a seeded flip that actually changes the makespan: perturb
  // each task with a distinct runner-up until the realized schedule
  // diverges. Contract under test (ISSUE): the diff attributes >= 90% of
  // the makespan delta to the perturbed task's decision record.
  TaskId flipped = kNoTask;
  obs::RunDiff diff;
  obs::RunView cand;
  for (TaskId t = 0; t < g.num_tasks() && flipped == kNoTask; ++t) {
    if (!decisions[t].valid() || decisions[t].margin < 0.0) continue;
    const auto records = traced_run(g, cluster, t);
    const auto v = obs::run_view(records, g.num_tasks());
    if (v.makespan == base.makespan) continue;
    flipped = t;
    cand = v;
    diff = obs::diff_runs(g, base, cand);
  }
  ASSERT_NE(flipped, kNoTask)
      << "no seeded flip changed the makespan on this workload";

  EXPECT_NE(diff.delta, 0.0);
  ASSERT_FALSE(diff.attribution.empty());
  EXPECT_EQ(diff.attribution[0].task, flipped);
  EXPECT_GE(diff.attribution[0].fraction, 0.9);
  EXPECT_GE(diff.attributed_fraction, 0.9);
  EXPECT_EQ(diff.attribution[0].chain.back(), flipped);

  // The perturbed run's trace marks exactly the flipped decision.
  {
    const auto records = traced_run(g, cluster, flipped);
    const auto pert = obs::final_decisions(records, g.num_tasks());
    ASSERT_TRUE(pert[flipped].valid());
    EXPECT_TRUE(pert[flipped].perturbed);
  }

  // The text and JSON renderings name the culprit.
  std::ostringstream text;
  obs::print_diff(text, g, base, cand, diff);
  EXPECT_NE(text.str().find(g.task(flipped).name), std::string::npos);
  std::ostringstream json;
  obs::write_diff_json(json, g, base, cand, diff);
  EXPECT_NE(json.str().find("\"attribution\""), std::string::npos);
}

}  // namespace
}  // namespace locmps
