/// Differential-equivalence oracle for incremental replanning
/// (schedulers/incremental.hpp, docs/incremental.md).
///
/// The contract: LoC-MPS with `incremental = true` — prefix replay of
/// recorded LoCBS evaluations — must be observably identical to the
/// from-scratch reference on every workload: same placements, same
/// makespan, same counters (outside the digest-excluded incr.* family),
/// same sample-series values, same decision-event stream when traced, and
/// the same post-mortem analysis. Only the incr.* counters may reveal
/// which path ran. The suite runs every workload of the seeded sweep
/// through both sides, plus the small ones under every LoCBS variant and
/// with a profiler attached, and asserts with the shared
/// DifferentialChecker (tests/test_util.hpp).

#include "schedulers/incremental.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "network/comm_model.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/strassen.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

using namespace locmps;
using test::DifferentialChecker;
using test::RunCapture;

namespace {

RunCapture run(const TaskGraph& g, const Cluster& cluster, bool incremental,
               bool with_sink, LocMPSOptions opt = {},
               obs::Profiler* prof = nullptr) {
  opt.incremental = incremental;
  return test::run_locmps_capture(g, cluster, opt, with_sink, prof);
}

/// The seeded workload sweep: synthetic DAGs across CCR regimes, Strassen,
/// and a TCE CCSD T1 instance (scaled to test size).
std::vector<std::pair<std::string, TaskGraph>> sweep_workloads() {
  std::vector<std::pair<std::string, TaskGraph>> ws;
  for (const double ccr : {0.0, 0.5, 2.0}) {
    SyntheticParams p;
    p.ccr = ccr;
    p.max_procs = 16;
    const auto suite = make_synthetic_suite(
        p, 2, 9000 + static_cast<std::uint64_t>(ccr * 10.0));
    for (std::size_t i = 0; i < suite.size(); ++i)
      ws.emplace_back("synthetic ccr=" + std::to_string(ccr) + " #" +
                          std::to_string(i),
                      suite[i]);
  }
  StrassenParams sp;
  sp.n = 512;
  sp.max_procs = 16;
  ws.emplace_back("strassen 512", make_strassen(sp));
  TCEParams tp;
  tp.occupied = 8;
  tp.virt = 32;
  tp.max_procs = 16;
  ws.emplace_back("ccsd t1 (8,32)", make_ccsd_t1(tp));
  return ws;
}

// ---------------------------------------------------------------------------
// The oracle: incremental on vs off, every workload

TEST(IncrementalOracle, MetricsOnlyRunsAreBitIdentical) {
  // Without a sink no final pass re-realizes the committed allocation from
  // scratch, so the returned schedule is the search's own, replayed one.
  const Cluster cluster(16);
  for (const auto& [label, g] : sweep_workloads()) {
    const RunCapture off = run(g, cluster, /*incremental=*/false, false);
    const RunCapture on = run(g, cluster, /*incremental=*/true, false);
    DifferentialChecker(g).expect_identical(off, on, label);
    EXPECT_GT(on.metrics.counter("incr.replayed_tasks"), 0.0) << label;
  }
}

TEST(IncrementalOracle, TracedRunsAreBitIdentical) {
  // A sink sees only the final realization, so the search passes replay
  // exactly as in an untraced run, and the contract covers the full
  // decision-event stream of every workload.
  const Cluster cluster(16);
  for (const auto& [label, g] : sweep_workloads()) {
    const RunCapture off = run(g, cluster, false, /*with_sink=*/true);
    const RunCapture on = run(g, cluster, true, /*with_sink=*/true);
    DifferentialChecker(g).expect_identical(off, on, label + " traced");
    EXPECT_GT(on.metrics.counter("incr.replayed_tasks"), 0.0) << label;
  }
}

/// The two small sweep workloads whose edges carry data: a synthetic DAG
/// (15 tasks) and Strassen (22 tasks).
std::vector<std::pair<std::string, TaskGraph>> small_workloads() {
  std::vector<std::pair<std::string, TaskGraph>> ws;
  for (auto& [label, g] : sweep_workloads())
    if (label == "synthetic ccr=0.500000 #0" || label == "strassen 512")
      ws.emplace_back(label, std::move(g));
  return ws;
}

TEST(IncrementalOracle, LocBSVariantsAreBitIdentical) {
  // Replay commits whatever the recorded scan found, so the contract must
  // hold under every LoCBS switch, and on the no-overlap platform, where
  // a committed busy_from precedes its start.
  using Variant = std::function<void(LocMPSOptions&, Cluster&)>;
  const std::vector<std::pair<std::string, Variant>> variants = {
      {"backfill=false",
       [](LocMPSOptions& o, Cluster&) { o.locbs.backfill = false; }},
      {"locality=false",
       [](LocMPSOptions& o, Cluster&) { o.locbs.locality = false; }},
      {"comm_blind",
       [](LocMPSOptions& o, Cluster&) { o.locbs.comm_blind = true; }},
      {"slack_factor=1.25",
       [](LocMPSOptions& o, Cluster&) { o.locbs.slack_factor = 1.25; }},
      {"no overlap",
       [](LocMPSOptions&, Cluster& c) { c.overlap_comm_compute = false; }},
  };
  const auto ws = small_workloads();
  ASSERT_EQ(ws.size(), 2u);
  for (const auto& [name, apply] : variants) {
    for (const auto& [label, g] : ws) {
      LocMPSOptions opt;
      Cluster cluster(16);
      apply(opt, cluster);
      const RunCapture off = run(g, cluster, false, false, opt);
      const RunCapture on = run(g, cluster, true, false, opt);
      DifferentialChecker(g).expect_identical(off, on, label + " " + name);
      EXPECT_GT(on.metrics.counter("incr.replayed_tasks"), 0.0)
          << label << " " << name;
    }
  }
}

TEST(IncrementalOracle, ProfiledRunsReplayAndAreBitIdentical) {
  // An attached profiler does not stop replay: the profiled run replays,
  // matches the reference, and its profile opens one locbs.place span per
  // scanned (not replayed) placement.
  std::function<std::uint64_t(const obs::ProfileNode&)> places =
      [&](const obs::ProfileNode& n) {
        std::uint64_t c = n.name == "locbs.place" ? n.count : 0;
        for (const obs::ProfileNode& ch : n.children) c += places(ch);
        return c;
      };
  const Cluster cluster(16);
  for (const auto& [label, g] : small_workloads()) {
    obs::Profiler prof;
    const RunCapture off = run(g, cluster, false, false);
    const RunCapture on = run(g, cluster, true, false, {}, &prof);
    DifferentialChecker(g).expect_identical(off, on, label + " profiled");
    EXPECT_GT(on.metrics.counter("incr.replayed_tasks"), 0.0) << label;
    EXPECT_EQ(static_cast<double>(places(prof.snapshot().root)),
              on.metrics.counter("incr.dirty_tasks"))
        << label;
  }
}

TEST(IncrementalOracle, AnalysesAgree) {
  // The post-mortem analyzer consumes the realized schedule; both sides
  // must decompose to the same utilization, holes, locality, and blame.
  const Cluster cluster(16);
  const CommModel comm{cluster};
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(777);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const RunCapture off = run(g, cluster, false, false);
  const RunCapture on = run(g, cluster, true, false);
  const DifferentialChecker check(g);
  check.expect_identical(off, on, "analysis workload");
  const auto a_off = obs::analyze_schedule(g, off.result.schedule, comm);
  const auto a_on = obs::analyze_schedule(g, on.result.schedule, comm);
  check.expect_same_analysis(a_off, a_on, "analysis");
}

TEST(IncrementalOracle, CountersExposeTheReplay) {
  // The incremental run accounts its work in the digest-excluded incr.*
  // family: dirty (re-scanned) tasks and replayed tasks. The from-scratch
  // side reports none of them.
  const Cluster cluster(16);
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(777);
  const TaskGraph g = make_synthetic_dag(p, rng);

  const RunCapture off = run(g, cluster, false, false);
  for (const auto& kv : off.metrics.counters)
    EXPECT_FALSE(kv.first.rfind("incr.", 0) == 0) << kv.first;

  const RunCapture on = run(g, cluster, true, false);
  EXPECT_GT(on.metrics.counter("incr.dirty_tasks"), 0.0);
  EXPECT_GT(on.metrics.counter("incr.replayed_tasks"), 0.0);
  // Replay amortizes: across a whole refinement run most placements come
  // from the recorded prefix, not a fresh scan.
  EXPECT_GT(on.metrics.counter("incr.replayed_tasks"),
            on.metrics.counter("incr.dirty_tasks"));
}

TEST(IncrementalOracle, FixedPrefixReplansAreBitIdentical) {
  // The online-rescheduling entry point threads the same machinery;
  // replanning around a frozen prefix must also be mode-invariant.
  const Cluster cluster(16);
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 16;
  Rng rng(4242);
  const TaskGraph g = make_synthetic_dag(p, rng);

  // Freeze the earliest-starting quarter of an initial schedule — a
  // start-time-closed prefix, as a real mid-run replan would see.
  LocMPSOptions base;
  base.incremental = false;
  const SchedulerResult seed = LocMPSScheduler(base).schedule(g, cluster);
  std::vector<TaskId> by_start(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) by_start[t] = t;
  std::sort(by_start.begin(), by_start.end(), [&](TaskId a, TaskId b) {
    return seed.schedule.at(a).start < seed.schedule.at(b).start;
  });
  FixedPrefix fixed;
  fixed.frozen.assign(g.num_tasks(), 0);
  fixed.placements = &seed.schedule;
  double latest = 0.0;
  for (std::size_t i = 0; i < by_start.size() / 4; ++i) {
    fixed.frozen[by_start[i]] = 1;
    latest = std::max(latest, seed.schedule.at(by_start[i]).start);
  }
  fixed.not_before = latest;

  auto replan = [&](bool incremental) {
    LocMPSOptions opt;
    opt.incremental = incremental;
    return LocMPSScheduler(opt).schedule_with_fixed(g, cluster, fixed);
  };
  const SchedulerResult off = replan(false);
  const SchedulerResult on = replan(true);
  EXPECT_EQ(off.estimated_makespan, on.estimated_makespan);
  ASSERT_EQ(off.allocation, on.allocation);
  for (TaskId t : g.task_ids()) {
    const Placement& a = off.schedule.at(t);
    const Placement& b = on.schedule.at(t);
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_TRUE(a.procs == b.procs) << "task " << t;
  }
}

// ---------------------------------------------------------------------------
// Unit coverage of the incremental building blocks

TEST(IncrementalContext, PicksTheLongestMatchingRecord) {
  // The context records one evaluation, the previous pass, and a pass
  // replays the longest prefix of it that its own picks match. On an
  // edge-free graph with distinct task times the picks follow the times:
  // t0 (50 s on one processor, 45 s on two) first, t4 (10 s) last.
  TaskGraph g;
  g.add_task("t0", test::profile({50.0, 45.0, 40.0, 35.0}));
  for (const double t : {40.0, 30.0, 20.0, 10.0})
    g.add_task("t", test::profile({t, t / 2, t / 3, t / 4}));
  const std::size_t n = g.num_tasks();
  const CommModel comm{Cluster(4)};

  // One pass on \p ctx against the from-scratch reference; returns the
  // pass's incr.* counters.
  struct Replay {
    double replayed = 0.0, rebuilds = 0.0;
  };
  auto pass = [&](IncrementalContext& ctx, const Allocation& np,
                  const FixedPrefix* fixed = nullptr) {
    obs::MetricsRegistry reg;
    obs::ObsContext obs{&reg, nullptr, nullptr};
    const LocBSResult on = locbs(g, np, comm, {}, fixed, &obs, &ctx);
    const LocBSResult off = locbs(g, np, comm, {}, fixed);
    EXPECT_EQ(on.makespan, off.makespan);
    for (TaskId t : g.task_ids()) {
      const Placement& a = on.schedule.at(t);
      const Placement& b = off.schedule.at(t);
      EXPECT_EQ(a.busy_from, b.busy_from) << "task " << t;
      EXPECT_EQ(a.start, b.start) << "task " << t;
      EXPECT_EQ(a.finish, b.finish) << "task " << t;
      EXPECT_TRUE(a.procs == b.procs) << "task " << t;
    }
    const auto placed = static_cast<std::size_t>(
        fixed == nullptr ? n
                         : std::count(fixed->frozen.begin(),
                                      fixed->frozen.end(), 0));
    EXPECT_EQ(ctx.steps.size(), placed);  // one evaluation, no more
    const obs::MetricsSnapshot c = reg.snapshot();
    EXPECT_EQ(c.counter("incr.replayed_tasks") + c.counter("incr.dirty_tasks"),
              static_cast<double>(placed));
    return Replay{c.counter("incr.replayed_tasks"),
                  c.counter("incr.full_rebuilds")};
  };

  IncrementalContext ctx;
  Allocation np(n, 1);
  Replay r = pass(ctx, np);  // nothing recorded yet
  EXPECT_EQ(r.replayed, 0.0);
  EXPECT_EQ(r.rebuilds, 1.0);
  r = pass(ctx, np);  // the same allocation replays every step
  EXPECT_EQ(r.replayed, static_cast<double>(n));
  EXPECT_EQ(r.rebuilds, 0.0);
  np[4] = 2;  // the last pick diverges on its processor count
  r = pass(ctx, np);
  EXPECT_EQ(r.replayed, static_cast<double>(n - 1));
  np[0] = 2;  // the first pick diverges on its processor count
  r = pass(ctx, np);
  EXPECT_EQ(r.replayed, 0.0);
  EXPECT_EQ(r.rebuilds, 1.0);
  r = pass(ctx, np);  // the record now holds the rebuilt pass
  EXPECT_EQ(r.replayed, static_cast<double>(n));

  // Around a frozen prefix the record holds only the tasks the pass
  // places: t0, placed first at time 0, stays where the last pass put it.
  const LocBSResult seed = locbs(g, np, comm);
  FixedPrefix fixed;
  fixed.frozen.assign(n, 0);
  fixed.frozen[0] = 1;
  fixed.placements = &seed.schedule;
  IncrementalContext fctx;
  r = pass(fctx, np, &fixed);
  EXPECT_EQ(r.replayed, 0.0);
  r = pass(fctx, np, &fixed);
  EXPECT_EQ(r.replayed, static_cast<double>(n - 1));
  np[4] = 3;
  r = pass(fctx, np, &fixed);
  EXPECT_EQ(r.replayed, static_cast<double>(n - 2));
}

}  // namespace
