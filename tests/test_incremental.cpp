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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "network/comm_model.hpp"
#include "obs/analysis.hpp"
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
  const Cluster cluster(16);
  for (const auto& [label, g] : sweep_workloads()) {
    const RunCapture off = run(g, cluster, /*incremental=*/false, false);
    const RunCapture on = run(g, cluster, /*incremental=*/true, false);
    DifferentialChecker(g).expect_identical(off, on, label);
  }
}

TEST(IncrementalOracle, TracedRunsAreBitIdentical) {
  // With an event sink the machinery stands down (the reference path runs
  // so traces keep their exact shape) — the differential contract must
  // hold all the same, including the full decision-event stream. Only the
  // workloads whose whole stream fits the EventBuffer are traced (4k-21k
  // events; the 38-48 task graphs emit 2.6e5-1.0e6). The larger graphs
  // stay covered untraced above, which is where replay actually runs.
  constexpr std::size_t kMaxTracedTasks = 24;
  const Cluster cluster(16);
  for (const auto& [label, g] : sweep_workloads()) {
    if (g.num_tasks() > kMaxTracedTasks) continue;
    const RunCapture off = run(g, cluster, false, /*with_sink=*/true);
    const RunCapture on = run(g, cluster, true, /*with_sink=*/true);
    DifferentialChecker(g).expect_identical(off, on, label + " traced");
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
  IncrementalContext ctx;
  auto mk = [](std::initializer_list<std::size_t> np) {
    ReplayRecord r;
    r.np = np;
    for (std::size_t i = 0; i < r.np.size(); ++i) {
      auto s = std::make_shared<ReplayStep>();
      s->task = static_cast<TaskId>(i);
      s->np = r.np[i];
      r.steps.push_back(std::move(s));
    }
    return r;
  };
  EXPECT_EQ(ctx.pick_record({1, 1, 1}), nullptr);
  ctx.remember(mk({1, 1, 1}));
  ctx.remember(mk({1, 2, 1}));
  // {1, 2, 2} shares a 2-allocation prefix with {1, 2, 1} but only 1 with
  // {1, 1, 1}; the longer match wins.
  const ReplayRecord* r = ctx.pick_record({1, 2, 2});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->np, (Allocation{1, 2, 1}));
  // Bounded history: remembering past the cap drops the oldest record.
  for (std::size_t w = 0; w < IncrementalContext::kMaxRecords; ++w)
    ctx.remember(mk({4 + w, 4 + w, 4 + w}));
  EXPECT_EQ(ctx.pick_record({1, 1, 1}), nullptr);
}

}  // namespace
