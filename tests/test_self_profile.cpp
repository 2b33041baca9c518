/// Tests for the scheduler self-profiling subsystem (obs/profile.hpp,
/// obs/flame.hpp, obs/log.hpp): span nesting and aggregation, allocation
/// attribution, the collapsed-stack flamegraph golden format, the
/// Perfetto profile track, the report's profile panel, the bounded
/// EventBuffer, the leveled logger — and the headline determinism
/// property: repeated LoC-MPS profiles have bit-identical span trees
/// (names and counts) and allocation totals.

#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "faults/robustness.hpp"
#include "obs/events.hpp"
#include "obs/flame.hpp"
#include "obs/log.hpp"
#include "obs/report.hpp"
#include "schedule/trace_export.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

// ---------------------------------------------------------------------------
// Profiler core

TEST(Profiler, NestedSpansBuildTheCallTree) {
  obs::Profiler p;
  {
    auto outer = p.span("outer");
    { auto inner = p.span("inner"); }
    { auto inner = p.span("inner"); }
  }
  { auto outer = p.span("outer"); }
  const obs::ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.root.children.size(), 1u);
  const obs::ProfileNode* outer = snap.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);
  ASSERT_EQ(outer->children.size(), 1u);
  const obs::ProfileNode* inner = snap.find("outer;inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  // Totals are inclusive: the parent covers its children.
  EXPECT_GE(outer->wall_s, inner->wall_s);
  EXPECT_GE(outer->self_wall_s(), 0.0);
  // The two occurrences of "outer" land as two intervals + two of
  // "inner" (depth 1).
  EXPECT_EQ(snap.intervals.size(), 4u);
  EXPECT_EQ(snap.find("does.not.exist"), nullptr);
}

TEST(Profiler, NullSpanIsInert) {
  // The LOCMPS_SPAN macro expands to this when observability is off.
  obs::ProfileSpan span(nullptr, "ignored");
  span.stop();  // idempotent, no crash
  const obs::ObsContext* null_ctx = nullptr;
  EXPECT_EQ(obs::profiler_of(null_ctx), nullptr);
}

TEST(Profiler, SpanMacroRecordsThroughContext) {
  obs::Profiler p;
  obs::ObsContext ctx{nullptr, nullptr, &p};
  const obs::ObsContext* obs = &ctx;
  { LOCMPS_SPAN(obs, "macro.span"); }
  EXPECT_NE(p.snapshot().find("macro.span"), nullptr);
}

TEST(Profiler, ResetClearsEverything) {
  obs::Profiler p;
  { auto s = p.span("x"); }
  p.reset();
  EXPECT_TRUE(p.snapshot().empty());
  EXPECT_TRUE(p.snapshot().intervals.empty());
}

TEST(Profiler, IntervalLogIsBoundedAggregatesAreNot) {
  // The bound is per span node: the outer span, closing after its inner
  // span's log is full, still records its interval.
  obs::Profiler p;
  const std::size_t n = obs::Profiler::kMaxIntervals + 10;
  {
    auto outer = p.span("outer");
    for (std::size_t i = 0; i < n; ++i) {
      auto s = p.span("tick");
    }
  }
  const obs::ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.intervals.size(), obs::Profiler::kMaxIntervals + 1);
  EXPECT_EQ(snap.intervals_dropped, 10u);
  EXPECT_EQ(snap.intervals.back().name, "outer");
  EXPECT_EQ(snap.intervals.back().depth, 0);
  ASSERT_NE(snap.find("outer;tick"), nullptr);
  EXPECT_EQ(snap.find("outer;tick")->count, n);
  p.reset();
  EXPECT_EQ(p.snapshot().intervals_dropped, 0u);
}

TEST(Profiler, AllocationAttributionIsExactAndPausable) {
  if (!obs::alloc_counting_enabled())
    GTEST_SKIP() << "LOCMPS_PROFILE alloc hook not compiled in";
  obs::Profiler p;
  // Direct calls to ::operator new — a plain new-expression here could
  // be elided entirely by the optimizer (C++14 allocation elision).
  {
    auto s = p.span("alloc.heavy");
    ::operator delete(::operator new(std::size_t{1} << 20));
  }
  {
    auto s = p.span("alloc.none");
    obs::pause_alloc_counting();
    ::operator delete(::operator new(std::size_t{1} << 20));
    obs::resume_alloc_counting();
  }
  const obs::ProfileSnapshot snap = p.snapshot();
  EXPECT_GE(snap.find("alloc.heavy")->alloc_bytes, std::uint64_t{1} << 20);
  EXPECT_GE(snap.find("alloc.heavy")->allocs, 1u);
  EXPECT_EQ(snap.find("alloc.none")->alloc_bytes, 0u);
  EXPECT_EQ(snap.find("alloc.none")->allocs, 0u);
}

// ---------------------------------------------------------------------------
// Flamegraph / tree rendering

/// Hand-built two-level snapshot with exact weights (times chosen so
/// self = total - child is a round microsecond count).
obs::ProfileSnapshot golden_snapshot() {
  obs::ProfileSnapshot snap;
  obs::ProfileNode plan;
  plan.name = "harness.plan";
  plan.count = 1;
  plan.wall_s = 0.000500;  // 500 us total, 200 us self
  plan.cpu_s = 0.000400;
  plan.alloc_bytes = 3000;
  plan.allocs = 30;
  obs::ProfileNode run;
  run.name = "locmps.run";
  run.count = 2;
  run.wall_s = 0.000300;
  run.cpu_s = 0.000250;
  run.alloc_bytes = 1000;
  run.allocs = 10;
  plan.children.push_back(run);
  obs::ProfileNode analyze;
  analyze.name = "harness.analyze";
  analyze.count = 1;
  analyze.wall_s = 0.000100;
  analyze.cpu_s = 0.0;  // no CPU self-weight -> omitted from cpu flame
  analyze.alloc_bytes = 0;
  analyze.allocs = 0;
  snap.root.children.push_back(analyze);
  snap.root.children.push_back(plan);
  return snap;
}

TEST(Flame, CollapsedStacksGoldenWallFormat) {
  std::ostringstream os;
  obs::write_collapsed_stacks(os, golden_snapshot());
  EXPECT_EQ(os.str(),
            "harness.analyze 100\n"
            "harness.plan 200\n"
            "harness.plan;locmps.run 300\n");
}

TEST(Flame, CollapsedStacksAllocWeightSkipsZeroRows) {
  std::ostringstream os;
  obs::write_collapsed_stacks(os, golden_snapshot(),
                              obs::FlameWeight::kAllocBytes);
  EXPECT_EQ(os.str(),
            "harness.plan 2000\n"
            "harness.plan;locmps.run 1000\n");
}

TEST(Flame, CollapsedStacksCpuWeight) {
  std::ostringstream os;
  obs::write_collapsed_stacks(os, golden_snapshot(),
                              obs::FlameWeight::kCpuMicros);
  EXPECT_EQ(os.str(),
            "harness.plan 150\n"
            "harness.plan;locmps.run 250\n");
}

TEST(Flame, ProfileTreeListsEveryNodeWithHeader) {
  std::ostringstream os;
  obs::write_profile_tree(os, golden_snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("span"), std::string::npos);
  EXPECT_NE(out.find("harness.plan"), std::string::npos);
  EXPECT_NE(out.find("locmps.run"), std::string::npos);
  EXPECT_NE(out.find("harness.analyze"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Perfetto / report rendering

TEST(TraceExport, ProfileTrackEmitsNestedSlices) {
  const TaskGraph g = test::chain(2, 5.0, 2, 0.0);
  Schedule s(2, 2);
  s.place(0, 0.0, 0.0, 5.0, ProcessorSet::of(2, {0}));
  s.place(1, 5.0, 5.0, 10.0, ProcessorSet::of(2, {0}));

  obs::Profiler prof;
  {
    auto outer = prof.span("harness.plan");
    auto inner = prof.span("locmps.run");
  }
  obs::ProfileSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.intervals.size(), 2u);
  snap.intervals_dropped = 7;  // as a profiler past its bound reports

  std::ostringstream os;
  write_chrome_trace(os, g, s, nullptr, &snap);
  const test::Json doc = test::parse_json(os.str());
  const test::Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);

  bool named_thread = false;
  std::size_t slices = 0;
  for (const test::Json& e : events->items) {
    const test::Json* name = e.get("name");
    if (name == nullptr) continue;
    if (name->str == "thread_name" &&
        e.get("args")->str_or("name") == "profile.spans") {
      named_thread = true;
      EXPECT_EQ(e.get("args")->num_or("intervals_dropped", -1.0), 7.0);
    }
    if (name->str == "harness.plan" || name->str == "locmps.run") {
      ++slices;
      EXPECT_EQ(e.get("ph")->str, "X");
      EXPECT_GE(e.get("dur")->number, 0.0);
      ASSERT_NE(e.get("args"), nullptr);
      EXPECT_NE(e.get("args")->get("depth"), nullptr);
    }
  }
  EXPECT_TRUE(named_thread);
  EXPECT_EQ(slices, 2u);
}

TEST(Report, RendersProfilePanelAndDroppedEventsFooter) {
  TaskGraph g;
  const TaskId ta = g.add_task("a", test::serial(10.0, 4));
  const TaskId tb = g.add_task("b", test::serial(10.0, 4));
  g.add_edge(ta, tb, 5e6);
  Schedule s(2, 4);
  s.place(ta, 0.0, 0.0, 10.0, ProcessorSet::of(4, {0}));
  s.place(tb, 15.0, 15.0, 25.0, ProcessorSet::of(4, {1}));
  const Cluster cluster(4, 1e6);
  obs::ScheduleAnalysis a = obs::analyze_schedule(g, s, CommModel(cluster));
  a.trace_dropped = 7.0;

  const obs::ProfileSnapshot snap = golden_snapshot();
  obs::ReportOptions opt;
  opt.title = "profile panel fixture";
  opt.profile = &snap;
  const std::string html = obs::html_report(g, s, a, opt);
  const test::Xml root = test::parse_xhtml_report(html);
  EXPECT_NE(root.find_by_id("profile-table"), nullptr);
  EXPECT_NE(root.find_by_id("profile-total-wall"), nullptr);
  EXPECT_NE(root.find_by_id("profile-total-cpu"), nullptr);
  EXPECT_NE(root.find_by_id("profile-total-alloc"), nullptr);
  EXPECT_NE(html.find("Planner self-profile"), std::string::npos);
  EXPECT_NE(html.find("harness.plan"), std::string::npos);
  // Dropped decision events must be visible in both renderings.
  EXPECT_NE(html.find("dropped"), std::string::npos);
  EXPECT_NE(obs::text_report(a).find("dropped"), std::string::npos);

  // Without a profile (or with an empty one) the panel is absent.
  obs::ReportOptions bare;
  const std::string plain = obs::html_report(g, s, a, bare);
  EXPECT_EQ(test::parse_xhtml_report(plain).find_by_id("profile-table"),
            nullptr);
}

// ---------------------------------------------------------------------------
// EventBuffer overflow policy

TEST(EventBuffer, BoundsRetentionAndCountsDrops) {
  obs::EventBuffer buf;
  const std::size_t n = obs::EventBuffer::kMaxEvents + 5;
  for (std::size_t i = 0; i < n; ++i) buf.emit(obs::Event("tick"));
  EXPECT_EQ(buf.events().size(), obs::EventBuffer::kMaxEvents);
  EXPECT_EQ(buf.dropped(), 5u);
  buf.clear();
  EXPECT_TRUE(buf.events().empty());
  EXPECT_EQ(buf.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Leveled logger

TEST(Log, LevelFiltersAndPrefixesLines) {
  std::ostringstream sink;
  obs::set_log_stream(&sink);
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::log(obs::LogLevel::kInfo, "test") << "suppressed";
  obs::log(obs::LogLevel::kError, "test") << "kept " << 42;
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::set_log_stream(nullptr);

  const std::string out = sink.str();
  EXPECT_EQ(out.find("suppressed"), std::string::npos);
  EXPECT_NE(out.find("E test: kept 42"), std::string::npos);
}

TEST(Log, ParseLevelAcceptsNamesAndLetters) {
  obs::LogLevel l = obs::LogLevel::kInfo;
  EXPECT_TRUE(obs::parse_log_level("debug", l));
  EXPECT_EQ(l, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::parse_log_level("w", l));
  EXPECT_EQ(l, obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::parse_log_level("loud", l));
}

// ---------------------------------------------------------------------------
// Determinism of the span tree

/// Runs \p run under a fresh profiler (plus a registry and, when
/// \p with_sink, an event buffer) and returns the profile.
obs::ProfileSnapshot profile_of(
    const std::function<void(obs::ObsContext*)>& run, bool with_sink) {
  obs::MetricsRegistry reg;
  obs::EventBuffer buf;
  obs::Profiler prof;
  obs::ObsContext ctx{&reg, with_sink ? &buf : nullptr, &prof};
  run(&ctx);
  return prof.snapshot();
}

/// A LoC-MPS plan of \p g on \p cluster under the given context.
std::function<void(obs::ObsContext*)> locmps_plan(const TaskGraph& g,
                                                  const Cluster& cluster) {
  return [&g, &cluster](obs::ObsContext* ctx) {
    LocMPSScheduler sched;
    sched.attach_observability(ctx);
    sched.schedule(g, cluster);
  };
}

/// One instrumented LoC-MPS run with an attached profiler.
obs::ProfileSnapshot profile_locmps(const TaskGraph& g,
                                    const Cluster& cluster, bool with_sink) {
  return profile_of(locmps_plan(g, cluster), with_sink);
}

/// Recursively asserts identical structure and counts (names, child
/// sets, per-node counts) — the bit-identical part of the contract.
void expect_same_shape(const obs::ProfileNode& a, const obs::ProfileNode& b,
                       const std::string& label) {
  EXPECT_EQ(a.name, b.name) << label;
  EXPECT_EQ(a.count, b.count) << label << " @" << a.name;
  ASSERT_EQ(a.children.size(), b.children.size()) << label << " @" << a.name;
  for (std::size_t i = 0; i < a.children.size(); ++i)
    expect_same_shape(a.children[i], b.children[i], label);
}

/// Recursively asserts exact allocation equality (bytes and counts).
void expect_same_allocs(const obs::ProfileNode& a, const obs::ProfileNode& b,
                        const std::string& label) {
  EXPECT_EQ(a.alloc_bytes, b.alloc_bytes) << label << " @" << a.name;
  EXPECT_EQ(a.allocs, b.allocs) << label << " @" << a.name;
  ASSERT_EQ(a.children.size(), b.children.size()) << label << " @" << a.name;
  for (std::size_t i = 0; i < a.children.size(); ++i)
    expect_same_allocs(a.children[i], b.children[i], label);
}

TEST(SelfProfileDeterminism, SpanTreesAreCountIdenticalAcrossRuns) {
  SyntheticParams p;
  p.max_procs = 16;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(16);

  // A small graph on 8 processors for the fault and robustness layers:
  // permanent failures inside the first half of the plan force replans.
  SyntheticParams fp;
  fp.ccr = 0.4;
  fp.max_procs = 8;
  fp.min_tasks = 16;
  fp.max_tasks = 24;
  Rng frng(2);
  const TaskGraph fg = make_synthetic_dag(fp, frng);
  const Cluster fc(8);
  const SchedulerResult fplan = LocMPSScheduler().schedule(fg, fc);
  FaultPlanParams fprm;
  fprm.horizon_s = 0.5 * fplan.estimated_makespan;
  fprm.seed = 11;
  const FaultPlan faults = make_fault_plan(fc.processors, fprm);
  RecoveryOptions ropt;
  ropt.policy = RecoveryPolicy::kDegradedReplan;
  const std::size_t replans = run_with_faults(fg, fc, faults, ropt).replans;
  ASSERT_GE(replans, 1u);
  RobustnessOptions sopt;
  sopt.samples = 4;
  sopt.perturb.horizon_s = fplan.estimated_makespan;

  // Each case: a planner entry point and the span paths its profile must
  // hold, with their close counts (0: any count).
  struct Case {
    const char* label;
    std::function<void(obs::ObsContext*)> run;
    std::vector<std::pair<const char*, std::uint64_t>> spans;
  };
  const Case cases[] = {
      {"loc-mps",
       locmps_plan(g, cluster),
       {{"locmps.run", 1},
        {"locmps.run;locmps.critical_path", 0},
        {"locmps.run;locmps.walk;locbs.pass", 0}}},
      {"replan",
       [&](obs::ObsContext* ctx) {
         RecoveryOptions o = ropt;
         o.obs = ctx;
         run_with_faults(fg, fc, faults, o);
       },
       {{"recovery.run", 1}, {"recovery.run;locmps.run", 1 + replans}}},
      {"robustness",
       [&](obs::ObsContext* ctx) {
         RobustnessOptions o = sopt;
         o.obs = ctx;
         score_robustness(fg, fplan.schedule, CommModel(fc), o);
       },
       {{"robust.score", 1}}},
  };
  for (const Case& c : cases) {
    const obs::ProfileSnapshot ref = profile_of(c.run, true);
    for (const auto& [path, count] : c.spans) {
      const obs::ProfileNode* node = ref.find(path);
      ASSERT_NE(node, nullptr) << c.label << ": " << path;
      if (count > 0) EXPECT_EQ(node->count, count) << c.label << ": " << path;
    }
    expect_same_shape(ref.root, profile_of(c.run, true).root, c.label);
  }
}

TEST(SelfProfileDeterminism, AllocBytesReproducibleAtFixedThreadCount) {
  if (!obs::alloc_counting_enabled())
    GTEST_SKIP() << "LOCMPS_PROFILE alloc hook not compiled in";
  SyntheticParams p;
  p.max_procs = 16;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(16);

  // The planner's allocation sequence is deterministic, so two runs
  // agree byte-for-byte on every span.
  const obs::ProfileSnapshot a = profile_locmps(g, cluster, false);
  const obs::ProfileSnapshot b = profile_locmps(g, cluster, false);
  expect_same_allocs(a.root, b.root, "repeat");
}

TEST(SelfProfileDeterminism, WallAndCpuTimesAreSane) {
  SyntheticParams p;
  p.max_procs = 16;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(16);
  const obs::ProfileSnapshot snap = profile_locmps(g, cluster, false);
  const obs::ProfileNode* run = snap.find("locmps.run");
  ASSERT_NE(run, nullptr);
  EXPECT_GT(run->wall_s, 0.0);
  EXPECT_GE(run->cpu_s, 0.0);
  EXPECT_TRUE(std::isfinite(run->cpu_s));
}

// ---------------------------------------------------------------------------
// Harness integration: the reconcile guarantee

TEST(SelfProfileHarness, HarnessPlanReconcilesWithSchedulingSeconds) {
  SyntheticParams p;
  p.max_procs = 16;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(16, p.bandwidth_Bps);

  obs::Profiler prof;
  const SchemeRun run =
      evaluate_scheme("loc-mps", g, cluster, {}, nullptr, {}, &prof);
  const obs::ProfileSnapshot snap = prof.snapshot();
  const obs::ProfileNode* plan = snap.find("harness.plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->count, 1u);
  // The span brackets exactly the Stopwatch region behind
  // scheduling_seconds; allow 2% plus a tiny absolute slack for the
  // clock reads themselves.
  EXPECT_NEAR(plan->wall_s, run.scheduling_seconds,
              0.02 * run.scheduling_seconds + 1e-4);
  EXPECT_NE(snap.find("harness.simulate;sim.execute"), nullptr);
  EXPECT_NE(snap.find("harness.analyze"), nullptr);
  EXPECT_NE(snap.find("harness.plan;locmps.run"), nullptr);
}

}  // namespace
}  // namespace locmps
