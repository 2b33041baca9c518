#include "schedule/trace_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "schedulers/task_parallel.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using test::Json;

/// Parses a chrome trace and returns its traceEvents array.
std::vector<Json> trace_events(const std::string& json) {
  Json doc = test::parse_json(json);
  const Json* events = doc.get("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events != nullptr && events->is(Json::Kind::Array));
  return events != nullptr ? events->items : std::vector<Json>{};
}

/// Every "ts"/"dur" field in \p events must be a non-negative number.
void expect_non_negative_times(const std::vector<Json>& events) {
  for (const Json& e : events) {
    if (e.has("ts")) EXPECT_GE(e.num_or("ts", -1.0), 0.0);
    if (e.has("dur")) EXPECT_GE(e.num_or("dur", -1.0), 0.0);
  }
}

/// A planner's telemetry: a profile of two spans (one nested) and a
/// registry with one sample series.
struct PlannerTelemetry {
  obs::MetricsSnapshot series;
  obs::ProfileSnapshot profile;
};

PlannerTelemetry sample_planner() {
  obs::MetricsRegistry m;
  obs::Profiler prof;
  {
    auto outer = prof.span("plan");
    auto inner = prof.span("plan.inner");
  }
  m.sample("makespan", 20.0);
  m.sample("makespan", 15.0);
  return {m.snapshot(), prof.snapshot()};
}

/// Chrome trace of \p s with the planner process drawn from \p t.
std::string planner_trace(const TaskGraph& g, const Schedule& s,
                          const PlannerTelemetry& t) {
  std::ostringstream os;
  write_chrome_trace(os, g, s, &t.series, &t.profile);
  return os.str();
}

/// Span closes recorded below \p node: of every span, or of the spans
/// named \p name when it is non-empty.
std::uint64_t closes(const obs::ProfileNode& node,
                     std::string_view name = {}) {
  std::uint64_t n = 0;
  for (const obs::ProfileNode& c : node.children)
    n += (name.empty() || c.name == name ? c.count : 0) + closes(c, name);
  return n;
}

TEST(TraceExport, EmitsSlicesForEveryProcessorOfATask) {
  const TaskGraph g = test::chain(1, 5.0, 2, 0.0);
  Schedule s(1, 2);
  s.place(0, 0, 0, 5, ProcessorSet::of(2, {0, 1}));
  const std::string json = test::chrome_trace(g, s);
  // One execution slice per processor.
  EXPECT_EQ(json.find("recv:"), std::string::npos);  // no busy prefix
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"name\":\"t0\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(json.find("\"dur\":5e+06"), std::string::npos);
}

TEST(TraceExport, EmitsReceiveWindowOnNoOverlapSchedules) {
  const TaskGraph g = test::chain(1, 5.0, 2, 0.0);
  Schedule s(1, 2);
  s.place(0, 2.0, 3.0, 8.0, ProcessorSet::of(2, {0}));  // busy_from < start
  const std::string json = test::chrome_trace(g, s);
  EXPECT_NE(json.find("recv:t0"), std::string::npos);
}

TEST(TraceExport, NamesProcessorRows) {
  const TaskGraph g = test::chain(1, 5.0, 2, 0.0);
  Schedule s(1, 3);
  s.place(0, 0, 0, 5, ProcessorSet::of(3, {1}));
  const std::string json = test::chrome_trace(g, s);
  EXPECT_NE(json.find("\"name\":\"P0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"P2\""), std::string::npos);
}

TEST(TraceExport, EscapesAwkwardTaskNames) {
  TaskGraph g;
  g.add_task("we\"ird\\name", test::serial(1.0, 1));
  Schedule s(1, 1);
  s.place(0, 0, 0, 1, ProcessorSet::of(1, {0}));
  const std::string json = test::chrome_trace(g, s);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceExport, RejectsIncompleteSchedule) {
  const TaskGraph g = test::chain(2);
  std::ostringstream os;
  EXPECT_THROW(write_chrome_trace(os, g, Schedule(2, 1)),
               std::invalid_argument);
}

TEST(TraceExport, PlannerTrackRendersTimersAndCounterSeries) {
  const TaskGraph g = test::chain(1, 5.0, 2, 0.0);
  Schedule s(1, 2);
  s.place(0, 0, 0, 5, ProcessorSet::of(2, {0, 1}));
  const auto events = trace_events(planner_trace(g, s, sample_planner()));

  bool planner_process = false, schedule_process = false;
  bool spans_thread = false, plan_slice = false, inner_slice = false;
  std::size_t counter_points = 0;
  for (const Json& e : events) {
    const std::string name = e.str_or("name");
    const std::string ph = e.str_or("ph");
    const double pid = e.num_or("pid", -1.0);
    const Json* args = e.get("args");
    if (ph == "M" && name == "process_name" && args != nullptr) {
      if (pid == 1.0 && args->str_or("name") == "planner")
        planner_process = true;
      if (pid == 0.0 && args->str_or("name") == "schedule")
        schedule_process = true;
    }
    if (ph == "M" && name == "thread_name" && pid == 1.0 &&
        args != nullptr && args->str_or("name") == "profile.spans")
      spans_thread = true;
    if (ph == "X" && pid == 1.0 && name == "plan") plan_slice = true;
    if (ph == "X" && pid == 1.0 && name == "plan.inner") inner_slice = true;
    if (ph == "C" && pid == 1.0 && name == "makespan") {
      ++counter_points;
      ASSERT_NE(args, nullptr);
      EXPECT_TRUE(args->has("value"));
    }
  }
  EXPECT_TRUE(planner_process);
  EXPECT_TRUE(schedule_process);
  EXPECT_TRUE(spans_thread);
  EXPECT_TRUE(plan_slice);
  EXPECT_TRUE(inner_slice);
  EXPECT_EQ(counter_points, 2u);
  expect_non_negative_times(events);
}

TEST(TraceExport, EmptySchedulePlannerTraceIsWellFormed) {
  const TaskGraph g;  // no tasks
  const Schedule s(0, 2);
  const auto events = trace_events(planner_trace(g, s, sample_planner()));
  // Only metadata, planner slices and counters — all with valid times.
  EXPECT_FALSE(events.empty());
  expect_non_negative_times(events);
  for (const Json& e : events)
    if (e.str_or("ph") == "X") EXPECT_EQ(e.num_or("pid", -1.0), 1.0);
}

TEST(TraceExport, NoOverlapModelTraceHasNonNegativeDurations) {
  // A no-overlap platform stretches receive windows (busy_from < start);
  // the exported trace must stay parsable with non-negative times, both
  // for the schedule slices and the planner track from the real run.
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 4;
  Rng rng(11);
  const TaskGraph g = make_synthetic_dag(p, rng);
  obs::Profiler prof;
  PlannerTelemetry t;
  const Cluster cluster(4, kFastEthernetBytesPerSec, false);
  const SchemeRun run =
      evaluate_scheme("loc-mps", g, cluster, {}, nullptr, {}, &prof);
  t.series = run.counters;
  t.profile = prof.snapshot();
  const auto events = trace_events(planner_trace(g, run.schedule, t));
  expect_non_negative_times(events);
  bool has_schedule_slice = false, has_planner_slice = false;
  for (const Json& e : events) {
    if (e.str_or("ph") != "X") continue;
    if (e.num_or("pid", -1.0) == 0.0) has_schedule_slice = true;
    if (e.num_or("pid", -1.0) == 1.0) has_planner_slice = true;
  }
  EXPECT_TRUE(has_schedule_slice);
  EXPECT_TRUE(has_planner_slice);
}

TEST(TraceExport, PlannerTrackShowsEveryOuterSpanOfAProfiledRun) {
  // A profiled LoC-MPS run closes far more spans than one node's
  // interval bound; the bound is per span node, so every harness, run,
  // pass and execution span still reaches the planner track (a bound
  // per run would lose the outer spans, which close last).
  SyntheticParams p;
  p.max_procs = 16;
  Rng rng(20060901);
  const TaskGraph g = make_synthetic_dag(p, rng);
  obs::Profiler prof;
  PlannerTelemetry t;
  const SchemeRun run = evaluate_scheme(
      "loc-mps", g, Cluster(16, p.bandwidth_Bps), {}, nullptr, {}, &prof);
  t.series = run.counters;
  t.profile = prof.snapshot();
  ASSERT_GT(closes(t.profile.root), obs::Profiler::kMaxIntervals);

  std::map<std::string, std::uint64_t> slices;
  std::vector<std::pair<double, double>> spans;  // (ts, ts + dur)
  for (const Json& e : trace_events(planner_trace(g, run.schedule, t))) {
    if (e.str_or("ph") != "X" || e.num_or("pid", -1.0) != 1.0) continue;
    ++slices[e.str_or("name")];
    const double ts = e.num_or("ts", -1.0);
    spans.emplace_back(ts, ts + e.num_or("dur", -1.0));
  }
  EXPECT_EQ(slices["harness.plan"], 1u);
  EXPECT_EQ(slices["locmps.run"], 1u);
  EXPECT_EQ(slices["sim.execute"], 1u);
  // One pass per LoCBS call, except the call each completed round charges
  // for keeping the incumbent's realization.
  const std::uint64_t passes = closes(t.profile.root, "locbs.pass");
  EXPECT_EQ(static_cast<double>(passes),
            static_cast<double>(run.iterations) -
                run.counters.counter("locmps.rounds"));
  EXPECT_EQ(slices["locbs.pass"], passes);

  // The slices nest as the spans did: taken by start (longest first),
  // each ends inside the innermost slice still open when it starts.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  });
  std::vector<double> open_ends;
  std::size_t misnested = 0;
  for (const auto& [begin, end] : spans) {
    while (!open_ends.empty() && open_ends.back() <= begin)
      open_ends.pop_back();
    if (!open_ends.empty() && end > open_ends.back()) ++misnested;
    open_ends.push_back(end);
  }
  EXPECT_EQ(misnested, 0u);
}

TEST(TraceExport, RealScheduleProducesParsableShape) {
  SyntheticParams p;
  p.ccr = 0.3;
  p.max_procs = 4;
  Rng rng(93);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const SchedulerResult r = TaskParallelScheduler().schedule(g, Cluster(4));
  const std::string json = test::chrome_trace(g, r.schedule);
  // Crude structural checks: balanced braces/brackets, proper envelope.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace locmps
