#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "network/comm_model.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using test::Json;
using test::parse_json;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

/// Evaluates \p scheme with a JSONL sink attached and parses every line.
struct TracedRun {
  SchemeRun run;
  std::vector<Json> events;
};

TracedRun run_traced(const std::string& scheme, const TaskGraph& g,
                     const Cluster& cluster) {
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  TracedRun out;
  out.run = evaluate_scheme(scheme, g, cluster, {}, &sink);
  for (const std::string& line : lines_of(buf.str()))
    out.events.push_back(parse_json(line));
  return out;
}

TaskGraph small_graph(std::size_t tasks = 12, double ccr = 0.5,
                      std::size_t max_procs = 4, unsigned seed = 42) {
  SyntheticParams p;
  p.ccr = ccr;
  p.min_tasks = tasks;
  p.max_tasks = tasks;
  p.max_procs = max_procs;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

TEST(ObsEvents, JsonlSinkWritesOneParsableObjectPerLine) {
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  sink.emit(obs::Event("alpha").with("flag", true).with("n", 42));
  sink.emit(obs::Event("beta").with("x", 1.5).with("s", "hi"));
  const auto lines = lines_of(buf.str());
  ASSERT_EQ(lines.size(), 2u);

  const Json a = parse_json(lines[0]);
  EXPECT_EQ(a.str_or("ev"), "alpha");
  ASSERT_TRUE(a.has("t"));
  EXPECT_TRUE(a.get("t")->is(Json::Kind::Number));
  EXPECT_GE(a.num_or("t", -1.0), 0.0);
  ASSERT_TRUE(a.has("flag"));
  EXPECT_TRUE(a.get("flag")->is(Json::Kind::Bool));
  EXPECT_TRUE(a.get("flag")->boolean);
  EXPECT_DOUBLE_EQ(a.num_or("n", 0.0), 42.0);

  const Json b = parse_json(lines[1]);
  EXPECT_DOUBLE_EQ(b.num_or("x", 0.0), 1.5);
  EXPECT_EQ(b.str_or("s"), "hi");
  // "t" is monotonic across emits on the same sink.
  EXPECT_GE(b.num_or("t", -1.0), a.num_or("t", 0.0));
}

TEST(ObsEvents, JsonlSinkEscapesAwkwardStrings) {
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  sink.emit(obs::Event("esc").with("s", nasty));
  const auto lines = lines_of(buf.str());
  ASSERT_EQ(lines.size(), 1u);
  const Json e = parse_json(lines[0]);  // throws if escaping is broken
  EXPECT_EQ(e.str_or("s"), nasty);      // and must round-trip exactly
}

TEST(ObsEvents, JsonlSinkWritesNullForNonFiniteNumbers) {
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  sink.emit(obs::Event("nf")
                .with("nan", std::numeric_limits<double>::quiet_NaN())
                .with("inf", std::numeric_limits<double>::infinity())
                .with("ok", 2.0));
  const Json e = parse_json(lines_of(buf.str()).at(0));
  ASSERT_TRUE(e.has("nan"));
  EXPECT_TRUE(e.get("nan")->is(Json::Kind::Null));
  ASSERT_TRUE(e.has("inf"));
  EXPECT_TRUE(e.get("inf")->is(Json::Kind::Null));
  EXPECT_DOUBLE_EQ(e.num_or("ok", 0.0), 2.0);
}

TEST(ObsEvents, LocMpsRunEmitsOnlyDocumentedEventsWithValidEnvelope) {
  const TaskGraph g = small_graph();
  const TracedRun tr = run_traced("loc-mps", g, Cluster(4));
  ASSERT_FALSE(tr.events.empty());

  const std::vector<std::string> taxonomy{
      "locmps.begin",  "locmps.lookahead_begin", "locmps.refine",
      "locmps.lookahead", "locmps.done",         "locbs.place",
      "locbs.decision", "sim.transfer"};
  std::size_t begins = 0, dones = 0;
  double prev_t = 0.0;
  for (const Json& e : tr.events) {
    ASSERT_TRUE(e.is(Json::Kind::Object));
    // Envelope: "ev" is a string from the documented taxonomy, "t" is a
    // non-negative, non-decreasing number.
    ASSERT_TRUE(e.has("ev"));
    ASSERT_TRUE(e.get("ev")->is(Json::Kind::String));
    const std::string ev = e.str_or("ev");
    EXPECT_NE(std::find(taxonomy.begin(), taxonomy.end(), ev),
              taxonomy.end())
        << "undocumented event " << ev;
    ASSERT_TRUE(e.has("t"));
    ASSERT_TRUE(e.get("t")->is(Json::Kind::Number));
    const double t = e.num_or("t", -1.0);
    EXPECT_GE(t, prev_t);
    prev_t = t;
    if (ev == "locmps.begin") ++begins;
    if (ev == "locmps.done") ++dones;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(dones, 1u);
}

TEST(ObsEvents, PlacementEventsCarryConsistentFields) {
  // Planned through LoC-MPS itself, so the records can be checked against
  // the returned schedule rather than a simulated one.
  const TaskGraph g = small_graph();
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx{&reg, &sink, nullptr};
  LocMPSScheduler sched;
  sched.attach_observability(&ctx);
  const SchedulerResult res = sched.schedule(g, Cluster(4));
  const std::size_t n = g.num_tasks();
  // Only the final realization is traced: one place and one decision
  // record per task, and each place record is the returned placement.
  std::vector<std::size_t> places(n, 0), decisions(n, 0);
  for (const std::string& line : lines_of(buf.str())) {
    const Json e = parse_json(line);
    const std::string ev = e.str_or("ev");
    if (ev != "locbs.place" && ev != "locbs.decision") continue;
    const double task = e.num_or("task", -1.0);
    ASSERT_GE(task, 0.0);
    ASSERT_LT(task, static_cast<double>(n));
    const auto t = static_cast<TaskId>(task);
    if (ev == "locbs.decision") {
      ++decisions[t];
      continue;
    }
    ++places[t];
    const Placement& pl = res.schedule.at(t);
    EXPECT_EQ(e.num_or("np", 0.0), static_cast<double>(pl.np()));
    EXPECT_LE(e.num_or("busy_from", 0.0), e.num_or("start", -1.0));
    // The JSONL sink prints 12 significant digits.
    EXPECT_NEAR(e.num_or("start", -1.0), pl.start,
                1e-11 * std::max(1.0, pl.start));
    EXPECT_NEAR(e.num_or("finish", -1.0), pl.finish,
                1e-11 * std::max(1.0, pl.finish));
    std::string procs;
    for (ProcId q : pl.procs.to_vector())
      procs += (procs.empty() ? "" : ",") + std::to_string(q);
    EXPECT_EQ(e.str_or("procs"), procs) << "task " << t;
    EXPECT_GE(e.num_or("holes_scanned", -1.0), 0.0);
    EXPECT_GE(e.num_or("local_bytes", -1.0), 0.0);
    EXPECT_GE(e.num_or("remote_bytes", -1.0), 0.0);
    ASSERT_TRUE(e.has("backfill"));
    EXPECT_TRUE(e.get("backfill")->is(Json::Kind::Bool));
  }
  for (TaskId t = 0; t < n; ++t) {
    EXPECT_EQ(places[t], 1u) << "task " << t;
    EXPECT_EQ(decisions[t], 1u) << "task " << t;
  }
  // Every LoCBS call, traced or not, places every task.
  const obs::MetricsSnapshot counters = reg.snapshot();
  const double calls = counters.counter("locmps.locbs_calls");
  EXPECT_GT(calls, 1.0);
  EXPECT_DOUBLE_EQ(counters.counter("locbs.tasks_placed"),
                   calls * static_cast<double>(n));
}

// A sink must not change the search: the traced plan does the untraced
// plan's work plus exactly one from-scratch LoCBS pass over the committed
// allocation, the one that emits the decision records.
TEST(ObsEvents, SinkAddsOnlyTheFinalRealization) {
  struct Case {
    std::size_t tasks, procs;
  };
  for (const Case c : {Case{12, 4}, Case{40, 16}}) {
    const TaskGraph g = small_graph(c.tasks, 0.5, c.procs);
    const Cluster cluster(c.procs);
    const std::string label = std::to_string(c.tasks) + " tasks";
    const test::RunCapture untraced =
        test::run_locmps_capture(g, cluster, {}, /*with_sink=*/false);
    const test::RunCapture traced =
        test::run_locmps_capture(g, cluster, {}, /*with_sink=*/true);
    EXPECT_EQ(traced.dropped, 0u) << label;
    EXPECT_GT(traced.metrics.counter("incr.replayed_tasks"), 0.0) << label;

    obs::MetricsRegistry reg;
    obs::EventBuffer buf;
    obs::ObsContext ctx{&reg, &buf, nullptr};
    CommModel comm(cluster);
    comm.count_evals_into(reg.cell_ptr("comm.cost_evals"));
    (void)locbs(g, traced.result.allocation, comm, {}, nullptr, &ctx);
    const obs::MetricsSnapshot pass = reg.snapshot();

    std::set<std::string> names;
    for (const auto* s : {&untraced.metrics, &traced.metrics, &pass})
      for (const auto& kv : s->counters) names.insert(kv.first);
    for (const std::string& name : names) {
      const double want = name == "locmps.locbs_calls"
                              ? untraced.metrics.counter(name) + 1.0
                              : untraced.metrics.counter(name) +
                                    pass.counter(name);
      const double got = traced.metrics.counter(name);
      if (name == "locbs.local_bytes" || name == "locbs.remote_bytes")
        EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, want))
            << label << ": " << name;  // summation order differs
      else
        EXPECT_EQ(got, want) << label << ": " << name;
    }
  }
}

// The acceptance test of the decision trace: replaying the per-iteration
// refinement events must reconstruct the exact final allocation the
// scheduler returned. Replay rules (docs/observability.md):
//  * locmps.begin          -> best = [1,1,...,1] (one slot per task)
//  * locmps.lookahead_begin -> np = best (look-ahead works on a copy)
//  * locmps.refine          -> apply the widening to np (absolute values:
//    np_new or src_np_new/dst_np_new); "adopted":true -> best = np
TEST(ObsEvents, DecisionTraceReconstructsFinalAllocation) {
  const TaskGraph g = small_graph(16, 0.5, 8, 7);
  const TracedRun tr = run_traced("loc-mps", g, Cluster(8));

  std::vector<std::size_t> best, np;
  std::size_t refines = 0, adoptions = 0;
  double traced_final = -1.0;
  for (const Json& e : tr.events) {
    const std::string ev = e.str_or("ev");
    if (ev == "locmps.begin") {
      best.assign(static_cast<std::size_t>(e.num_or("tasks", 0.0)), 1);
      np = best;
    } else if (ev == "locmps.lookahead_begin") {
      np = best;
    } else if (ev == "locmps.refine") {
      ++refines;
      ASSERT_FALSE(np.empty());
      if (e.str_or("kind") == "task") {
        const auto t = static_cast<std::size_t>(e.num_or("task", -1.0));
        ASSERT_LT(t, np.size());
        np[t] = static_cast<std::size_t>(e.num_or("np_new", 0.0));
      } else {
        const auto src = static_cast<std::size_t>(e.num_or("src", -1.0));
        const auto dst = static_cast<std::size_t>(e.num_or("dst", -1.0));
        ASSERT_LT(src, np.size());
        ASSERT_LT(dst, np.size());
        np[src] = static_cast<std::size_t>(e.num_or("src_np_new", 0.0));
        np[dst] = static_cast<std::size_t>(e.num_or("dst_np_new", 0.0));
      }
      const Json* adopted = e.get("adopted");
      ASSERT_NE(adopted, nullptr);
      if (adopted->boolean) {
        best = np;
        ++adoptions;
      }
    } else if (ev == "locmps.done") {
      traced_final = e.num_or("makespan", -1.0);
    }
  }

  // The run must be non-trivial for this test to mean anything.
  ASSERT_GT(refines, 0u);
  ASSERT_GT(adoptions, 0u);
  ASSERT_EQ(best.size(), tr.run.allocation.size());
  for (std::size_t t = 0; t < best.size(); ++t)
    EXPECT_EQ(best[t], tr.run.allocation[t]) << "task " << t;
  EXPECT_NEAR(traced_final, tr.run.estimated, 1e-9 * tr.run.estimated);
}

TEST(ObsEvents, CountersAgreeWithTheTrace) {
  const TaskGraph g = small_graph();
  const TracedRun tr = run_traced("loc-mps", g, Cluster(4));
  std::size_t refines = 0, lookaheads = 0, transfers = 0;
  double done_calls = -1.0;
  for (const Json& e : tr.events) {
    const std::string ev = e.str_or("ev");
    if (ev == "locmps.refine") ++refines;
    if (ev == "locmps.lookahead") ++lookaheads;
    if (ev == "sim.transfer") ++transfers;
    if (ev == "locmps.done") done_calls = e.num_or("locbs_calls", -1.0);
  }
  const obs::MetricsSnapshot& c = tr.run.counters;
  EXPECT_DOUBLE_EQ(c.counter("locmps.locbs_calls"), done_calls);
  EXPECT_DOUBLE_EQ(c.counter("locmps.widened_tasks") +
                       c.counter("locmps.widened_edges"),
                   static_cast<double>(refines));
  EXPECT_DOUBLE_EQ(c.counter("locmps.rounds"),
                   static_cast<double>(lookaheads));
  EXPECT_DOUBLE_EQ(c.counter("locmps.commits") + c.counter("locmps.reverts"),
                   static_cast<double>(lookaheads));
  EXPECT_DOUBLE_EQ(c.counter("sim.transfers"),
                   static_cast<double>(transfers));
  EXPECT_EQ(tr.run.iterations,
            static_cast<std::size_t>(c.counter("scheduler.iterations")));
}

TEST(ObsEvents, SchemesWithoutInstrumentationStillProduceCounters) {
  const TaskGraph g = small_graph();
  const TracedRun tr = run_traced("data", g, Cluster(4));
  // DATA never calls LoCBS, so the trace only has executor events; the
  // per-run registry still carries the harness-level counters.
  EXPECT_GT(tr.run.counters.counter("scheduler.iterations"), 0.0);
  EXPECT_GE(tr.run.counters.counter("scheduler.plan_seconds"), 0.0);
  EXPECT_GT(tr.run.counters.counter("sim.makespan"), 0.0);
  for (const Json& e : tr.events)
    EXPECT_EQ(e.str_or("ev").rfind("sim.", 0), 0u);
}

}  // namespace
}  // namespace locmps
