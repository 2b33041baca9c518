/// Tests for the schedule post-mortem analyzer (obs/analysis.hpp):
/// occupancy invariants, locality reconciliation against the comm model
/// and the PR-1 counters/trace, blame attribution on hand-checked
/// placements, critical-path telescoping, and decision-trace ingestion.

#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "network/block_cyclic.hpp"
#include "obs/events.hpp"
#include "obs/provenance.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using obs::BlameKind;
using obs::EdgeClass;

Cluster small_cluster(std::size_t P = 4) {
  return Cluster(P, 1e6);  // 1 MB/s: transfer seconds == volume in MB
}

/// a(10s) on p0 [0,10) -> b(10s) on p1, volume 5 MB => 5 s transfer.
struct ChainFixture {
  TaskGraph g;
  Schedule s;
  Cluster cluster = small_cluster();
  CommModel comm{cluster};

  ChainFixture() : g(test::chain(2, 10.0, 4, 5e6)), s(2, 4) {
    s.place(0, 0.0, 0.0, 10.0, ProcessorSet::of(4, {0}));
    s.place(1, 15.0, 15.0, 25.0, ProcessorSet::of(4, {1}));
  }
};

TEST(Analysis, ThrowsOnIncompleteSchedule) {
  const TaskGraph g = test::chain(2);
  Schedule s(2, 2);
  s.place(0, 0.0, 0.0, 10.0, ProcessorSet::of(2, {0}));
  const Cluster c = small_cluster(2);
  EXPECT_THROW(obs::analyze_schedule(g, s, CommModel(c)),
               std::invalid_argument);
}

TEST(Analysis, BusyPlusIdleEqualsHorizonPerProcessor) {
  const ChainFixture f;
  const auto a = obs::analyze_schedule(f.g, f.s, f.comm);
  EXPECT_DOUBLE_EQ(a.makespan, 25.0);
  ASSERT_EQ(a.procs.size(), 4u);
  for (const auto& u : a.procs) {
    EXPECT_NEAR(u.busy_s + u.idle_s, a.makespan, 1e-9)
        << "proc " << u.proc;
    EXPECT_GE(u.utilization, 0.0);
    EXPECT_LE(u.utilization, 1.0);
  }
  EXPECT_DOUBLE_EQ(a.procs[0].busy_s, 10.0);
  EXPECT_EQ(a.procs[0].tasks, 1u);
  EXPECT_EQ(a.procs[0].holes, 1u);   // [10, 25)
  EXPECT_EQ(a.procs[2].holes, 1u);   // fully idle: [0, 25)
  EXPECT_DOUBLE_EQ(a.procs[2].idle_s, 25.0);
}

TEST(Analysis, HoleHistogramAccountsEveryHole) {
  const ChainFixture f;
  const auto a = obs::analyze_schedule(f.g, f.s, f.comm);
  std::size_t total = 0;
  for (std::size_t c : a.holes.counts) total += c;
  EXPECT_EQ(total, a.holes.total_holes);
  double idle = 0.0;
  for (const auto& u : a.procs) idle += u.idle_s;
  EXPECT_NEAR(a.holes.total_idle_s, idle, 1e-9);
  EXPECT_DOUBLE_EQ(a.holes.longest_s, 25.0);
  EXPECT_EQ(a.holes.bin_edges.size(), a.holes.counts.size() + 1);
}

TEST(Analysis, EdgeLocalityMatchesBlockCyclicModel) {
  TaskGraph g;
  const TaskId a = g.add_task("a", test::serial(10.0, 4));
  const TaskId b = g.add_task("b", test::serial(10.0, 4));
  const TaskId c = g.add_task("c", test::serial(10.0, 4));
  const TaskId d = g.add_task("d", test::serial(10.0, 4));
  g.add_edge(a, b, 8e6);  // {0} -> {0}: fully local
  g.add_edge(a, c, 8e6);  // {0} -> {1}: fully remote
  g.add_edge(b, d, 8e6);  // {0} -> {0,1}: partial
  Schedule s(4, 4);
  s.place(a, 0.0, 0.0, 10.0, ProcessorSet::of(4, {0}));
  s.place(b, 10.0, 10.0, 20.0, ProcessorSet::of(4, {0}));
  s.place(c, 18.0, 18.0, 28.0, ProcessorSet::of(4, {1}));
  s.place(d, 28.0, 28.0, 38.0, ProcessorSet::of(4, {0, 1}));
  const Cluster cl = small_cluster();
  const auto an = obs::analyze_schedule(g, s, CommModel(cl));

  EXPECT_EQ(an.edges[0].cls, EdgeClass::Local);
  EXPECT_DOUBLE_EQ(an.edges[0].remote_bytes, 0.0);
  EXPECT_DOUBLE_EQ(an.edges[0].transfer_s, 0.0);

  EXPECT_EQ(an.edges[1].cls, EdgeClass::Remote);
  EXPECT_DOUBLE_EQ(an.edges[1].remote_bytes, 8e6);

  EXPECT_EQ(an.edges[2].cls, EdgeClass::Partial);
  EXPECT_DOUBLE_EQ(
      an.edges[2].remote_bytes,
      remote_volume(8e6, ProcessorSet::of(4, {0}), ProcessorSet::of(4, {0, 1})));
  EXPECT_GT(an.edges[2].remote_bytes, 0.0);
  EXPECT_LT(an.edges[2].remote_bytes, 8e6);

  // Aggregates reconcile with the per-edge comm-model values.
  const auto& lt = an.locality;
  EXPECT_NEAR(lt.total_bytes, 24e6, 1e-3);
  EXPECT_NEAR(lt.local_bytes + lt.remote_bytes, lt.total_bytes, 1e-3);
  EXPECT_EQ(lt.local_edges, 1u);
  EXPECT_EQ(lt.remote_edges, 1u);
  EXPECT_EQ(lt.partial_edges, 1u);
  double transfer = 0.0;
  for (const auto& el : an.edges) {
    transfer += el.transfer_s;
    EXPECT_NEAR(el.transfer_s,
                CommModel(cl).transfer_duration(el.remote_bytes,
                                                s.at(el.src).np(),
                                                s.at(el.dst).np()),
                1e-12);
  }
  EXPECT_NEAR(lt.transfer_seconds, transfer, 1e-12);
}

TEST(Analysis, FullVolumeModeChargesWholeEdgeBetweenDifferingSets) {
  const ChainFixture f;
  obs::AnalysisOptions opt;
  opt.locality_volumes = false;
  const auto a = obs::analyze_schedule(f.g, f.s, f.comm, opt);
  EXPECT_DOUBLE_EQ(a.edges[0].remote_bytes, 5e6);  // {0} != {1}: all of it
}

TEST(Analysis, BlameDataBoundTask) {
  const ChainFixture f;
  const auto a = obs::analyze_schedule(f.g, f.s, f.comm);
  EXPECT_EQ(a.blame[0].kind, BlameKind::Source);
  const auto& b = a.blame[1];
  EXPECT_EQ(b.kind, BlameKind::Data);
  EXPECT_EQ(b.culprit, TaskId{0});
  EXPECT_EQ(b.edge, EdgeId{0});
  EXPECT_DOUBLE_EQ(b.data_ready, 15.0);  // ft(a)=10 + 5 s transfer
  EXPECT_DOUBLE_EQ(b.proc_ready, 0.0);
  EXPECT_DOUBLE_EQ(b.delay_s, 15.0);
  EXPECT_DOUBLE_EQ(b.slack_s, 0.0);
}

TEST(Analysis, BlameProcessorBoundTask) {
  TaskGraph g;
  const TaskId u = g.add_task("u", test::serial(10.0, 2));
  const TaskId v = g.add_task("v", test::serial(8.0, 2));
  Schedule s(2, 2);
  s.place(u, 0.0, 0.0, 10.0, ProcessorSet::of(2, {0}));
  s.place(v, 10.0, 10.0, 18.0, ProcessorSet::of(2, {0}));
  const Cluster cl = small_cluster(2);
  const auto a = obs::analyze_schedule(g, s, CommModel(cl));
  const auto& b = a.blame[v];
  EXPECT_EQ(b.kind, BlameKind::Processor);
  EXPECT_EQ(b.culprit, u);
  EXPECT_DOUBLE_EQ(b.proc_ready, 10.0);
  EXPECT_DOUBLE_EQ(b.delay_s, 10.0);
}

TEST(Analysis, BlameReleaseAndTie) {
  TaskGraph g;
  const TaskId u = g.add_task("u", test::serial(10.0, 2));
  const TaskId w = g.add_task("w", test::serial(5.0, 2));
  const TaskId r = g.add_task("r", test::serial(5.0, 2));
  g.add_edge(u, w, 0.0);  // free dependency: data_ready == ft(u)
  Schedule s(3, 2);
  s.place(u, 0.0, 0.0, 10.0, ProcessorSet::of(2, {0}));
  s.place(w, 10.0, 10.0, 15.0, ProcessorSet::of(2, {0}));  // data == proc
  s.place(r, 5.0, 5.0, 10.0, ProcessorSet::of(2, {1}));    // no constraint
  const Cluster cl = small_cluster(2);
  const auto a = obs::analyze_schedule(g, s, CommModel(cl));
  EXPECT_EQ(a.blame[w].kind, BlameKind::Tie);
  EXPECT_EQ(a.blame[w].culprit, u);
  EXPECT_EQ(a.blame[r].kind, BlameKind::Release);
  EXPECT_DOUBLE_EQ(a.blame[r].slack_s, 5.0);
}

TEST(Analysis, TopBlameSortedAndBounded) {
  const ChainFixture f;
  const auto a = obs::analyze_schedule(f.g, f.s, f.comm);
  const auto top = a.top_blame(10);
  ASSERT_EQ(top.size(), 1u);  // only task b has positive delay
  EXPECT_EQ(top[0].task, TaskId{1});
  EXPECT_TRUE(a.top_blame(0).empty());
}

TEST(Analysis, CriticalPathTelescopesToMakespanOnChain) {
  const ChainFixture f;
  const auto a = obs::analyze_schedule(f.g, f.s, f.comm);
  const auto& cp = a.critical_path;
  ASSERT_EQ(cp.steps.size(), 2u);
  EXPECT_EQ(cp.steps[0].task, TaskId{0});  // source -> makespan task order
  EXPECT_EQ(cp.steps[1].task, TaskId{1});
  EXPECT_DOUBLE_EQ(cp.compute_s, 20.0);
  EXPECT_DOUBLE_EQ(cp.redist_s, 5.0);
  EXPECT_DOUBLE_EQ(cp.wait_s, 0.0);
  EXPECT_NEAR(cp.compute_s + cp.redist_s + cp.wait_s, cp.makespan, 1e-9);
}

TEST(Analysis, InvariantsHoldOnRealLocMPSRun) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 8;
  Rng rng(42);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(8, p.bandwidth_Bps);
  const SchemeRun run = evaluate_scheme("loc-mps", g, cluster);
  const auto& a = run.analysis;

  ASSERT_EQ(a.num_tasks, g.num_tasks());
  for (const auto& u : a.procs)
    EXPECT_NEAR(u.busy_s + u.idle_s, a.makespan, 1e-6 * a.makespan);
  // Locality aggregates reconcile with the simulator's counters.
  EXPECT_NEAR(a.locality.remote_bytes, run.counters.counter("sim.remote_bytes"),
              1e-9 * std::max(1.0, a.locality.remote_bytes));
  EXPECT_DOUBLE_EQ(static_cast<double>(a.locality.local_edges),
                   run.counters.counter("sim.local_edges"));
  EXPECT_DOUBLE_EQ(
      static_cast<double>(a.locality.partial_edges + a.locality.remote_edges),
      run.counters.counter("sim.transfers"));
  // Critical path telescopes.
  const auto& cp = a.critical_path;
  EXPECT_NEAR(cp.compute_s + cp.redist_s + cp.wait_s, cp.makespan,
              1e-6 * std::max(1.0, cp.makespan));
  // Backfill stats joined from the locbs.* counters.
  EXPECT_TRUE(a.backfill.present);
  EXPECT_GE(a.backfill.hit_rate, 0.0);
  EXPECT_LE(a.backfill.hit_rate, 1.0);
  // Every blame entry is self-consistent.
  for (const auto& b : a.blame) {
    EXPECT_GE(b.slack_s, 0.0);
    EXPECT_GE(b.start + 1e-9,
              std::max(b.data_ready, b.proc_ready) - 1e-6 * a.makespan);
    if (b.kind == BlameKind::Data) EXPECT_NE(b.edge, kNoEdge);
  }
}

// ---------------------------------------------------------------------------
// Decision-trace ingestion.

TEST(Trace, ParsesFlatRecordsAndAccessors) {
  std::istringstream in(
      "{\"ev\":\"locbs.decision\",\"t\":0.25,\"task\":3,\"np\":2,"
      "\"backfilled\":true,\"local_bytes\":10.5,\"remote_bytes\":2.5}\n"
      "\n"
      "{\"ev\":\"sim.transfer\",\"bytes\":100,\"edge\":\"e0\"}\n");
  const auto recs = obs::read_trace(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].ev, "locbs.decision");
  EXPECT_DOUBLE_EQ(recs[0].num("task"), 3.0);
  EXPECT_TRUE(recs[0].flag("backfilled"));
  EXPECT_DOUBLE_EQ(recs[0].num("missing", -1.0), -1.0);
  ASSERT_NE(recs[1].str("edge"), nullptr);
  EXPECT_EQ(*recs[1].str("edge"), "e0");
}

TEST(Trace, ThrowsOnMalformedLine) {
  std::istringstream in("{\"ev\":\"x\"\n");
  EXPECT_THROW(obs::read_trace(in), std::runtime_error);
  std::istringstream in2("not json\n");
  EXPECT_THROW(obs::read_trace(in2), std::runtime_error);
}

TEST(Trace, SummaryUsesLastPlacePerTask) {
  // Two decision records for task 0, as a fault run's replan writes them:
  // the later one describes the final placement.
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::PlacementDecision d;
  d.task = 0;
  d.np = 1;
  d.shortlist.resize(1);
  d.shortlist[0].procs = {0};
  d.backfilled = true;
  d.local_bytes = 1.0;
  d.remote_bytes = 9.0;
  sink.emit(obs::decision_event(d));
  d.backfilled = false;
  d.local_bytes = 7.0;
  d.remote_bytes = 3.0;
  sink.emit(obs::decision_event(d));
  sink.emit(obs::Event("sim.transfer").with("bytes", 3.0));
  std::istringstream in(out.str());
  const auto ts = obs::summarize_trace(obs::read_trace(in), 1);
  EXPECT_EQ(ts.decision_events, 2u);
  EXPECT_EQ(ts.transfer_events, 1u);
  EXPECT_DOUBLE_EQ(ts.transfer_bytes, 3.0);
  EXPECT_DOUBLE_EQ(ts.final_local_bytes, 7.0);   // last event wins
  EXPECT_DOUBLE_EQ(ts.final_remote_bytes, 3.0);
  EXPECT_EQ(ts.backfilled[0], 0);
}

TEST(Trace, JoinUpgradesProcessorBlameToBackfill) {
  TaskGraph g;
  const TaskId u = g.add_task("u", test::serial(10.0, 2));
  const TaskId v = g.add_task("v", test::serial(8.0, 2));
  Schedule s(2, 2);
  s.place(u, 0.0, 0.0, 10.0, ProcessorSet::of(2, {0}));
  s.place(v, 10.0, 10.0, 18.0, ProcessorSet::of(2, {0}));
  const Cluster cl = small_cluster(2);
  auto a = obs::analyze_schedule(g, s, CommModel(cl));
  ASSERT_EQ(a.blame[v].kind, BlameKind::Processor);

  obs::TraceSummary ts;
  ts.backfilled = {1, 0};  // the blocker u was backfilled
  obs::join_trace(a, ts);
  EXPECT_EQ(a.blame[v].kind, BlameKind::Backfill);
  EXPECT_EQ(a.blame[u].kind, BlameKind::Source);  // untouched
}

}  // namespace
}  // namespace locmps
