/// Decision provenance (obs/provenance.hpp): the "locbs.decision" record
/// each committed placement emits — encoding round trips, one decision per
/// placement consistent with the returned schedule, the seeded
/// perturbation hook, and the bounded JSONL sink that carries the records
/// to disk.

#include "obs/provenance.hpp"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/rundiff.hpp"
#include "schedulers/loc_mps.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

std::vector<obs::ProvCandidate> sample_candidates() {
  obs::ProvCandidate a;
  a.tau = 0.0;
  a.subset = 0;
  a.start = 1.25;
  a.finish = 7.5;
  a.busy_from = 1.0;
  a.remote_bytes = 1048576.0;
  a.locality_score = 2097152.0;
  a.procs = {0, 3, 7};
  obs::ProvCandidate b;
  b.tau = 3.0 + 1e-13;  // exercise the %.17g exact round trip
  b.subset = 1;
  b.start = 3.0 + 1e-13;
  b.finish = 9.875;
  b.busy_from = 3.0;
  b.remote_bytes = 0.0;
  b.locality_score = 0.125;
  b.procs = {12};
  return {a, b};
}

TEST(Provenance, CandidateEncodingRoundTripsExactly) {
  const auto cands = sample_candidates();
  const auto back = obs::decode_candidates(obs::encode_candidates(cands));
  ASSERT_EQ(back.size(), cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(back[i].tau, cands[i].tau) << i;
    EXPECT_EQ(back[i].subset, cands[i].subset) << i;
    EXPECT_EQ(back[i].start, cands[i].start) << i;
    EXPECT_EQ(back[i].finish, cands[i].finish) << i;
    EXPECT_EQ(back[i].busy_from, cands[i].busy_from) << i;
    EXPECT_EQ(back[i].remote_bytes, cands[i].remote_bytes) << i;
    EXPECT_EQ(back[i].locality_score, cands[i].locality_score) << i;
    EXPECT_EQ(back[i].procs, cands[i].procs) << i;
  }
  EXPECT_TRUE(obs::decode_candidates("").empty());
  EXPECT_THROW(obs::decode_candidates("not;a;candidate"),
               std::runtime_error);
}

TEST(Provenance, DecisionSurvivesJsonlRoundTrip) {
  obs::PlacementDecision d;
  d.task = 5;
  d.np = 3;
  d.prio = 41.5;
  d.est = 2.0;
  d.start = 2.5;
  d.finish = 10.0;
  d.busy_from = 2.25;
  d.backfill_branch = true;
  d.locality_branch = false;
  d.comm_blind = false;
  d.backfilled = true;
  d.pruned = true;
  d.perturbed = true;
  d.holes_probed = 7;
  d.candidates_scored = 11;
  d.winner = 1;
  d.margin = 0.625;
  d.local_bytes = 4096.0;
  d.remote_bytes = 512.0;
  d.shortlist = sample_candidates();

  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  sink.emit(obs::decision_event(d));
  std::istringstream in(buf.str());
  const auto records = obs::read_trace(in);
  ASSERT_EQ(records.size(), 1u);

  obs::PlacementDecision back;
  ASSERT_TRUE(obs::decision_from_record(records[0], back));
  EXPECT_EQ(back.task, d.task);
  EXPECT_EQ(back.np, d.np);
  EXPECT_EQ(back.prio, d.prio);
  EXPECT_EQ(back.est, d.est);
  EXPECT_EQ(back.start, d.start);
  EXPECT_EQ(back.finish, d.finish);
  EXPECT_EQ(back.busy_from, d.busy_from);
  EXPECT_EQ(back.backfill_branch, d.backfill_branch);
  EXPECT_EQ(back.locality_branch, d.locality_branch);
  EXPECT_EQ(back.comm_blind, d.comm_blind);
  EXPECT_EQ(back.backfilled, d.backfilled);
  EXPECT_EQ(back.pruned, d.pruned);
  EXPECT_EQ(back.perturbed, d.perturbed);
  EXPECT_EQ(back.holes_probed, d.holes_probed);
  EXPECT_EQ(back.candidates_scored, d.candidates_scored);
  EXPECT_EQ(back.winner, d.winner);
  EXPECT_EQ(back.margin, d.margin);
  EXPECT_EQ(back.local_bytes, d.local_bytes);
  EXPECT_EQ(back.remote_bytes, d.remote_bytes);
  ASSERT_EQ(back.shortlist.size(), d.shortlist.size());
  EXPECT_EQ(back.shortlist[1].procs, d.shortlist[1].procs);

  // A non-decision record is declined, not mis-parsed.
  obs::PlacementDecision none;
  std::istringstream other("{\"ev\":\"sim.transfer\",\"task\":0}\n");
  const auto rec2 = obs::read_trace(other);
  ASSERT_EQ(rec2.size(), 1u);
  EXPECT_FALSE(obs::decision_from_record(rec2[0], none));
}

TEST(Provenance, ShortlistRecorderKeepsBestAndEnsuresWinner) {
  obs::ShortlistRecorder rec;
  for (std::size_t i = 0; i < obs::ShortlistRecorder::kMaxCandidates + 3;
       ++i) {
    obs::ProvCandidate c;
    c.finish = 100.0 - static_cast<double>(i);  // improving finishes
    c.start = c.finish - 1.0;
    c.procs = {static_cast<ProcId>(i)};
    rec.offer(c);
  }
  ASSERT_EQ(rec.entries().size(), obs::ShortlistRecorder::kMaxCandidates);
  for (std::size_t i = 1; i < rec.entries().size(); ++i)
    EXPECT_LE(rec.entries()[i - 1].finish, rec.entries()[i].finish);

  // The committed winner is inserted when the scan crowded it out.
  obs::ProvCandidate win;
  win.finish = 1000.0;
  win.start = 999.0;
  win.procs = {42};
  const std::size_t at = rec.ensure(win);
  ASSERT_LT(at, rec.entries().size());
  EXPECT_EQ(rec.entries()[at].procs, win.procs);
}

/// Runs LoC-MPS with a JSONL sink attached and parses the trace; the plan
/// goes to \p result when given.
std::vector<obs::TraceRecord> traced_run(const TaskGraph& g,
                                         const Cluster& cluster,
                                         TaskId perturb = kNoTask,
                                         SchedulerResult* result = nullptr) {
  LocMPSOptions opt;
  opt.locbs.perturb_task = perturb;
  LocMPSScheduler sched(opt);
  std::ostringstream buf;
  obs::JsonlSink sink(buf);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx{&reg, &sink};
  sched.attach_observability(&ctx);
  SchedulerResult res = sched.schedule(g, cluster);
  if (result != nullptr) *result = std::move(res);
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

TEST(Provenance, EveryPlacementCarriesAConsistentDecision) {
  const TaskGraph g = small_graph();
  const Cluster cluster(8);
  SchedulerResult res;
  const auto records = traced_run(g, cluster, kNoTask, &res);

  // One decision per task, and its winner is the committed placement.
  std::vector<std::size_t> decisions(g.num_tasks(), 0);
  for (const auto& rec : records) {
    obs::PlacementDecision d;
    if (!obs::decision_from_record(rec, d)) continue;
    ASSERT_LT(d.task, g.num_tasks());
    ++decisions[d.task];
    const Placement& pl = res.schedule.at(d.task);
    EXPECT_EQ(d.np, pl.np());
    // The winner indexes the shortlist and reproduces the committed
    // slot. Top-level fields travel at %.12g, the shortlist at %.17g,
    // so compare at the trace's relative precision.
    ASSERT_LT(d.winner, d.shortlist.size());
    const auto& win = d.shortlist[d.winner];
    EXPECT_EQ(win.procs, pl.procs.to_vector());
    EXPECT_NEAR(win.start, d.start, 1e-9 * std::max(1.0, d.start));
    EXPECT_NEAR(win.finish, d.finish, 1e-9 * std::max(1.0, d.finish));
    EXPECT_NEAR(d.start, pl.start, 1e-9 * std::max(1.0, pl.start));
    EXPECT_NEAR(d.finish, pl.finish, 1e-9 * std::max(1.0, pl.finish));
    EXPECT_GE(d.candidates_scored, d.shortlist.size());
    for (std::size_t i = 1; i < d.shortlist.size(); ++i)
      EXPECT_LE(d.shortlist[i - 1].finish, d.shortlist[i].finish);
    if (d.margin >= 0.0) EXPECT_GE(d.candidates_scored, 2u);
  }
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    EXPECT_EQ(decisions[t], 1u) << "task " << t;
}

TEST(Provenance, PerturbHookAdoptsTheRunnerUp) {
  // A 16-processor cluster gives LoC-MPS varied allocation widths, so
  // placements have genuinely different processor subsets to choose from.
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 16;
  Rng rng(42);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(16);
  SchedulerResult base_plan;
  const auto base_records = traced_run(g, cluster, kNoTask, &base_plan);
  const auto base =
      obs::final_decisions(base_records, g.num_tasks());

  // Perturb the first task whose final decision has a distinct runner-up;
  // its committed placement must change and the record must say so.
  TaskId victim = kNoTask;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (base[t].valid() && base[t].margin >= 0.0) {
      victim = t;
      break;
    }
  ASSERT_NE(victim, kNoTask)
      << "workload produced no decision with a distinct runner-up";

  SchedulerResult pert_plan;
  const auto pert_records = traced_run(g, cluster, victim, &pert_plan);
  const auto pert = obs::final_decisions(pert_records, g.num_tasks());
  ASSERT_TRUE(pert[victim].valid());
  EXPECT_TRUE(pert[victim].perturbed);
  const auto& a = base[victim].shortlist[base[victim].winner];
  const auto& b = pert[victim].shortlist[pert[victim].winner];
  EXPECT_TRUE(a.procs != b.procs || a.start != b.start)
      << "perturbation did not move task " << victim;
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    if (pert[t].valid() && t != victim) EXPECT_FALSE(pert[t].perturbed);

  // rundiff places every task on its committed processors, the winner's
  // and not the best-finishing entry's: its diff of the two runs calls a
  // task of unchanged width a placement divergence exactly when the two
  // plans put it on different processors. The victim's runner-up moves it.
  EXPECT_FALSE(base_plan.schedule.at(victim).procs ==
               pert_plan.schedule.at(victim).procs);
  const std::size_t n = g.num_tasks();
  const obs::RunDiff diff = obs::diff_runs(
      g, obs::run_view(base_records, n), obs::run_view(pert_records, n));
  std::vector<obs::DivergenceKind> kind(n, obs::DivergenceKind::kIdentical);
  for (const obs::TaskDiff& td : diff.diverged) kind[td.task] = td.kind;
  for (TaskId t = 0; t < n; ++t) {
    const Placement& pa = base_plan.schedule.at(t);
    const Placement& pb = pert_plan.schedule.at(t);
    if (pa.np() != pb.np()) continue;  // a width divergence
    EXPECT_EQ(kind[t] == obs::DivergenceKind::kPlacement,
              !(pa.procs == pb.procs))
        << "task " << t;
  }
}

TEST(Provenance, JsonlSinkCapsLinesAndCountsDrops) {
  std::ostringstream buf;
  obs::JsonlSink sink(buf, /*max_lines=*/3);
  for (int i = 0; i < 5; ++i)
    sink.emit(obs::Event("e").with("i", i));
  EXPECT_EQ(sink.dropped(), 2u);
  std::istringstream in(buf.str());
  EXPECT_EQ(obs::read_trace(in).size(), 3u);
}

}  // namespace
}  // namespace locmps
