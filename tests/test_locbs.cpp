#include "schedulers/locbs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "network/block_cyclic.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "schedulers/incremental.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using test::serial;

TEST(LoCBS, SchedulesIndependentTasksInParallel) {
  TaskGraph g;
  g.add_task("a", serial(10.0, 4));
  g.add_task("b", serial(10.0, 4));
  const CommModel m{Cluster(4)};
  const LocBSResult r = locbs(g, {1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_TRUE(r.schedule.at(0).procs.disjoint(r.schedule.at(1).procs));
}

TEST(LoCBS, SerializesWhenProcessorsShort) {
  TaskGraph g;
  g.add_task("a", serial(10.0, 4));
  g.add_task("b", serial(10.0, 4));
  const CommModel m{Cluster(1)};
  const LocBSResult r = locbs(g, {1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);
  // The wait is resource-induced: a pseudo-edge must record it.
  EXPECT_EQ(r.dag.pseudo_edges().size(), 1u);
}

TEST(LoCBS, RespectsAllocationSizes) {
  TaskGraph g;
  g.add_task("a", test::profile({10.0, 5.0, 4.0, 3.0}));
  const CommModel m{Cluster(4)};
  const LocBSResult r = locbs(g, {3}, m);
  EXPECT_EQ(r.schedule.at(0).np(), 3u);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(LoCBS, ValidatesArguments) {
  TaskGraph g;
  g.add_task("a", serial(1.0, 4));
  const CommModel m{Cluster(2)};
  EXPECT_THROW(locbs(g, {}, m), std::invalid_argument);       // wrong size
  EXPECT_THROW(locbs(g, {0}, m), std::invalid_argument);      // np < 1
  EXPECT_THROW(locbs(g, {3}, m), std::invalid_argument);      // np > P
}

TEST(LoCBS, PrefersDataLocalProcessors) {
  // Child should land on its parent's processor to avoid the transfer.
  const TaskGraph g = test::chain(2, 5.0, 2, 1e6);
  const CommModel m{Cluster(2)};
  const LocBSResult r = locbs(g, {1, 1}, m);
  EXPECT_EQ(r.schedule.at(1).procs, r.schedule.at(0).procs);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);  // no transfer charged
}

TEST(LoCBS, LocalityOffIgnoresPlacementReuse) {
  const TaskGraph g = test::chain(2, 5.0, 2, 1e6);
  const CommModel m{Cluster(2, 100.0)};
  LocBSOptions opt;
  opt.locality = false;
  const LocBSResult r = locbs(g, {1, 1}, m, opt);
  // Full volume is charged regardless of placement: 1e6 / 100 B/s = 1e4 s.
  EXPECT_NEAR(r.makespan, 5.0 + 1e4 + 5.0, 1e-6);
}

TEST(LoCBS, CommBlindChargesNothing) {
  const TaskGraph g = test::chain(2, 5.0, 2, 1e9);
  const CommModel m{Cluster(2, 100.0)};
  LocBSOptions opt;
  opt.comm_blind = true;
  const LocBSResult r = locbs(g, {1, 1}, m, opt);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(LoCBS, BackfillFillsHoles) {
  // Wide task first creates a hole on other processors that a small,
  // independent task can backfill.
  TaskGraph g;
  const TaskId big = g.add_task("big", serial(10.0, 4));
  const TaskId dep = g.add_task("dep", serial(10.0, 4));
  const TaskId tiny = g.add_task("tiny", serial(2.0, 4));
  g.add_edge(big, dep, 0.0);
  const CommModel m{Cluster(2)};
  // big and dep chain on the critical path; tiny has lower priority and
  // must fit into the second processor's idle time.
  const LocBSResult r = locbs(g, {1, 1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);
  EXPECT_LE(r.schedule.at(tiny).finish, 20.0);
}

TEST(LoCBS, NoBackfillStillValid) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 8;
  Rng rng(3);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  const CommModel m(c);
  LocBSOptions opt;
  opt.backfill = false;
  const LocBSResult r = locbs(g, Allocation(g.num_tasks(), 2), m, opt);
  EXPECT_EQ(r.schedule.validate(g, m), "");
}

TEST(LoCBS, PriorityOrderFollowsBottomLevel) {
  // Two ready tasks; the one heading the longer remaining path goes first
  // and therefore starts at 0 on the single processor.
  TaskGraph g;
  const TaskId small = g.add_task("small", serial(1.0, 2));
  const TaskId head = g.add_task("head", serial(1.0, 2));
  const TaskId tail = g.add_task("tail", serial(50.0, 2));
  g.add_edge(head, tail, 0.0);
  const CommModel m{Cluster(1)};
  const LocBSResult r = locbs(g, {1, 1, 1}, m);
  EXPECT_DOUBLE_EQ(r.schedule.at(head).start, 0.0);
  EXPECT_GE(r.schedule.at(small).start, 1.0);
}

TEST(LoCBS, LatencyPenalizesRemotePlacement) {
  // With a large startup latency, placing the child away from its parent
  // costs latency + transfer, so locality keeps it in place and the chain
  // still finishes at 10.
  const TaskGraph g = test::chain(2, 5.0, 2, 1000.0);
  const CommModel m{Cluster(2, 1e9, true, 50.0)};
  const LocBSResult r = locbs(g, {1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_EQ(r.schedule.at(1).procs, r.schedule.at(0).procs);
  // Forcing a remote transfer pays the startup cost.
  LocBSOptions opt;
  opt.locality = false;
  const LocBSResult r2 = locbs(g, {1, 1}, m, opt);
  EXPECT_GT(r2.makespan, 60.0 - 1e-6);
}

TEST(LoCBS, NoOverlapOccupiesProcessorsDuringTransfer) {
  // chain a->b with a transfer; on a no-overlap platform the destination
  // is held from transfer start (busy_from < start).
  const TaskGraph g = test::chain(2, 5.0, 2, 1000.0);
  const Cluster c(2, 100.0, false);
  const CommModel m(c);
  LocBSOptions opt;
  opt.locality = false;  // force a real transfer
  const LocBSResult r = locbs(g, {1, 1}, m, opt);
  const Placement& pb = r.schedule.at(1);
  EXPECT_LT(pb.busy_from, pb.start);
  EXPECT_NEAR(pb.start - pb.busy_from, 10.0, 1e-9);
  EXPECT_EQ(r.schedule.validate(g, m), "");
}

TEST(LoCBS, DagEdgeTimesReflectRealizedTransfers) {
  const TaskGraph g = test::chain(2, 5.0, 2, 1000.0);
  const CommModel m{Cluster(2, 100.0)};
  const LocBSResult r = locbs(g, {1, 1}, m);
  // Locality keeps the data in place: realized edge time 0.
  EXPECT_DOUBLE_EQ(r.dag.edge_time(0), 0.0);
  LocBSOptions opt;
  opt.locality = false;
  const LocBSResult r2 = locbs(g, {1, 1}, m, opt);
  EXPECT_DOUBLE_EQ(r2.dag.edge_time(0), 10.0);
}

TEST(LoCBS, ParallelEdgesBothCharged) {
  // Two edges between the same pair (e.g. two tensors flowing a -> b):
  // both volumes count.
  TaskGraph g;
  const TaskId a = g.add_task("a", serial(5.0, 2));
  const TaskId b = g.add_task("b", serial(5.0, 2));
  g.add_edge(a, b, 1000.0);
  g.add_edge(a, b, 500.0);
  LocBSOptions opt;
  opt.locality = false;  // force both transfers
  // Overlap platform: the two transfers run in parallel streams, so the
  // arrival is governed by the larger one (10 s).
  const CommModel ov{Cluster(2, 100.0, true)};
  const LocBSResult r = locbs(g, {1, 1}, ov, opt);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0 + 10.0 + 5.0);
  EXPECT_EQ(r.schedule.validate(g, ov), "");
  // No-overlap platform: transfers serialize (10 + 5 s).
  const CommModel nov{Cluster(2, 100.0, false)};
  const LocBSResult r2 = locbs(g, {1, 1}, nov, opt);
  EXPECT_DOUBLE_EQ(r2.makespan, 5.0 + 15.0 + 5.0);
  EXPECT_EQ(r2.schedule.validate(g, nov), "");
}

TEST(LoCBS, SingleProcessorChainOfPseudoEdges) {
  // n independent tasks on one processor serialize completely; every wait
  // is resource-induced and recorded.
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task("t", serial(2.0, 1));
  const CommModel m{Cluster(1)};
  const LocBSResult r = locbs(g, {1, 1, 1, 1}, m);
  EXPECT_DOUBLE_EQ(r.makespan, 8.0);
  EXPECT_EQ(r.dag.pseudo_edges().size(), 3u);
  EXPECT_DOUBLE_EQ(r.dag.critical_path().length, 8.0);
}

TEST(LoCBS, FullyFrozenPrefixReproducesSchedule) {
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 4;
  Rng rng(23);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const CommModel m{Cluster(4)};
  const Allocation np(g.num_tasks(), 2);
  const LocBSResult base = locbs(g, np, m);
  FixedPrefix fixed;
  fixed.frozen.assign(g.num_tasks(), 1);
  fixed.placements = &base.schedule;
  const LocBSResult again = locbs(g, np, m, {}, &fixed);
  EXPECT_DOUBLE_EQ(again.makespan, base.makespan);
  for (TaskId t : g.task_ids())
    EXPECT_DOUBLE_EQ(again.schedule.at(t).start, base.schedule.at(t).start);
}

TEST(LoCBS, EqualPriorityBreaksTowardsLowerId) {
  TaskGraph g;
  g.add_task("x", serial(3.0, 1));
  g.add_task("y", serial(3.0, 1));  // identical priority
  const CommModel m{Cluster(1)};
  const LocBSResult r = locbs(g, {1, 1}, m);
  EXPECT_DOUBLE_EQ(r.schedule.at(0).start, 0.0);
  EXPECT_DOUBLE_EQ(r.schedule.at(1).start, 3.0);
}

// Property sweep: LoCBS output is always a valid schedule whose makespan
// matches the schedule's, across allocations, platforms and options.
class LoCBSProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, bool, bool, bool>> {};

TEST_P(LoCBSProperty, ProducesValidSchedules) {
  const auto [seed, P, backfill, locality, overlap] = GetParam();
  SyntheticParams p;
  p.ccr = 0.8;
  p.max_procs = P;
  p.min_tasks = 8;
  p.max_tasks = 24;
  Rng rng(seed);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(P, kFastEthernetBytesPerSec, overlap);
  const CommModel m(c);
  LocBSOptions opt;
  opt.backfill = backfill;
  opt.locality = locality;
  Rng arng(seed ^ 0xfeed);
  Allocation np(g.num_tasks());
  for (auto& a : np)
    a = static_cast<std::size_t>(arng.uniform_int(1, static_cast<int>(P)));
  const LocBSResult r = locbs(g, np, m, opt);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_NEAR(r.makespan, r.schedule.makespan(), 1e-12);
  EXPECT_EQ(r.schedule.validate(g, m), "") << "P=" << P;
  for (TaskId t : g.task_ids()) EXPECT_EQ(r.schedule.at(t).np(), np[t]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LoCBSProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(2, 5, 16),
                       ::testing::Bool(),   // backfill
                       ::testing::Bool(),   // locality
                       ::testing::Bool())); // overlap

// ---------------------------------------------------------------------------
// The reference scan as LoCBS's oracle
//
// A traced pass runs Alg. 2 literally beside the hole scan — every probe
// instant, availability straight from the timeline, fully sorted subsets,
// recomputed durations, no prune — and throws when the hole scan's winner
// differs (schedulers/locbs.cpp). So each traced pass below checks the
// sweep cursor, the duration cache and the prune bound at every
// placement. It must also equal the untraced pass bit for bit, and write
// one decision per placed task whose winner entry is that placement.
//
// The commit is checked the same way: G' is rebuilt from each pass's
// placements by Alg. 2 steps 17-18 taken literally, in commit order (the
// order of the traced pass's decision records), and must equal the G'
// the pass returned bit for bit, from scratch and through a replay
// context.

/// Processor counts drawn uniformly from [1, hi].
Allocation random_allocation(const TaskGraph& g, std::size_t hi, Rng& rng) {
  Allocation np(g.num_tasks());
  for (auto& a : np)
    a = static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(hi)));
  return np;
}

/// The scheduler's same-instant tests (schedulers/locbs.cpp).
bool about(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}
bool later_than(double a, double b) {
  return a > b + 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// G' of the pass that placed \p s, rebuilt by Alg. 2 steps 17-18 taken
/// literally: the frozen prefix enters the chart first, then each task of
/// \p order gets its vertex weight, the weights of its data-carrying
/// in-edges, and a pseudo-edge from every task already in the chart that
/// finishes when it acquired its processors later than its data allowed
/// and shares a processor with it.
ScheduleDag literal_dag(const TaskGraph& g, const Allocation& np,
                        const CommModel& comm, const LocBSOptions& opt,
                        const FixedPrefix* fixed, const Schedule& s,
                        const std::vector<TaskId>& order) {
  ScheduleDag dag(g);
  std::vector<char> in_chart(g.num_tasks(), 0);
  for (TaskId t : g.task_ids())
    if (fixed != nullptr && fixed->is_frozen(t)) {
      dag.set_vertex_time(t, s.at(t).finish - s.at(t).start);
      in_chart[t] = 1;
    }
  for (TaskId t : order) {
    const Placement& pl = s.at(t);
    dag.set_vertex_time(t, g.task(t).profile.time(np[t]) * opt.slack_factor);
    double ready = fixed != nullptr ? fixed->not_before : 0.0;
    for (EdgeId e : g.in_edges(t))
      ready = std::max(ready, s.at(g.edge(e).src).finish);
    double arrival = ready;  // latest input arrival
    for (EdgeId e : g.in_edges(t)) {
      const Edge& ed = g.edge(e);
      if (opt.comm_blind || !(ed.volume_bytes > 0.0)) continue;
      const std::vector<ProcId> src = s.at(ed.src).procs.to_vector();
      const double bytes =
          opt.locality
              ? ed.volume_bytes * remote_fraction(src, pl.procs.to_vector())
              : ed.volume_bytes;
      const double w = comm.transfer_duration(bytes, src.size(), np[t]);
      dag.set_edge_time(e, w);
      arrival = std::max(arrival, s.at(ed.src).finish + w);
    }
    // Without overlap the transfers hold the processors from busy_from,
    // so only a busy_from past the ready time is a wait for processors.
    const bool waited = comm.overlap() ? later_than(pl.start, arrival)
                                       : later_than(pl.busy_from, ready);
    const double acquired = comm.overlap() ? pl.start : pl.busy_from;
    if (waited)
      for (TaskId u : g.task_ids())
        if (in_chart[u] && about(s.at(u).finish, acquired) &&
            s.at(u).procs.intersection_count(pl.procs) > 0)
          dag.add_pseudo_edge(u, t);
    in_chart[t] = 1;
  }
  return dag;
}

/// Compares \p got, the G' of a pass, with the literal rebuild \p want bit
/// for bit.
void expect_same_dag(const TaskGraph& g, const ScheduleDag& want,
                     const ScheduleDag& got, const std::string& what) {
  for (TaskId t : g.task_ids())
    EXPECT_EQ(got.vertex_time(t), want.vertex_time(t)) << what << " task " << t;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(got.edge_time(e), want.edge_time(e)) << what << " edge " << e;
  EXPECT_EQ(got.pseudo_edges(), want.pseudo_edges()) << what;
}

/// Runs one pass untraced and traced, and checks both as above; \p order
/// (optional) receives the traced pass's commit order. Comm-blind passes
/// skip Schedule::validate: they ignore transfers by design, and iCASLB
/// re-times them.
void expect_reference_agrees(const TaskGraph& g, const Allocation& np,
                             const CommModel& comm, const LocBSOptions& opt,
                             const FixedPrefix* fixed, const std::string& what,
                             std::vector<TaskId>* order = nullptr) {
  std::vector<TaskId> committed;
  const LocBSResult plain = locbs(g, np, comm, opt, fixed);
  obs::EventBuffer buf;
  obs::ObsContext obs{nullptr, &buf, nullptr};
  std::optional<LocBSResult> traced;
  try {
    traced.emplace(locbs(g, np, comm, opt, fixed, &obs));
  } catch (const std::exception& e) {
    FAIL() << what << ": " << e.what();
  }
  if (!opt.comm_blind) EXPECT_EQ(plain.schedule.validate(g, comm), "") << what;
  EXPECT_EQ(traced->makespan, plain.makespan) << what;

  std::vector<int> decisions(g.num_tasks(), 0);
  for (const obs::Event& ev : buf.events()) {
    if (ev.name() != "locbs.decision") continue;
    std::int64_t task = -1, winner = -1;
    std::string cands;
    for (const auto& [key, v] : ev.fields()) {
      if (key == "task") task = std::get<std::int64_t>(v);
      if (key == "winner") winner = std::get<std::int64_t>(v);
      if (key == "cands") cands = std::get<std::string>(v);
    }
    ASSERT_GE(task, 0) << what;
    ASSERT_LT(static_cast<std::size_t>(task), g.num_tasks()) << what;
    ++decisions[static_cast<std::size_t>(task)];
    committed.push_back(static_cast<TaskId>(task));
    const auto shortlist = obs::decode_candidates(cands);
    ASSERT_GE(winner, 0) << what;
    ASSERT_LT(static_cast<std::size_t>(winner), shortlist.size()) << what;
    const obs::ProvCandidate& win = shortlist[static_cast<std::size_t>(winner)];
    const Placement& pl = plain.schedule.at(static_cast<TaskId>(task));
    EXPECT_EQ(win.procs, pl.procs.to_vector()) << what << " task " << task;
    EXPECT_EQ(win.busy_from, pl.busy_from) << what << " task " << task;
    EXPECT_EQ(win.start, pl.start) << what << " task " << task;
    EXPECT_EQ(win.finish, pl.finish) << what << " task " << task;
  }
  for (TaskId t : g.task_ids()) {
    const Placement& a = plain.schedule.at(t);
    const Placement& b = traced->schedule.at(t);
    EXPECT_EQ(a.busy_from, b.busy_from) << what << " task " << t;
    EXPECT_EQ(a.start, b.start) << what << " task " << t;
    EXPECT_EQ(a.finish, b.finish) << what << " task " << t;
    EXPECT_TRUE(a.procs == b.procs) << what << " task " << t;
    const bool frozen = fixed != nullptr && fixed->is_frozen(t);
    EXPECT_EQ(decisions[t], frozen ? 0 : 1) << what << " task " << t;
  }
  const ScheduleDag want =
      literal_dag(g, np, comm, opt, fixed, plain.schedule, committed);
  expect_same_dag(g, want, plain.dag, what);
  expect_same_dag(g, want, traced->dag, what + " traced");
  if (order != nullptr) *order = std::move(committed);
}

/// Checks \p np and a variant with one unfrozen task's processor count
/// changed, each from scratch as above and then through one
/// IncrementalContext in the order np, variant, np, so the stream scans
/// and replays: each streamed G' must equal its literal rebuild.
void expect_passes_agree(const TaskGraph& g, const Allocation& np,
                         const CommModel& comm, const LocBSOptions& opt,
                         const FixedPrefix* fixed, const std::string& what) {
  const std::size_t usable = fixed != nullptr && fixed->available != nullptr
                                 ? fixed->available->count()
                                 : comm.cluster().processors;
  Allocation variant = np;
  for (TaskId t = g.num_tasks(); t-- > 0;)
    if (fixed == nullptr || !fixed->is_frozen(t)) {
      variant[t] = np[t] % usable + 1;
      break;
    }
  std::vector<TaskId> order, variant_order;
  expect_reference_agrees(g, np, comm, opt, fixed, what, &order);
  expect_reference_agrees(g, variant, comm, opt, fixed, what + " variant",
                          &variant_order);
  IncrementalContext stream;
  for (const bool base : {true, false, true}) {
    const Allocation& a = base ? np : variant;
    const LocBSResult r = locbs(g, a, comm, opt, fixed, nullptr, &stream);
    expect_same_dag(g,
                    literal_dag(g, a, comm, opt, fixed, r.schedule,
                                base ? order : variant_order),
                    r.dag, what + (base ? " streamed" : " streamed variant"));
  }
}

/// A replan of \p g at the median start of the plan \p first: the tasks
/// that started earlier are frozen (a predecessor-closed prefix, since
/// every predecessor starts first), the rest may not start earlier and
/// run on \p survivors, so their counts in \p np are clamped to it.
FixedPrefix replan_at_median(const TaskGraph& g, const Schedule& first,
                             const ProcessorSet& survivors, Allocation& np) {
  std::vector<double> starts;
  for (TaskId t : g.task_ids()) starts.push_back(first.at(t).start);
  std::sort(starts.begin(), starts.end());
  FixedPrefix fixed;
  fixed.placements = &first;
  fixed.not_before = starts[starts.size() / 2];
  fixed.frozen.assign(g.num_tasks(), 0);
  for (TaskId t : g.task_ids())
    fixed.frozen[t] = first.at(t).start < fixed.not_before;
  fixed.available = &survivors;
  for (TaskId t : g.task_ids())
    if (!fixed.frozen[t]) np[t] = std::min(np[t], survivors.count());
  return fixed;
}

/// One option row of the sweep.
struct ReferenceRow {
  LocBSOptions opt;
  bool overlap = true;
  bool fixed = false;  ///< replan around a frozen prefix
};

/// Seeded synthetic DAGs with |V| = 1..40 on P = 1, 4 and 16, each under
/// a random allocation, through \p row.
void sweep_reference(const ReferenceRow& row, std::uint64_t salt) {
  for (const std::size_t P : {1, 4, 16}) {
    const CommModel comm{Cluster(P, kFastEthernetBytesPerSec, row.overlap)};
    for (std::size_t n = 1; n <= 40; ++n) {
      const std::uint64_t seed = salt * 1000003 + P * 101 + n;
      SyntheticParams sp;
      sp.ccr = 1.0;
      sp.max_procs = P;
      sp.min_tasks = sp.max_tasks = n;
      Rng rng(seed);
      const TaskGraph g = make_synthetic_dag(sp, rng);
      Allocation np = random_allocation(g, P, rng);
      const std::string what = "P=" + std::to_string(P) +
                               " |V|=" + std::to_string(n) +
                               " seed=" + std::to_string(seed);
      if (!row.fixed) {
        expect_passes_agree(g, np, comm, row.opt, nullptr, what);
        continue;
      }
      // Replan at the median start of a first plan; processor P-1 has
      // failed.
      const LocBSResult first = locbs(g, np, comm, row.opt);
      ProcessorSet survivors = ProcessorSet::all(P);
      if (P > 1) survivors.erase(static_cast<ProcId>(P - 1));
      const FixedPrefix fixed =
          replan_at_median(g, first.schedule, survivors, np);
      expect_passes_agree(g, np, comm, row.opt, &fixed, what);
    }
  }
}

TEST(LocBSReference, DefaultOptions) { sweep_reference({}, 1); }

TEST(LocBSReference, NoBackfill) {
  ReferenceRow row;
  row.opt.backfill = false;
  sweep_reference(row, 2);
}

TEST(LocBSReference, NoLocality) {
  ReferenceRow row;
  row.opt.locality = false;
  sweep_reference(row, 3);
}

TEST(LocBSReference, CommBlind) {
  ReferenceRow row;
  row.opt.comm_blind = true;
  sweep_reference(row, 4);
}

TEST(LocBSReference, SlackFactor) {
  ReferenceRow row;
  row.opt.slack_factor = 1.25;
  sweep_reference(row, 5);
}

TEST(LocBSReference, NoOverlap) {
  ReferenceRow row;
  row.overlap = false;
  sweep_reference(row, 6);
}

TEST(LocBSReference, FixedPrefix) {
  ReferenceRow row;
  row.fixed = true;
  sweep_reference(row, 7);
}

/// Processor counts that are mostly 1: one task in ten gets 2 to \p hi.
Allocation mostly_serial_allocation(const TaskGraph& g, std::size_t hi,
                                    Rng& rng) {
  Allocation np(g.num_tasks(), 1);
  for (auto& a : np)
    if (hi > 1 && rng.uniform() < 0.1)
      a = static_cast<std::size_t>(rng.uniform_int(2, static_cast<int>(hi)));
  return np;
}

// One-processor tasks at |V| 100-256 on P = 16 and 64: there the hole scan
// jumps over most probe instants, so the reference scan vets every winner
// a jump leads to, with and without overlap and locality, and in a replan
// around a frozen prefix with a failed processor.
TEST(LocBSReference, OneProcessorTasksAtScale) {
  std::uint64_t seed = 8000;
  for (const std::size_t P : {16, 64})
    for (const bool overlap : {true, false})
      for (const bool locality : {true, false}) {
        const CommModel comm{Cluster(P, kFastEthernetBytesPerSec, overlap)};
        SyntheticParams sp;
        sp.ccr = 1.0;
        sp.max_procs = P;
        sp.min_tasks = 100;
        sp.max_tasks = 256;
        Rng rng(++seed);
        const TaskGraph g = make_synthetic_dag(sp, rng);
        LocBSOptions opt;
        opt.locality = locality;
        expect_passes_agree(g, mostly_serial_allocation(g, P, rng), comm, opt,
                            nullptr,
                            "P=" + std::to_string(P) +
                                " |V|=" + std::to_string(g.num_tasks()) +
                                (overlap ? "" : " no overlap") +
                                (locality ? "" : " no locality"));
      }
  // A replan at the median start of a first plan, with two processors
  // failed.
  const std::size_t P = 64;
  const CommModel comm{Cluster(P)};
  SyntheticParams sp;
  sp.ccr = 1.0;
  sp.max_procs = P;
  sp.min_tasks = sp.max_tasks = 200;
  Rng rng(++seed);
  const TaskGraph g = make_synthetic_dag(sp, rng);
  Allocation np = mostly_serial_allocation(g, P, rng);
  const LocBSResult first = locbs(g, np, comm, {});
  ProcessorSet survivors = ProcessorSet::all(P);
  survivors.erase(0);
  survivors.erase(static_cast<ProcId>(P / 2));
  const FixedPrefix fixed = replan_at_median(g, first.schedule, survivors, np);
  expect_passes_agree(g, np, comm, {}, &fixed, "P=64 |V|=200 replan");
}

// A one-processor task whose finish lands exactly on the start of the next
// booking still fits there: the jump must stop at that hole, not skip it.
// On one processor without locality, b waits for its input and leaves the
// hole [10, 10 + d), and x, of length d and ready at 0, fills it exactly.
TEST(LocBSReference, JumpStopsAtAnExactFit) {
  const CommModel comm{Cluster(1)};
  const double volume = 4e6;
  const double d = comm.transfer_duration(volume, 1, 1);
  TaskGraph g;
  const TaskId a = g.add_task("a", test::serial(10.0, 1));
  const TaskId b = g.add_task("b", test::serial(5.0, 1));
  const TaskId x = g.add_task("x", test::serial(d, 1));
  g.add_edge(a, b, volume);
  LocBSOptions opt;
  opt.locality = false;
  expect_reference_agrees(g, Allocation(3, 1), comm, opt, nullptr,
                          "exact fit");
  const LocBSResult r = locbs(g, Allocation(3, 1), comm, opt);
  EXPECT_EQ(r.schedule.at(x).start, 10.0);
  EXPECT_EQ(r.schedule.at(x).finish, r.schedule.at(b).start);
}

TEST(LocBSReference, DegenerateInputs) {
  for (const std::size_t P : {1, 4, 16}) {
    for (const bool overlap : {true, false}) {
      const CommModel comm{Cluster(P, kFastEthernetBytesPerSec, overlap)};
      const std::string on = "P=" + std::to_string(P) +
                             (overlap ? " overlap" : " no overlap");
      Rng rng(P * 7 + (overlap ? 1 : 0));
      SyntheticParams sp;
      sp.max_procs = P;
      sp.min_tasks = 1;
      sp.max_tasks = 1;
      const TaskGraph one = make_synthetic_dag(sp, rng);
      expect_reference_agrees(one, {P}, comm, {}, nullptr, on + " |V|=1");
      const TaskGraph chain = test::chain(12, 3.0, P, 4e6);
      expect_reference_agrees(chain, random_allocation(chain, P, rng), comm,
                              {}, nullptr, on + " chain");
      // Tied finishes: P equal serial tasks end together, and a wider,
      // later task waits for them; its pseudo-edges come from exactly the
      // finishers on its processors, in task order.
      TaskGraph tied;
      for (std::size_t i = 0; i < P; ++i)
        tied.add_task("a", test::serial(10.0, P));
      tied.add_task("w", test::serial(5.0, P));
      Allocation tied_np(P + 1, 1);
      tied_np[P] = (P + 1) / 2;
      expect_reference_agrees(tied, tied_np, comm, {}, nullptr,
                              on + " tied finishes");
      sp.ccr = 0.0;  // every edge carries zero bytes
      sp.min_tasks = 20;
      sp.max_tasks = 30;
      const TaskGraph dry = make_synthetic_dag(sp, rng);
      expect_reference_agrees(dry, random_allocation(dry, P, rng), comm, {},
                              nullptr, on + " zero volumes");
      sp.ccr = 1.0;
      const TaskGraph g = make_synthetic_dag(sp, rng);
      for (const bool backfill : {true, false}) {
        LocBSOptions opt;
        opt.backfill = backfill;
        const std::string b = backfill ? "" : " no backfill";
        expect_reference_agrees(g, Allocation(g.num_tasks(), 1), comm, opt,
                                nullptr, on + b + " np=1");
        expect_reference_agrees(g, Allocation(g.num_tasks(), P), comm, opt,
                                nullptr, on + b + " np=P");
      }
    }
  }
}

// A perturbed pass that commits the reference scan's shadow runner-up
// (subset 2) counts that placement as neither a locality-first nor a
// horizon-first win.
TEST(LocBSReference, ShadowCommitIsNeitherWin) {
  const std::size_t P = 16;
  const CommModel comm{Cluster(P)};
  SyntheticParams sp;
  sp.ccr = 0.5;
  sp.max_procs = P;
  Rng rng(42);
  const TaskGraph g = make_synthetic_dag(sp, rng);
  const Allocation np = random_allocation(g, P, rng);
  bool found = false;
  for (TaskId t = 0; t < g.num_tasks() && !found; ++t) {
    LocBSOptions opt;
    opt.perturb_task = t;
    obs::MetricsRegistry met;
    obs::EventBuffer buf;
    obs::ObsContext obs{&met, &buf, nullptr};
    (void)locbs(g, np, comm, opt, nullptr, &obs);
    for (const obs::Event& ev : buf.events()) {
      if (ev.name() != "locbs.decision") continue;
      std::int64_t task = -1, winner = -1;
      std::string cands;
      for (const auto& [key, v] : ev.fields()) {
        if (key == "task") task = std::get<std::int64_t>(v);
        if (key == "winner") winner = std::get<std::int64_t>(v);
        if (key == "cands") cands = std::get<std::string>(v);
      }
      if (task != static_cast<std::int64_t>(t)) continue;
      const auto shortlist = obs::decode_candidates(cands);
      found = shortlist.at(static_cast<std::size_t>(winner)).subset == 2;
    }
    if (!found) continue;
    const obs::MetricsSnapshot c = met.snapshot();
    EXPECT_EQ(c.counter("locbs.locality_subset_wins") +
                  c.counter("locbs.horizon_subset_wins"),
              c.counter("locbs.tasks_placed") - 1.0)
        << "perturbed task " << t;
  }
  ASSERT_TRUE(found) << "no perturbed task committed a shadow";
}

}  // namespace
}  // namespace locmps
