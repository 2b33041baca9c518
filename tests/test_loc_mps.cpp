#include "schedulers/loc_mps.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "obs/metrics.hpp"
#include "schedule/event_sim.hpp"
#include "schedule/metrics.hpp"
#include "schedulers/incremental.hpp"
#include "schedulers/lanes.hpp"
#include "schedulers/task_parallel.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

using test::serial;

TEST(LocMPS, SingleSerialTaskStaysNarrow) {
  TaskGraph g;
  g.add_task("a", serial(10.0, 8));
  const Cluster c(8);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.allocation[0], 1u);  // Pbest of a serial task is 1
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 10.0);
}

TEST(LocMPS, WidensScalableTask) {
  TaskGraph g;
  g.add_task("a", test::profile({16.0, 8.0, 6.0, 4.0}));
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.allocation[0], 4u);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 4.0);
}

TEST(LocMPS, AllocationCappedByPbest) {
  // Time worsens past 2 processors: never allocate more.
  TaskGraph g;
  g.add_task("a", test::profile({10.0, 6.0, 7.0, 9.0}));
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.allocation[0], 2u);
}

TEST(LocMPS, EscapesLocalMinimumViaLookAhead) {
  // Paper Fig 3: two independent linear-speedup tasks of 40 and 80 on 4
  // processors. The greedy path stalls at {T1:1, T2:3} (makespan 40); the
  // data-parallel allocation {4, 4} reaches 30.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 30.0);
  EXPECT_EQ(r.allocation, (Allocation{4, 4}));
}

TEST(LocMPS, NoLookAheadStaysInLocalMinimum) {
  // Same instance with look-ahead depth 1: the pure greedy scheme cannot
  // accept the temporary makespan increase and stalls above 30.
  test::LinearSpeedup lin;
  TaskGraph g;
  g.add_task("T1", ExecutionProfile(lin, 40.0, 4));
  g.add_task("T2", ExecutionProfile(lin, 80.0, 4));
  const Cluster c(4);
  LocMPSOptions opt;
  opt.look_ahead_depth = 1;
  const SchedulerResult r = LocMPSScheduler(opt).schedule(g, c);
  EXPECT_GT(r.estimated_makespan, 30.0);
  EXPECT_DOUBLE_EQ(r.estimated_makespan, 40.0);
}

TEST(LocMPS, NeverWorseThanPureTaskParallel) {
  SyntheticParams p;
  p.ccr = 0.1;
  p.max_procs = 8;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const TaskGraph g = make_synthetic_dag(p, rng);
    const Cluster c(8);
    const double mps =
        LocMPSScheduler().schedule(g, c).estimated_makespan;
    const double task =
        TaskParallelScheduler().schedule(g, c).estimated_makespan;
    EXPECT_LE(mps, task + 1e-9) << "seed=" << seed;
  }
}

TEST(LocMPS, EstimateMatchesEventSimulation) {
  // The scheduler's internal makespan must agree with an independent
  // re-execution of the plan under the same platform model.
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 8;
  Rng rng(11);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  const SimResult sim =
      simulate_execution(g, r.schedule, CommModel(c));
  EXPECT_NEAR(sim.makespan, r.estimated_makespan,
              1e-6 * r.estimated_makespan);
}

TEST(LocMPS, ProducesValidSchedules) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 8;
  Rng rng(13);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  const CommModel m(c);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, m), "");
  for (TaskId t : g.task_ids()) {
    EXPECT_GE(r.allocation[t], 1u);
    EXPECT_LE(r.allocation[t], 8u);
    EXPECT_EQ(r.schedule.at(t).np(), r.allocation[t]);
  }
}

TEST(LocMPS, RespectsMaxLocbsCallBudget) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(17);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(16);
  LocMPSOptions opt;
  opt.max_locbs_calls = 25;
  LocMPSScheduler sched(opt);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx{&reg, nullptr, nullptr};
  sched.attach_observability(&ctx);
  const SchedulerResult r = sched.schedule(g, c);
  EXPECT_LE(r.iterations, 25u + 2u);
  // The cap binds the LoCBS passes that actually run.
  EXPECT_LE(reg.snapshot().counter("locbs.calls"), 25.0);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(LocMPS, NamesReflectOptions) {
  EXPECT_EQ(LocMPSScheduler().name(), "LoC-MPS");
  LocMPSOptions nbf;
  nbf.locbs.backfill = false;
  EXPECT_EQ(LocMPSScheduler(nbf).name(), "LoC-MPS-nbf");
  LocMPSOptions blind;
  blind.locbs.comm_blind = true;
  EXPECT_EQ(LocMPSScheduler(blind).name(), "iCASLB");
}

TEST(LocMPS, CandidateFractionWidensThePool) {
  // With the pool at 100% the concurrency-ratio tie-break always applies;
  // both settings must still produce valid schedules and the paper's
  // default must not be worse than pure greedy on the Fig 2 instance.
  TaskGraph g;
  const TaskId t1 = g.add_task("T1", test::profile({10, 7, 5}));
  const TaskId t2 = g.add_task("T2", test::profile({8, 6, 5}));
  const TaskId t3 = g.add_task("T3", test::profile({9, 7, 5}));
  const TaskId t4 = g.add_task("T4", test::profile({7, 5, 4}));
  g.add_edge(t2, t1, 0.0);
  g.add_edge(t2, t3, 0.0);
  g.add_edge(t2, t4, 0.0);
  const Cluster c(3);
  LocMPSOptions wide;
  wide.candidate_top_fraction = 1.0;
  const double pooled =
      LocMPSScheduler(wide).schedule(g, c).estimated_makespan;
  const double standard = LocMPSScheduler().schedule(g, c).estimated_makespan;
  EXPECT_DOUBLE_EQ(pooled, 15.0);  // cr(T2)=0 wins immediately
  EXPECT_LE(standard, pooled + 1e-9);
}

TEST(LocMPS, LiteralMarkSemanticsRemainAvailable) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 8;
  Rng rng(19);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster c(8);
  LocMPSOptions literal;
  literal.marks_bind_lookahead = false;
  const SchedulerResult r = LocMPSScheduler(literal).schedule(g, c);
  EXPECT_EQ(r.schedule.validate(g, CommModel(c)), "");
}

TEST(LocMPS, WidensCommEdgesWhenCommDominates) {
  // A cheap computation chain with a huge transfer: LoC-MPS must widen
  // both endpoints to raise the aggregate bandwidth (Section III-D), since
  // with multiple children the data cannot all stay local.
  TaskGraph g;
  test::LinearSpeedup lin;
  const TaskId a = g.add_task("a", ExecutionProfile(lin, 2.0, 4));
  const TaskId b = g.add_task("b", ExecutionProfile(lin, 2.0, 4));
  const TaskId cld = g.add_task("c", ExecutionProfile(lin, 2.0, 4));
  g.add_edge(a, b, 50.0 * kFastEthernetBytesPerSec);
  g.add_edge(a, cld, 50.0 * kFastEthernetBytesPerSec);
  const Cluster c(4);
  const SchedulerResult r = LocMPSScheduler().schedule(g, c);
  // Pure task-parallel would pay ~50 s of redistribution on at least one
  // edge; widening + locality must do much better.
  EXPECT_LT(r.estimated_makespan, 56.0);
}

// ---------------------------------------------------------------------------
// Speculative look-ahead lanes (schedulers/lanes.hpp)
//
// After a revert, an unobserved plan walks the next rounds at once, one
// per lane, and folds them in round order; a plan with an ObsContext walks
// one round at a time on one lane. Both must give the same plan, whatever
// the options, and a throw in a round the fold drops must not escape.

/// Installs a pass hook for one scope.
class PassHookScope {
 public:
  explicit PassHookScope(lanes::PassHook hook) { lanes::set_pass_hook(hook); }
  ~PassHookScope() { lanes::set_pass_hook(nullptr); }
  PassHookScope(const PassHookScope&) = delete;
  PassHookScope& operator=(const PassHookScope&) = delete;
};

TaskGraph lane_graph(std::size_t tasks, std::size_t procs,
                     std::uint64_t seed) {
  SyntheticParams p;
  p.min_tasks = p.max_tasks = tasks;
  p.ccr = 0.5;
  p.max_procs = procs;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

/// A plan with a registry attached: one lane.
SchedulerResult one_lane(const TaskGraph& g, const Cluster& c,
                         const LocMPSOptions& opt) {
  LocMPSScheduler sched(opt);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx{&reg, nullptr, nullptr};
  sched.attach_observability(&ctx);
  return sched.schedule(g, c);
}

void expect_same_schedule(const Schedule& ref, const Schedule& got,
                          const std::string& label) {
  ASSERT_EQ(ref.num_tasks(), got.num_tasks()) << label;
  for (TaskId t = 0; t < ref.num_tasks(); ++t) {
    const Placement& a = ref.at(t);
    const Placement& b = got.at(t);
    EXPECT_TRUE(a.busy_from == b.busy_from && a.start == b.start &&
                a.finish == b.finish && a.procs == b.procs)
        << label << ": task " << t;
  }
}

void expect_same_plan(const SchedulerResult& ref, const SchedulerResult& got,
                      const std::string& label) {
  EXPECT_EQ(ref.estimated_makespan, got.estimated_makespan) << label;
  EXPECT_EQ(ref.iterations, got.iterations) << label;
  EXPECT_EQ(ref.allocation, got.allocation) << label;
  expect_same_schedule(ref.schedule, got.schedule, label);
}

struct LaneVariant {
  const char* name;
  void (*apply)(LocMPSOptions&);
};

void PrintTo(const LaneVariant& v, std::ostream* os) { *os << v.name; }

const LaneVariant kLaneVariants[] = {
    {"defaults", [](LocMPSOptions&) {}},
    {"budget_150", [](LocMPSOptions& o) { o.max_locbs_calls = 150; }},
    {"depth_3", [](LocMPSOptions& o) { o.look_ahead_depth = 3; }},
    {"marks_free_walks",
     [](LocMPSOptions& o) { o.marks_bind_lookahead = false; }},
    {"slack_1_25", [](LocMPSOptions& o) { o.locbs.slack_factor = 1.25; }},
    {"no_backfill", [](LocMPSOptions& o) { o.locbs.backfill = false; }},
    {"comm_blind", [](LocMPSOptions& o) { o.locbs.comm_blind = true; }},
};

class LocMPSLanes : public ::testing::TestWithParam<LaneVariant> {};

TEST_P(LocMPSLanes, UnobservedPlansMatchOneLane) {
  LocMPSOptions opt;
  GetParam().apply(opt);
  const std::size_t batches = lanes::batches_run();
  for (std::uint64_t seed = 1; seed <= 2; ++seed)
    for (const std::size_t tasks : {12, 25})
      for (const std::size_t procs : {1, 4, 16}) {
        const TaskGraph g = lane_graph(tasks, procs, 7919 * seed + tasks);
        const Cluster c(procs);
        expect_same_plan(one_lane(g, c, opt),
                         LocMPSScheduler(opt).schedule(g, c),
                         "seed " + std::to_string(seed) + " |V| " +
                             std::to_string(tasks) + " P " +
                             std::to_string(procs));
      }
  if (lanes::width() > 1)
    EXPECT_GT(lanes::batches_run(), batches) << "no batch ran";
}

INSTANTIATE_TEST_SUITE_P(
    Variants, LocMPSLanes, ::testing::ValuesIn(kLaneVariants),
    [](const ::testing::TestParamInfo<LaneVariant>& info) {
      return std::string(info.param.name);
    });

TEST(LocMPSLanes, FaultReplansMatchOneLane) {
  const std::size_t batches = lanes::batches_run();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TaskGraph g = lane_graph(25, 16, seed);
    const Cluster c(16);
    const double base = 2.0 * std::max(critical_path_lower_bound(g, 16),
                                       area_lower_bound(g, 16));
    FaultPlanParams prm;
    prm.fail_fraction = 0.25;
    prm.horizon_s = 0.6 * base;
    prm.repairs = true;
    prm.repair_delay_s = 0.5 * base;
    prm.seed = seed;
    const FaultPlan faults = make_fault_plan(16, prm);
    obs::MetricsRegistry reg;
    obs::ObsContext ctx{&reg, nullptr, nullptr};
    RecoveryOptions metered;
    metered.obs = &ctx;
    const RecoveryResult ref = run_with_faults(g, c, faults, metered);
    const RecoveryResult got = run_with_faults(g, c, faults);
    const std::string label = "seed " + std::to_string(seed);
    ASSERT_TRUE(ref.completed && got.completed) << label;
    EXPECT_GT(ref.replans, 0u) << label;
    EXPECT_EQ(ref.replans, got.replans) << label;
    EXPECT_EQ(ref.rounds, got.rounds) << label;
    EXPECT_EQ(ref.planned_makespan, got.planned_makespan) << label;
    EXPECT_EQ(ref.makespan, got.makespan) << label;
    expect_same_schedule(ref.executed, got.executed, label);
  }
  if (lanes::width() > 1)
    EXPECT_GT(lanes::batches_run(), batches) << "no batch ran";
}

/// g_commits[r] != 0: round r of the one-lane search commits.
std::vector<char> g_commits;
std::atomic<std::size_t> g_thrown{0};

/// Throws from the first pass of every helper lane whose round follows a
/// committing round. Such a round is always dropped: the lane before it
/// commits, or an earlier one does. Before it throws, it corrupts the
/// lane's stream as a throw in mid-pass may, by halving every recorded
/// placement's times: a lane that replayed the stream afterwards would
/// realize schedules shorter than any real one and commit them.
void throw_in_dropped_round(std::size_t round, std::size_t lane,
                            IncrementalContext& stream) {
  if (lane == 0 || round - 1 >= g_commits.size() || !g_commits[round - 1])
    return;
  for (ReplayStep& step : stream.steps) {
    step.busy_from *= 0.5;
    step.start *= 0.5;
    step.finish *= 0.5;
  }
  g_thrown.fetch_add(1, std::memory_order_relaxed);
  throw std::runtime_error("injected in a dropped round");
}

TEST(LocMPSLanes, ThrowInDroppedRoundIsContained) {
  if (lanes::width() < 2) GTEST_SKIP() << "one CPU: plans walk one lane";
  g_thrown = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TaskGraph g = lane_graph(25, 16, seed);
    const Cluster c(16);
    LocMPSScheduler traced;
    obs::EventBuffer buf;
    obs::ObsContext ctx{nullptr, &buf, nullptr};
    traced.attach_observability(&ctx);
    (void)traced.schedule(g, c);
    g_commits.clear();
    for (const obs::Event& e : buf.events()) {
      if (e.name() != "locmps.lookahead") continue;
      std::int64_t round = 0;
      bool improved = false;
      for (const auto& [key, value] : e.fields()) {
        if (key == "round") round = std::get<std::int64_t>(value);
        if (key == "improved") improved = std::get<bool>(value);
      }
      g_commits.resize(static_cast<std::size_t>(round) + 1, 0);
      g_commits[static_cast<std::size_t>(round)] = improved ? 1 : 0;
    }
    const SchedulerResult ref = one_lane(g, c, {});
    const PassHookScope hook(throw_in_dropped_round);
    SchedulerResult got;
    EXPECT_NO_THROW(got = LocMPSScheduler().schedule(g, c));
    expect_same_plan(ref, got, "seed " + std::to_string(seed));
  }
  EXPECT_GT(g_thrown.load(), 0u) << "no dropped round threw";
}

void throw_in_round_3(std::size_t round, std::size_t, IncrementalContext&) {
  if (round == 3) throw std::runtime_error("injected in round 3");
}

TEST(LocMPSLanes, ThrowInFoldedRoundEscapes) {
  // Round 3 is folded whichever lane walks it, so its throw is the
  // sequential search's: it leaves schedule() on both paths.
  const TaskGraph g = lane_graph(25, 16, 1);
  const Cluster c(16);
  const PassHookScope hook(throw_in_round_3);
  EXPECT_THROW(LocMPSScheduler().schedule(g, c), std::runtime_error);
  EXPECT_THROW(one_lane(g, c, {}), std::runtime_error);
}

}  // namespace
}  // namespace locmps
