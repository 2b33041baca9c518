#include "faults/recovery.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "network/comm_model.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

TaskGraph workload(std::uint64_t seed) {
  SyntheticParams p;
  p.ccr = 0.4;
  p.max_procs = 8;
  p.min_tasks = 16;
  p.max_tasks = 24;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

/// A seeded plan whose onsets land inside the busy part of the schedule.
FaultPlan plan_for(const TaskGraph& g, const Cluster& c, double rate,
                   bool repairs, std::uint64_t seed) {
  const double base = LocMPSScheduler().schedule(g, c).estimated_makespan;
  FaultPlanParams prm;
  prm.fail_fraction = rate;
  prm.horizon_s = 0.5 * base;
  prm.repairs = repairs;
  prm.repair_delay_s = 0.3 * base;
  prm.seed = seed;
  return make_fault_plan(c.processors, prm);
}

/// Captures every event in a deterministic textual form. Unlike JsonlSink
/// there is no wall-clock "t" stamp, so two replays of the same run must
/// produce byte-identical streams.
class CollectingSink final : public obs::EventSink {
 public:
  void emit(const obs::Event& e) override {
    std::ostringstream os;
    os << e.name();
    for (const auto& [k, v] : e.fields()) {
      os << ' ' << k << '=';
      std::visit([&](const auto& x) { write(os, x); }, v);
    }
    lines.push_back(os.str());
  }
  std::vector<std::string> lines;

 private:
  static void write(std::ostream& os, bool b) { os << (b ? "T" : "F"); }
  static void write(std::ostream& os, std::int64_t i) { os << i; }
  static void write(std::ostream& os, double d) {
    os << std::setprecision(17) << d;
  }
  static void write(std::ostream& os, const std::string& s) { os << s; }
};

TEST(Recovery, FaultFreePlanCompletesInOneRound) {
  const TaskGraph g = workload(1);
  const Cluster c(8);
  const FaultPlan none(8);
  const RecoveryResult r = run_with_faults(g, c, none);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.kills, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.replans, 0u);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.executed.validate(g, CommModel(c)), "");
}

TEST(Recovery, DegradedReplanSurvivesPermanentFailures) {
  const TaskGraph g = workload(2);
  const Cluster c(8);
  const FaultPlan plan = plan_for(g, c, 0.25, false, 11);
  ASSERT_FALSE(plan.empty());

  RecoveryOptions opt;
  opt.policy = RecoveryPolicy::kDegradedReplan;
  const RecoveryResult r = run_with_faults(g, c, plan, opt);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.executed.validate(g, CommModel(c)), "");
  EXPECT_GE(r.kills, 1u);
  EXPECT_GE(r.replans, 1u);
  EXPECT_GE(r.masked.count(), 1u);
  EXPECT_GE(r.makespan, r.planned_makespan);

  // Nothing may have computed through a dead window: every placement on a
  // never-repaired processor finished by that processor's onset.
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const Placement& pl = r.executed.at(t);
    pl.procs.for_each([&](ProcId q) {
      const FaultEvent* e = plan.event_of(q);
      if (e != nullptr && e->repair_at == kNeverRepaired)
        EXPECT_LE(pl.finish, e->fail_at + 1e-9)
            << "task " << t << " ran on p" << q << " past its failure";
    });
  }
}

TEST(Recovery, RetryInPlaceRecoversOnRepairedProcessors) {
  const TaskGraph g = workload(2);
  const Cluster c(8);
  const FaultPlan plan = plan_for(g, c, 0.25, true, 11);

  RecoveryOptions opt;
  opt.policy = RecoveryPolicy::kRetryInPlace;
  const RecoveryResult r = run_with_faults(g, c, plan, opt);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.executed.validate(g, CommModel(c)), "");
  EXPECT_GE(r.kills, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_GT(r.backoff_seconds, 0.0);
  EXPECT_EQ(r.replans, 0u);       // this policy never replans
  EXPECT_EQ(r.masked.count(), 0u);  // and never masks
}

TEST(Recovery, RetryGivesUpWhenAProcessorNeverRepairs) {
  const TaskGraph g = workload(2);
  const Cluster c(8);
  const FaultPlan plan = plan_for(g, c, 0.25, false, 11);

  RecoveryOptions opt;
  opt.policy = RecoveryPolicy::kRetryInPlace;
  const RecoveryResult r = run_with_faults(g, c, plan, opt);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("never repairs"), std::string::npos) << r.error;
}

TEST(Recovery, RetryGivesUpWhenRetriesAreExhausted) {
  // One 10 s task on a one-processor cluster whose only processor bounces
  // three times, each interval timed to kill the next attempt (retry k
  // restarts at repair + backoff_base_s * backoff_factor^(k-1)).
  const TaskGraph g = test::chain(1, 10.0, 1, 0.0);
  const Cluster c(1);
  const FaultPlan plan(1, {{0, 5.0, 6.0}, {0, 12.0, 13.0}, {0, 20.0, 21.0}});

  RecoveryOptions opt;
  opt.policy = RecoveryPolicy::kRetryInPlace;
  opt.max_retries = 2;
  const RecoveryResult r = run_with_faults(g, c, plan, opt);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("max_retries"), std::string::npos) << r.error;
  EXPECT_EQ(r.kills, 3u);
  EXPECT_EQ(r.retries, 2u);
}

TEST(Recovery, RejectsMalformedOptions) {
  const TaskGraph g = test::chain(2, 5.0, 2, 0.0);
  const Cluster c(4);
  const FaultPlan plan(4, {{0, 1.0, 2.0}});

  auto expect_rejected = [&](RecoveryOptions opt, const char* needle) {
    try {
      run_with_faults(g, c, plan, opt);
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  RecoveryOptions opt;
  opt.max_retries = 0;
  expect_rejected(opt, "max_retries");

  opt = RecoveryOptions{};
  opt.backoff_base_s = -1.0;
  expect_rejected(opt, "backoff_base_s");

  opt = RecoveryOptions{};
  opt.backoff_factor = 0.0;
  expect_rejected(opt, "backoff_factor");

  opt = RecoveryOptions{};
  opt.min_procs = 5;  // cluster only has 4
  expect_rejected(opt, "min_procs");

  opt = RecoveryOptions{};
  opt.runtime_noise = 1.0;
  expect_rejected(opt, "runtime_noise");

  opt = RecoveryOptions{};
  opt.max_rounds = 0;
  expect_rejected(opt, "max_rounds");

  opt = RecoveryOptions{};
  opt.straggler_threshold = 0.5;  // must be 0 (off) or > 1
  expect_rejected(opt, "straggler_threshold");
}

TEST(Recovery, ReplanFailsStructurallyBelowMinimumWidth) {
  const TaskGraph g = test::chain(3, 5.0, 2, 0.0);
  const Cluster c(2);
  // Both processors die early and never come back.
  const FaultPlan plan(
      2, {{0, 1.0, kNeverRepaired}, {1, 2.0, kNeverRepaired}});

  RecoveryOptions opt;
  opt.policy = RecoveryPolicy::kDegradedReplan;
  const RecoveryResult r = run_with_faults(g, c, plan, opt);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("minimum width"), std::string::npos) << r.error;
  EXPECT_EQ(r.masked.count(), 2u);
}

TEST(Recovery, ReplayIsDeterministic) {
  const TaskGraph g = workload(3);
  const Cluster c(8);
  const FaultPlan plan = plan_for(g, c, 0.25, true, 5);

  auto once = [&](RecoveryPolicy policy, CollectingSink* sink,
                  obs::MetricsRegistry* met) {
    obs::ObsContext ctx{met, sink};
    RecoveryOptions opt;
    opt.policy = policy;
    opt.obs = &ctx;
    return run_with_faults(g, c, plan, opt);
  };

  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kDegradedReplan, RecoveryPolicy::kRetryInPlace}) {
    CollectingSink s1, s2;
    obs::MetricsRegistry m1, m2;
    const RecoveryResult a = once(policy, &s1, &m1);
    const RecoveryResult b = once(policy, &s2, &m2);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);  // bit-identical, not approximate
    EXPECT_EQ(a.kills, b.kills);
    EXPECT_EQ(a.rounds, b.rounds);
    ASSERT_EQ(s1.lines.size(), s2.lines.size());
    for (std::size_t i = 0; i < s1.lines.size(); ++i)
      ASSERT_EQ(s1.lines[i], s2.lines[i]) << "trace diverges at line " << i;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      EXPECT_EQ(a.executed.at(t).start, b.executed.at(t).start);
      EXPECT_EQ(a.executed.at(t).finish, b.executed.at(t).finish);
      EXPECT_EQ(a.executed.at(t).procs, b.executed.at(t).procs);
    }
  }
}

TEST(Recovery, AccountingReconcilesAcrossAllThreeBooks) {
  const TaskGraph g = workload(2);
  const Cluster c(8);
  const FaultPlan plan = plan_for(g, c, 0.25, false, 11);

  std::ostringstream jsonl;
  obs::MetricsRegistry met;
  obs::JsonlSink sink(jsonl);
  obs::ObsContext ctx{&met, &sink};
  RecoveryOptions opt;
  opt.policy = RecoveryPolicy::kDegradedReplan;
  opt.obs = &ctx;
  const RecoveryResult r = run_with_faults(g, c, plan, opt);
  ASSERT_TRUE(r.completed) << r.error;

  std::istringstream in(jsonl.str());
  const auto records = obs::read_trace(in);
  const auto digest = obs::summarize_trace(records, g.num_tasks());
  const obs::MetricsSnapshot snap = met.snapshot();

  // Counters, decision trace, and RecoveryResult are three independently
  // maintained books of the same run; they must agree exactly.
  EXPECT_EQ(snap.counter("fault.kills"), static_cast<double>(r.kills));
  EXPECT_EQ(digest.fault_kills, r.kills);
  EXPECT_EQ(snap.counter("fault.transfer_timeouts"),
            static_cast<double>(r.transfer_timeouts));
  EXPECT_EQ(digest.fault_transfer_timeouts, r.transfer_timeouts);
  EXPECT_NEAR(snap.counter("fault.wasted_proc_seconds"),
              r.wasted_proc_seconds, 1e-9);
  EXPECT_NEAR(digest.fault_wasted_s, r.wasted_proc_seconds, 1e-9);
  EXPECT_EQ(snap.counter("recovery.retries"),
            static_cast<double>(r.retries));
  EXPECT_EQ(digest.recovery_retries, r.retries);
  EXPECT_EQ(snap.counter("recovery.replans"),
            static_cast<double>(r.replans));
  EXPECT_EQ(digest.recovery_replans, r.replans);
  EXPECT_EQ(snap.counter("recovery.masked_procs"),
            static_cast<double>(r.masked.count()));
  EXPECT_EQ(snap.counter("recovery.rounds"),
            static_cast<double>(r.rounds));
  EXPECT_EQ(snap.counter("fault.injected"),
            static_cast<double>(plan.events().size()));
  // The trace's fault windows are exactly the announced failures.
  EXPECT_EQ(digest.fault_windows.size(),
            static_cast<std::size_t>(snap.counter("fault.procs_failed")));
  // The planner's books add up over the initial plan and every replan:
  // the LoCBS passes are the charged calls less one per round
  // (docs/observability.md).
  EXPECT_GT(r.replans, 0u);
  EXPECT_EQ(snap.counter("locbs.calls"),
            snap.counter("locmps.locbs_calls") -
                snap.counter("locmps.rounds"));
}

TEST(Recovery, JoinFaultPlanExposesSortedWindows) {
  const FaultPlan plan(4, {{3, 7.0, kNeverRepaired}, {1, 2.0, 5.0}});
  obs::ScheduleAnalysis a;
  join_fault_plan(a, plan);
  ASSERT_EQ(a.fault_windows.size(), 2u);
  EXPECT_EQ(a.fault_windows[0].proc, 1u);
  EXPECT_DOUBLE_EQ(a.fault_windows[0].fail_s, 2.0);
  EXPECT_DOUBLE_EQ(a.fault_windows[0].repair_s, 5.0);
  EXPECT_EQ(a.fault_windows[1].proc, 3u);
  EXPECT_DOUBLE_EQ(a.fault_windows[1].repair_s, -1.0);  // never repaired
}

}  // namespace
}  // namespace locmps
