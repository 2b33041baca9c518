/// Behaviour lock: a small corpus of plans pinned against a fixed,
/// committed past.
///
/// Each row is one plan — workload, processor count, scheme and options —
/// and its pinned outcome: a bit-exact schedule digest (FNV-1a over every
/// placement's busy_from/start/finish/procs, the digest perfbench uses),
/// the estimated makespan and the iteration count. The on/off oracles
/// elsewhere compare two paths of the same code; this suite compares the
/// code against numbers it produced before, so a refactor that moves every
/// path the same way still fails here.
///
/// The pins must never be regenerated to make a failure go away: a
/// mismatch means schedules changed. On a mismatch the test prints the
/// recomputed row in table syntax, so an intended change shows up in
/// review as a diff of this file.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "network/comm_model.hpp"
#include "schedule/metrics.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedulers/registry.hpp"
#include "util/rng.hpp"
#include "workloads/strassen.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

namespace locmps {
namespace {

/// One pinned plan. `options` is one of:
///  * ""                — SchedulerOptions{} defaults, no observability;
///  * "incremental=0"   — the from-scratch reference path;
///  * "metrics"         — a MetricsRegistry attached;
///  * "sink"            — an event sink attached (the final authoritative
///                        realization adds one LoCBS call to iterations);
///  * "plan_budget=8"   — SchedulerOptions::plan_budget = 8;
///  * "slack=1.25"      — SchedulerOptions::slack_factor = 1.25;
///  * "no_overlap"      — a cluster whose redistributions occupy the
///                        destination processors (the Fig 8b model, the
///                        one where a committed busy_from < start);
///  * "faults"          — run_with_faults under a fail-stop script with
///                        repairs; the row pins the realized execution,
///                        its makespan, and the replan count as iterations.
struct GoldenRow {
  const char* workload;
  std::size_t procs;
  const char* scheme;
  const char* options;
  std::uint64_t digest;
  double makespan;
  std::size_t iterations;
};

// The sink variant is pinned on strassen-512: CI already traces fig06
// against the committed bench/baselines/fig06_decision_trace.jsonl.
// clang-format off
constexpr GoldenRow kGolden[] = {
    {"fig06", 16, "loc-mps", "", 0xf6b908a5b513a213ull, 148.71534361742818, 5902},
    {"fig06", 16, "loc-mps-nbf", "", 0x018b06ec97c548b4ull, 151.87166226880262, 3571},
    {"fig06", 16, "loc-mps-noloc", "", 0x2029040861e8323dull, 147.46499865084479, 9493},
    {"fig06", 16, "icaslb", "", 0x82894bb25a71af56ull, 193.5092056241524, 2560},
    {"fig06", 16, "loc-mps", "incremental=0", 0xf6b908a5b513a213ull, 148.71534361742818, 5902},
    {"fig06", 16, "loc-mps", "metrics", 0xf6b908a5b513a213ull, 148.71534361742818, 5902},
    {"strassen-512", 16, "loc-mps", "", 0x4c62d831c987bd88ull, 0.01980419803764618, 337},
    {"strassen-512", 16, "loc-mps", "sink", 0x4c62d831c987bd88ull, 0.01980419803764618, 338},
    {"ccsd-t1-8-32", 16, "loc-mps", "", 0x9b77303f6efcf50cull, 0.0015598041904761903, 121},
    {"synthetic-1024", 64, "loc-mps", "plan_budget=8", 0x0836d7d3b0642d5bull, 1502.0833415026498, 9},
    {"fig06", 16, "loc-mps", "faults", 0x5785c557cc903c00ull, 223.10604306248842, 4},
    {"ccsd-t1-8-32", 16, "loc-mps", "no_overlap", 0xca8b50a54b2dfbddull, 0.0022104924444444449, 227},
    {"fig06", 16, "loc-mps", "slack=1.25", 0x1fbfd5c525358d16ull, 183.78327582338841, 2521},
    {"fig06", 1, "loc-mps", "", 0x0f746f9edd3b5584ull, 1642.492647668528, 1},
    {"synthetic-1", 16, "loc-mps", "", 0x4ce88df8b2d2942eull, 0.50913473795633357, 17},
};
// clang-format on

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Bit-exact digest of every placement: times and processor sets.
std::uint64_t digest(const Schedule& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    const Placement& p = s.at(t);
    h = fnv(h, bits(p.busy_from));
    h = fnv(h, bits(p.start));
    h = fnv(h, bits(p.finish));
    p.procs.for_each([&](ProcId q) { h = fnv(h, q); });
  }
  return h;
}

/// The row's graph and cluster.
struct Workload {
  TaskGraph g;
  Cluster cluster;
};

Workload make_workload(const std::string& name, std::size_t procs) {
  if (name == "fig06") {
    // The pinned provenance workload of CI and
    // bench/baselines/fig06_decision_trace.jsonl (locmps-inspect
    // --seed 20060901 --ccr 0.5).
    SyntheticParams p;
    p.ccr = 0.5;
    p.max_procs = 32;
    Rng rng(20060901);
    return {make_synthetic_dag(p, rng), Cluster(procs)};
  }
  if (name == "strassen-512") {
    StrassenParams sp;
    sp.n = 512;
    sp.max_procs = procs;
    return {make_strassen(sp), Cluster(procs)};
  }
  if (name == "ccsd-t1-8-32") {
    TCEParams tp;
    tp.occupied = 8;
    tp.virt = 32;
    tp.max_procs = procs;
    return {make_ccsd_t1(tp), Cluster(procs)};
  }
  if (name == "synthetic-1" || name == "synthetic-1024") {
    SyntheticParams p;
    p.min_tasks = p.max_tasks = name == "synthetic-1" ? 1 : 1024;
    p.ccr = 0.5;
    p.max_procs = procs;
    Rng rng(1024);
    return {make_synthetic_dag(p, rng), Cluster(procs)};
  }
  ADD_FAILURE() << "unknown golden workload " << name;
  return {TaskGraph{}, Cluster(procs)};
}

/// What a row pins.
struct Outcome {
  std::uint64_t digest = 0;
  double makespan = 0.0;
  std::size_t iterations = 0;
};

Outcome run_faults(const Workload& w) {
  const std::size_t P = w.cluster.processors;
  const double base = 2.0 * std::max(critical_path_lower_bound(w.g, P),
                                     area_lower_bound(w.g, P));
  FaultPlanParams prm;
  prm.fail_fraction = 0.25;
  prm.horizon_s = 0.6 * base;
  prm.repairs = true;
  prm.repair_delay_s = 0.5 * base;
  prm.seed = 7;
  const RecoveryResult r = run_with_faults(
      w.g, w.cluster, make_fault_plan(P, prm));
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_GT(r.replans, 0u) << "the fault script must force a replan";
  return {digest(r.executed), r.makespan, r.replans};
}

Outcome compute(const GoldenRow& row) {
  Workload w = make_workload(row.workload, row.procs);
  const std::string opt = row.options;
  if (opt == "faults") return run_faults(w);
  if (opt == "no_overlap") w.cluster.overlap_comm_compute = false;
  SchedulerOptions so;
  if (opt == "incremental=0") so.incremental = false;
  if (opt == "plan_budget=8") so.plan_budget = 8;
  if (opt == "slack=1.25") so.slack_factor = 1.25;
  SchedulerPtr sched = make_scheduler(row.scheme, so);
  obs::MetricsRegistry reg;
  obs::EventBuffer buf;
  obs::ObsContext ctx;
  if (opt == "metrics") ctx.metrics = &reg;
  if (opt == "sink") ctx.sink = &buf;
  if (ctx.metrics != nullptr || ctx.sink != nullptr)
    sched->attach_observability(&ctx);
  const SchedulerResult r = sched->schedule(w.g, w.cluster);
  EXPECT_TRUE(r.schedule.complete()) << row.workload;
  EXPECT_EQ(r.schedule.validate(w.g, CommModel(w.cluster)), "")
      << row.workload;
  return {digest(r.schedule), r.estimated_makespan, r.iterations};
}

std::string format_row(const GoldenRow& row, const Outcome& o) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %zu, \"%s\", \"%s\", 0x%016llxull, %.17g, %zu},",
                row.workload, row.procs, row.scheme, row.options,
                static_cast<unsigned long long>(o.digest), o.makespan,
                o.iterations);
  return buf;
}

/// gtest-safe name of a row: workload, scheme and options, with every
/// other character folded to '_'.
std::string row_name(const GoldenRow& row) {
  std::string name = std::string(row.workload) + "_P" +
                     std::to_string(row.procs) + "_" + row.scheme;
  if (row.options[0] != '\0') name += std::string("_") + row.options;
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

/// Names the row in gtest failure output instead of dumping its bytes.
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row_name(row); }

class Golden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(Golden, PlanMatchesPin) {
  const GoldenRow& row = GetParam();
  const Outcome o = compute(row);
  // Exact comparisons on purpose: the pins are bit-exact.
  EXPECT_TRUE(o.digest == row.digest && o.makespan == row.makespan &&
              o.iterations == row.iterations)
      << "drift; recomputed row:\n"
      << format_row(row, o);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Golden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return row_name(info.param);
    });

TEST(GoldenCorpus, VariantsShareTheirDefaultPin) {
  // Forcing the from-scratch path or attaching metrics or a sink must not
  // move a plan: such a row pins the digest and makespan of the same
  // workload's default row (a sink adds only the final authoritative
  // realization to iterations).
  std::size_t variants = 0;
  for (const GoldenRow& row : kGolden) {
    const std::string opt = row.options;
    if (opt != "incremental=0" && opt != "metrics" && opt != "sink") continue;
    const GoldenRow* base = nullptr;
    for (const GoldenRow& b : kGolden)
      if (std::string(b.workload) == row.workload && b.procs == row.procs &&
          std::string(b.scheme) == row.scheme && b.options[0] == '\0')
        base = &b;
    ASSERT_NE(base, nullptr) << row_name(row);
    EXPECT_EQ(row.digest, base->digest) << row_name(row);
    EXPECT_EQ(row.makespan, base->makespan) << row_name(row);
    EXPECT_EQ(row.iterations, base->iterations + (opt == "sink" ? 1 : 0))
        << row_name(row);
    ++variants;
  }
  EXPECT_EQ(variants, 3u);
}

}  // namespace
}  // namespace locmps
