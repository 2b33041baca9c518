/// Behaviour lock: a small corpus of plans pinned against a fixed,
/// committed past.
///
/// Each row is one plan — workload, processor count, scheme and options —
/// and its pinned outcome: a bit-exact schedule digest (FNV-1a over every
/// placement's busy_from/start/finish/procs, the digest perfbench uses),
/// the estimated makespan and the iteration count. The on/off oracles
/// elsewhere compare two paths of the same code; this suite compares the
/// code against numbers it produced before, so a refactor that moves every
/// path the same way still fails here. A second table (GoldenScan) pins
/// the hole scan's counters of metered runs the same way, and a third
/// (GoldenSearch) pins the LoC-MPS refinement search's trajectory: its
/// locmps.* events and counters.
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
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "network/comm_model.hpp"
#include "schedule/metrics.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedulers/loc_mps.hpp"
#include "schedulers/locbs.hpp"
#include "schedulers/registry.hpp"
#include "util/rng.hpp"
#include "workloads/strassen.hpp"
#include "workloads/structured.hpp"
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
///  * "plan_budget=N"   — SchedulerOptions::plan_budget = N;
///  * "slack=1.25"      — SchedulerOptions::slack_factor = 1.25;
///  * "no_overlap"      — a cluster whose redistributions occupy the
///                        destination processors (the Fig 8b model, the
///                        one where a committed busy_from < start);
///  * "faults"          — run_with_faults under a fail-stop script with
///                        repairs; the row pins the realized execution,
///                        its makespan, and the replan count as iterations;
///  * "marks_bind_lookahead=0" — LocMPSOptions::marks_bind_lookahead =
///                        false (the paper's text; the registry does not
///                        expose it, so the plan is built directly).
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
// against the committed bench/baselines/fig06_decision_trace.jsonl. The
// last two rows are unobserved searches: one whose look-ahead rounds
// mostly revert, and one whose call budget runs out mid-search.
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
    {"perfbench-50-ccr0", 16, "loc-mps", "", 0x7849e7b73b39317bull, 121.57653589690126, 3637},
    {"fig06", 16, "loc-mps", "plan_budget=250", 0x9de8ab4f996ec7bfull, 168.8953400384305, 251},
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

/// The generator seed of perfbench's graph \p stream: its corpus seed
/// 20060905 mixed with the stream by splitmix64 (planner_bench.cpp's mix).
std::uint64_t perfbench_seed(std::uint64_t stream) {
  std::uint64_t z = 20060905ull * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
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
  if (name == "fig06-ccr0" || name == "fig06-serial") {
    // The fig06 draw with all-zero volumes, or with every profile
    // tabulated for one processor only (pbest = 1 everywhere).
    SyntheticParams p;
    p.ccr = name == "fig06-ccr0" ? 0.0 : 0.5;
    p.max_procs = name == "fig06-serial" ? 1 : 32;
    Rng rng(20060901);
    return {make_synthetic_dag(p, rng), Cluster(procs)};
  }
  if (name == "pipeline-64") {
    StructuredParams sp;
    sp.max_procs = procs;
    Rng rng(64);
    return {make_pipeline(64, sp, rng), Cluster(procs)};
  }
  if (name == "perfbench-50-ccr0") {
    // perfbench's paper-suite graph at |V| = 50, CCR 0: a plan whose
    // look-ahead rounds mostly revert.
    SyntheticParams p;
    p.min_tasks = p.max_tasks = 50;
    p.ccr = 0.0;
    p.max_procs = 64;
    Rng rng(perfbench_seed(50));
    return {make_synthetic_dag(p, rng), Cluster(procs)};
  }
  if (name.starts_with("synthetic-")) {  // synthetic-<|V|>
    SyntheticParams p;
    p.min_tasks = p.max_tasks = std::stoul(name.substr(10));
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

RecoveryResult run_faults(const Workload& w, obs::ObsContext* ctx) {
  const std::size_t P = w.cluster.processors;
  const double base = 2.0 * std::max(critical_path_lower_bound(w.g, P),
                                     area_lower_bound(w.g, P));
  FaultPlanParams prm;
  prm.fail_fraction = 0.25;
  prm.horizon_s = 0.6 * base;
  prm.repairs = true;
  prm.repair_delay_s = 0.5 * base;
  prm.seed = 7;
  RecoveryOptions ro;
  ro.obs = ctx;
  RecoveryResult r = run_with_faults(w.g, w.cluster, make_fault_plan(P, prm),
                                     ro);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_GT(r.replans, 0u) << "the fault script must force a replan";
  return r;
}

/// Plans \p w with \p scheme under the scheduler options of \p opt, with
/// \p ctx attached when it is not null, and validates the plan.
SchedulerResult plan(const Workload& w, const std::string& scheme,
                     const std::string& opt, obs::ObsContext* ctx) {
  SchedulerOptions so;
  if (opt == "incremental=0") so.incremental = false;
  if (opt.starts_with("plan_budget="))
    so.plan_budget = std::stoul(opt.substr(12));
  if (opt == "slack=1.25") so.slack_factor = 1.25;
  SchedulerPtr sched = make_scheduler(scheme, so);
  if (opt == "marks_bind_lookahead=0") {
    LocMPSOptions lo;
    lo.marks_bind_lookahead = false;
    sched = std::make_unique<LocMPSScheduler>(lo);
  }
  if (ctx != nullptr) sched->attach_observability(ctx);
  SchedulerResult r = sched->schedule(w.g, w.cluster);
  EXPECT_TRUE(r.schedule.complete()) << scheme;
  EXPECT_EQ(r.schedule.validate(w.g, CommModel(w.cluster)), "") << scheme;
  return r;
}

Outcome compute(const GoldenRow& row) {
  Workload w = make_workload(row.workload, row.procs);
  const std::string opt = row.options;
  if (opt == "faults") {
    const RecoveryResult r = run_faults(w, nullptr);
    return {digest(r.executed), r.makespan, r.replans};
  }
  if (opt == "no_overlap") w.cluster.overlap_comm_compute = false;
  obs::MetricsRegistry reg;
  obs::EventBuffer buf;
  obs::ObsContext ctx;
  if (opt == "metrics") ctx.metrics = &reg;
  if (opt == "sink") ctx.sink = &buf;
  const bool observed = ctx.metrics != nullptr || ctx.sink != nullptr;
  const SchedulerResult r =
      plan(w, row.scheme, opt, observed ? &ctx : nullptr);
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

// ---------------------------------------------------------------------------
// The hole scan's telemetry
//
// A scan shortcut that keeps every winner can still change how the scan
// reports itself, and no plan digest shows that. These rows run plans and
// single passes metered and pin the locbs.* counters besides the digest:
// placements, probe instants (holes_scanned), scans that stopped on the
// finish bound (scan_cutoffs) and backfilled placements. The two passes
// place |V| = 8192 tasks with np = 1, on P = 64 and on P = 1, where the
// scan walks hundreds of probe instants per task.

/// One metered run and its pinned outcome. `scheme` is a registry name
/// (`options` as in GoldenRow), or "locbs" for one from-scratch LoCBS pass
/// with np = 1 for every task and default options.
struct ScanRow {
  const char* workload;
  std::size_t procs;
  const char* scheme;
  const char* options;
  std::uint64_t digest;
  double tasks_placed;
  double holes_scanned;
  double scan_cutoffs;
  double backfill_hits;
};

// clang-format off
constexpr ScanRow kScan[] = {
    {"synthetic-1024", 64, "loc-mps", "plan_budget=8", 0x0836d7d3b0642d5bull, 8192, 57939, 7995, 7995},
    {"ccsd-t1-8-32", 16, "loc-mps", "no_overlap", 0xca8b50a54b2dfbddull, 3672, 4499, 2585, 2587},
    {"fig06", 16, "loc-mps", "slack=1.25", 0x1fbfd5c525358d16ull, 120050, 416312, 106246, 103582},
    {"fig06", 16, "loc-mps-noloc", "", 0x2029040861e8323dull, 452050, 2260643, 360808, 341693},
    {"fig06", 16, "icaslb", "", 0x82894bb25a71af56ull, 121850, 479533, 98986, 98986},
    {"synthetic-8192", 64, "locbs", "", 0x6f6023869de8ec30ull, 8192, 7280739, 8159, 8159},
    {"synthetic-8192", 1, "locbs", "", 0x181d19b236e6fcecull, 8192, 9427128, 0, 0},
};
// clang-format on

ScanRow compute_scan(const ScanRow& row) {
  Workload w = make_workload(row.workload, row.procs);
  const std::string opt = row.options;
  if (opt == "no_overlap") w.cluster.overlap_comm_compute = false;
  obs::MetricsRegistry reg;
  obs::ObsContext ctx;
  ctx.metrics = &reg;
  ScanRow got = row;
  if (std::string(row.scheme) == "locbs") {
    const CommModel comm(w.cluster);
    const LocBSResult r =
        locbs(w.g, Allocation(w.g.num_tasks(), 1), comm, {}, nullptr, &ctx);
    EXPECT_EQ(r.schedule.validate(w.g, comm), "") << row.workload;
    got.digest = digest(r.schedule);
  } else {
    got.digest = digest(plan(w, row.scheme, opt, &ctx).schedule);
  }
  const obs::MetricsSnapshot c = reg.snapshot();
  got.tasks_placed = c.counter("locbs.tasks_placed");
  got.holes_scanned = c.counter("locbs.holes_scanned");
  got.scan_cutoffs = c.counter("locbs.scan_cutoffs");
  got.backfill_hits = c.counter("locbs.backfill_hits");
  return got;
}

std::string format_scan_row(const ScanRow& row) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %zu, \"%s\", \"%s\", 0x%016llxull, %.17g, "
                "%.17g, %.17g, %.17g},",
                row.workload, row.procs, row.scheme, row.options,
                static_cast<unsigned long long>(row.digest), row.tasks_placed,
                row.holes_scanned, row.scan_cutoffs, row.backfill_hits);
  return buf;
}

void PrintTo(const ScanRow& row, std::ostream* os) {
  *os << row_name({row.workload, row.procs, row.scheme, row.options, 0, 0, 0});
}

class GoldenScan : public ::testing::TestWithParam<ScanRow> {};

TEST_P(GoldenScan, CountersMatchPin) {
  const ScanRow& row = GetParam();
  const ScanRow got = compute_scan(row);
  // Exact comparisons on purpose: the pins are bit-exact.
  EXPECT_TRUE(got.digest == row.digest &&
              got.tasks_placed == row.tasks_placed &&
              got.holes_scanned == row.holes_scanned &&
              got.scan_cutoffs == row.scan_cutoffs &&
              got.backfill_hits == row.backfill_hits)
      << "drift; recomputed row:\n"
      << format_scan_row(got);
}

INSTANTIATE_TEST_SUITE_P(
    Telemetry, GoldenScan, ::testing::ValuesIn(kScan),
    [](const ::testing::TestParamInfo<ScanRow>& info) {
      const ScanRow& r = info.param;
      return row_name({r.workload, r.procs, r.scheme, r.options, 0, 0, 0});
    });

// ---------------------------------------------------------------------------
// The refinement search's trajectory
//
// Golden pins only where a search ends and GoldenScan only how LoCBS
// scanned, so a restructure of the LoC-MPS loop that reorders or drops a
// refinement, a round or a counter but keeps the plan passes both. These
// rows plan with a registry and an event buffer attached and pin every
// locmps.* event (name and fields in order, doubles by their bits), their
// number, and the search's counters. The last five rows are degenerate
// inputs: P = 1, |V| = 1, a 64-task chain, all-zero volumes (the edge
// branch never fires) and pbest = 1 everywhere.

/// One traced plan and its pinned trajectory (`options` as in GoldenRow).
struct SearchRow {
  const char* workload;
  std::size_t procs;
  const char* scheme;
  const char* options;
  std::uint64_t events_digest;
  std::size_t events;
  double rounds;
  double commits;
  double reverts;
  double marked_tasks;
  double marked_edges;
  double widened_tasks;
  double widened_edges;
  double locbs_calls;
};

// clang-format off
constexpr SearchRow kSearch[] = {
    {"fig06", 16, "loc-mps", "", 0xcffea1d78277de9cull, 6185, 281, 37, 244, 235, 9, 5603, 17, 5903},
    {"fig06", 16, "icaslb", "", 0x2f9da865b2607cb8ull, 2685, 123, 22, 101, 101, 0, 2436, 0, 2561},
    {"ccsd-t1-8-32", 16, "loc-mps", "no_overlap", 0x4b437e2a1339fe70ull, 240, 11, 2, 9, 6, 3, 35, 180, 228},
    {"strassen-512", 16, "loc-mps", "", 0xb1d4e2a8a7471cfdull, 355, 16, 8, 8, 6, 2, 104, 216, 338},
    {"synthetic-1024", 64, "loc-mps", "plan_budget=8", 0x7d8d4c37d7099d89ull, 11, 1, 1, 0, 0, 0, 7, 0, 10},
    {"fig06", 16, "loc-mps", "faults", 0x3951f8ddf03191c3ull, 10927, 496, 78, 418, 382, 36, 9869, 51, 10426},
    {"fig06", 16, "loc-mps", "marks_bind_lookahead=0", 0x1ce940e2c369abc0ull, 7571, 344, 43, 301, 293, 8, 6872, 8, 7226},
    {"fig06", 1, "loc-mps", "", 0xc4fbf131a518aac9ull, 3, 0, 0, 0, 0, 0, 0, 0, 2},
    {"synthetic-1", 16, "loc-mps", "", 0xdb937a5c6048a7e4ull, 20, 1, 1, 0, 0, 0, 15, 0, 18},
    {"pipeline-64", 16, "loc-mps", "", 0x8f60fc574a14d1b8ull, 1069, 49, 49, 0, 0, 0, 915, 53, 1019},
    {"fig06-ccr0", 16, "loc-mps", "", 0x84af0fe8f8a9c021ull, 2083, 95, 18, 77, 77, 0, 1890, 0, 1987},
    {"fig06-serial", 16, "loc-mps", "", 0x5fe9fa8b2ed8c85cull, 311, 14, 5, 9, 0, 9, 0, 280, 296},
};
// clang-format on

std::uint64_t fnv_bytes(std::uint64_t h, std::string_view s) {
  h = fnv(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Digest of one event: its name, then every field's key, kind and value
/// in order (a double by its bits).
std::uint64_t digest(std::uint64_t h, const obs::Event& e) {
  h = fnv_bytes(h, e.name());
  for (const auto& [key, value] : e.fields()) {
    h = fnv_bytes(h, key);
    h = fnv(h, value.index());
    std::visit(
        [&](const auto& v) {
          using V = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<V, std::string>)
            h = fnv_bytes(h, v);
          else if constexpr (std::is_same_v<V, double>)
            h = fnv(h, bits(v));
          else
            h = fnv(h, static_cast<std::uint64_t>(v));
        },
        value);
  }
  return h;
}

SearchRow compute_search(const SearchRow& row) {
  Workload w = make_workload(row.workload, row.procs);
  const std::string opt = row.options;
  if (opt == "no_overlap") w.cluster.overlap_comm_compute = false;
  obs::MetricsRegistry reg;
  obs::EventBuffer buf;
  obs::ObsContext ctx;
  ctx.metrics = &reg;
  ctx.sink = &buf;
  if (opt == "faults")
    run_faults(w, &ctx);
  else
    plan(w, row.scheme, opt, &ctx);
  EXPECT_EQ(buf.dropped(), 0u) << "the buffer must hold the whole trace";
  SearchRow got = row;
  got.events_digest = 0xcbf29ce484222325ull;
  got.events = 0;
  for (const obs::Event& e : buf.events()) {
    if (!e.name().starts_with("locmps.")) continue;
    got.events_digest = digest(got.events_digest, e);
    ++got.events;
  }
  const obs::MetricsSnapshot c = reg.snapshot();
  got.rounds = c.counter("locmps.rounds");
  got.commits = c.counter("locmps.commits");
  got.reverts = c.counter("locmps.reverts");
  got.marked_tasks = c.counter("locmps.marked_tasks");
  got.marked_edges = c.counter("locmps.marked_edges");
  got.widened_tasks = c.counter("locmps.widened_tasks");
  got.widened_edges = c.counter("locmps.widened_edges");
  got.locbs_calls = c.counter("locmps.locbs_calls");
  return got;
}

std::string format_search_row(const SearchRow& row) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %zu, \"%s\", \"%s\", 0x%016llxull, %zu, %.17g, "
                "%.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g},",
                row.workload, row.procs, row.scheme, row.options,
                static_cast<unsigned long long>(row.events_digest), row.events,
                row.rounds, row.commits, row.reverts, row.marked_tasks,
                row.marked_edges, row.widened_tasks, row.widened_edges,
                row.locbs_calls);
  return buf;
}

void PrintTo(const SearchRow& row, std::ostream* os) {
  *os << row_name({row.workload, row.procs, row.scheme, row.options, 0, 0, 0});
}

class GoldenSearch : public ::testing::TestWithParam<SearchRow> {};

TEST_P(GoldenSearch, TrajectoryMatchesPin) {
  const SearchRow& row = GetParam();
  const SearchRow got = compute_search(row);
  // Exact comparisons on purpose: the pins are bit-exact.
  EXPECT_TRUE(got.events_digest == row.events_digest &&
              got.events == row.events && got.rounds == row.rounds &&
              got.commits == row.commits && got.reverts == row.reverts &&
              got.marked_tasks == row.marked_tasks &&
              got.marked_edges == row.marked_edges &&
              got.widened_tasks == row.widened_tasks &&
              got.widened_edges == row.widened_edges &&
              got.locbs_calls == row.locbs_calls)
      << "drift; recomputed row:\n"
      << format_search_row(got);
}

INSTANTIATE_TEST_SUITE_P(
    Trajectory, GoldenSearch, ::testing::ValuesIn(kSearch),
    [](const ::testing::TestParamInfo<SearchRow>& info) {
      const SearchRow& r = info.param;
      return row_name({r.workload, r.procs, r.scheme, r.options, 0, 0, 0});
    });

}  // namespace
}  // namespace locmps
