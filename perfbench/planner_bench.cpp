/// \file planner_bench.cpp
/// The planner benchmark driver (perfbench/README.md describes the
/// workloads and metrics; perfbench/run.py builds and runs this binary).
///
///   planner_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--trace-out <path>]
///
/// Every call goes through the library's public, unmetered API at its
/// defaults (SchedulerOptions{}: one thread, incremental replanning on).
/// The binary prints one JSON object of raw samples as the last line of
/// stdout; run.py turns it into the named metrics.
///
/// End-to-end run (--trace 0): set-up is timed in a short batch before
/// every round, so that its fastest repetition is steady although the
/// host's slow spells outlast a batch. Whole rounds over the workload's ops
/// run until --seconds have passed and the fastest half of every op's
/// repetitions holds at least kMinOps samples. The workloads plan a fixed
/// graph corpus and --seed draws the op order of each round, because
/// LoC-MPS plan time over random DAGs is too heavy-tailed for run-to-run
/// figures to be steady. Every op's output is checked (validate, full
/// simulation, a schedule digest that must repeat in every round);
/// failures are counted, never thrown. A fixed reference kernel, the
/// benchmark's own code, is timed before every op and every set-up batch;
/// run.py scales the end-to-end times by it to one host speed, because the
/// shared host's speed shifts for seconds to minutes at a time.
///
/// Traced run (--trace 1): rounds alternate untraced and traced, so the
/// tracer's own cost is measured, then one probe per layer times the
/// layer's calls inside spans and reads the library's counters through
/// attach_observability / ObsContext. A layer the workload never calls is
/// probed on one small synthetic "probe item" instead, so that every
/// traced run reports every per-layer metric.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/locmps.hpp"
#include "faults/recovery.hpp"
#include "faults/robustness.hpp"
#include "obs/analysis.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "trace.hpp"

using namespace locmps;
using perfbench::Tracer;

namespace {

constexpr double kMyrinetBps = 2e9 / 8.0;
// The planning workloads' graphs come from this fixed generator seed (the
// repository's bench/ convention), so every run plans the same corpus.
constexpr std::uint64_t kCorpusSeed = 20060905;
constexpr double kSetupBatchS = 0.05;         // a batch of timed set-ups
constexpr std::size_t kSetupBatchReps = 100;  // lasts this long or this many
constexpr std::size_t kMinOps = 40;       // >= 10 samples beyond p75
constexpr double kMaxMeasureS = 120.0;    // hard stop well inside 180 s
constexpr double kMinPassS = 0.02;        // repeat short passes to this
constexpr std::size_t kOverheadReps = 3;  // plans per mode and item
const std::vector<std::string> kBaselines = {"icaslb", "cpr", "cpa", "task",
                                             "data"};

// ---------------------------------------------------------------------------
// Inputs.

/// One op input: a graph on a cluster, plus what the workload attaches.
struct Item {
  Item(std::string l, TaskGraph graph, Cluster c, std::size_t budget = 0)
      : label(std::move(l)), g(std::move(graph)), cluster(c),
        plan_budget(budget) {}

  std::string label;
  TaskGraph g;
  Cluster cluster;
  std::size_t plan_budget = 0;  ///< SchedulerOptions::plan_budget
  FaultPlan faults;             ///< fault-replan: the failure script
};

struct Workload {
  std::vector<Item> items;
  double gen_s = 0.0;  ///< graph generation share of set-up
};

/// splitmix64: derives independent seeds from (run seed, stream).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TaskGraph synthetic(std::size_t tasks_lo, std::size_t tasks_hi, double ccr,
                    std::size_t max_procs, std::uint64_t seed) {
  SyntheticParams p;
  p.min_tasks = tasks_lo;
  p.max_tasks = tasks_hi;
  p.ccr = ccr;
  p.max_procs = max_procs;
  Rng rng(seed);
  return make_synthetic_dag(p, rng);
}

/// Fail-stop script scaled to the graph: a quarter of the cluster fails
/// within 0.6 x base and is repaired 0.5 x base later, where base is twice
/// the makespan lower bound (about the planned makespan, without planning).
FaultPlan fault_plan_for(const TaskGraph& g, const Cluster& c,
                         std::uint64_t seed) {
  const double base =
      2.0 * std::max(critical_path_lower_bound(g, c.processors),
                     area_lower_bound(g, c.processors));
  FaultPlanParams prm;
  prm.fail_fraction = 0.25;
  prm.horizon_s = 0.6 * base;
  prm.repairs = true;
  prm.repair_delay_s = 0.5 * base;
  prm.seed = seed;
  return make_fault_plan(c.processors, prm);
}

/// Synthetic DAGs with |V| 10-50 at CCR {0, 0.5, 1} on P = 16, plus
/// CCSD-T1 (o=48, v=192) and Strassen 4096 on P = 16 and 64.
Workload setup_paper_suite(Tracer& tr) {
  Workload w;
  std::vector<std::pair<std::string, TaskGraph>> graphs;
  {
    Tracer::Scope s(tr, "workloads.gen");
    Stopwatch sw;
    const double ccrs[] = {0.0, 0.5, 1.0};
    for (std::size_t c = 0; c < 3; ++c)
      for (std::size_t n = 10; n <= 50; n += 10)
        graphs.emplace_back(
            "synthetic/ccr=" + std::to_string(ccrs[c]).substr(0, 3) +
                "/V=" + std::to_string(n),
            synthetic(n, n, ccrs[c], 64, mix(kCorpusSeed, 1000 * c + n)));
    TCEParams tp;
    tp.occupied = 48;
    tp.virt = 192;
    tp.max_procs = 64;
    graphs.emplace_back("ccsd-t1", make_ccsd_t1(tp));
    StrassenParams sp;
    sp.n = 4096;
    sp.max_procs = 64;
    graphs.emplace_back("strassen-4096", make_strassen(sp));
    w.gen_s = sw.seconds();
  }
  for (const std::size_t P : {16, 64})
    for (const auto& [label, g] : graphs) {
      const bool app = label.rfind("synthetic", 0) != 0;
      if (!app && P != 16) continue;
      w.items.emplace_back(label + "/P=" + std::to_string(P), g,
                           app ? Cluster(P, kMyrinetBps) : Cluster(P));
    }
  return w;
}

/// Synthetic DAGs with |V| in {1024, 2048}, degree 4, CCR 0.5, P = 64,
/// planned under a small fixed refinement budget.
Workload setup_large_dag(Tracer& tr) {
  Workload w;
  Tracer::Scope s(tr, "workloads.gen");
  Stopwatch sw;
  const std::size_t sizes[] = {1024, 1024, 2048, 2048};
  for (std::size_t k = 0; k < 4; ++k)
    w.items.emplace_back(
        "synthetic/V=" + std::to_string(sizes[k]) + "#" + std::to_string(k),
        synthetic(sizes[k], sizes[k], 0.5, 64, mix(kCorpusSeed, 100 + k)),
        Cluster(64), 8);
  w.gen_s = sw.seconds();
  return w;
}

/// Synthetic DAGs with |V| 10-30 at P = 16, each under its own fail-stop
/// script with repairs.
Workload setup_fault_replan(Tracer& tr) {
  Workload w;
  Tracer::Scope s(tr, "workloads.gen");
  Stopwatch sw;
  for (std::size_t k = 0; k < 20; ++k) {
    const std::size_t n = 10 + 5 * (k % 5);
    Item& it = w.items.emplace_back(
        "synthetic/V=" + std::to_string(n) + "#" + std::to_string(k),
        synthetic(n, n, 0.5, 16, mix(kCorpusSeed, 200 + k)), Cluster(16));
    it.faults = fault_plan_for(it.g, it.cluster, mix(kCorpusSeed, 300 + k));
  }
  w.gen_s = sw.seconds();
  return w;
}

/// A small synthetic item (|V| = 50, CCR 0.5, P = 16) for probing the
/// layers a workload never calls.
Item probe_item() {
  Item it("probe/V=50", synthetic(50, 50, 0.5, 16, mix(kCorpusSeed, 900)),
          Cluster(16));
  it.faults = fault_plan_for(it.g, it.cluster, mix(kCorpusSeed, 901));
  return it;
}

// ---------------------------------------------------------------------------
// Host speed reference.

/// A fixed piece of work timed between the ops so that run.py can scale
/// every time to one host speed: a moldable list scheduler over a 256-task
/// random DAG on 32 processors, in the benchmark's own code. It allocates
/// nothing and calls nothing in the library, so no library change (the
/// library's operator new included) moves it. Every call does the same
/// work; the result is a checksum of the finish times.
std::uint64_t reference_kernel(std::uint64_t seed) {
  constexpr int kN = 256, kP = 32, kDeg = 3, kReach = 24;
  std::uint64_t x = mix(seed, 0);
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::array<std::array<int, kDeg>, kN> succ{};
  std::array<int, kN> nsucc{}, order{};
  std::array<double, kN> work{}, level{}, ready{};
  for (int v = 0; v < kN; ++v) {
    work[v] = 1.0 + static_cast<double>(rnd() % 1000) / 100.0;
    for (int k = 0; k < kDeg && v + 1 < kN; ++k) {
      const int u =
          v + 1 + static_cast<int>(rnd() % std::min(kN - v - 1, kReach));
      const auto end = succ[v].begin() + nsucc[v];
      if (std::find(succ[v].begin(), end, u) == end) succ[v][nsucc[v]++] = u;
    }
  }
  for (int v = kN - 1; v >= 0; --v) {
    double m = 0.0;
    for (int k = 0; k < nsucc[v]; ++k)
      m = std::max(m, level[succ[v][k]] + 0.5);
    level[v] = work[v] + m;
    order[v] = v;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return level[a] > level[b]; });
  // Per processor, its busy intervals sorted by start.
  std::array<std::array<std::pair<double, double>, kN>, kP> busy{};
  std::array<int, kP> nbusy{};
  const auto earliest = [&](int p, double s, double d) {
    for (int i = 0; i < nbusy[p]; ++i)
      if (s + d > busy[p][i].first && s < busy[p][i].second)
        s = busy[p][i].second;
    return s;
  };
  const auto duration = [&](int v, int w) {
    return work[v] / (w * (1.0 - 0.03 * (w - 1)));
  };
  std::array<std::pair<double, int>, kP> avail{};
  std::uint64_t h = 0;
  for (const int v : order) {
    double finish = std::numeric_limits<double>::infinity();
    int width = 1;
    for (int w = 1; w <= kP; w *= 2) {
      for (int p = 0; p < kP; ++p)
        avail[p] = {earliest(p, ready[v], duration(v, w)), p};
      std::sort(avail.begin(), avail.end());
      if (avail[w - 1].first + duration(v, w) < finish) {
        finish = avail[w - 1].first + duration(v, w);
        width = w;
      }
    }
    for (int p = 0; p < kP; ++p)
      avail[p] = {earliest(p, ready[v], duration(v, width)), p};
    std::sort(avail.begin(), avail.end());
    const double start = finish - duration(v, width);
    for (int i = 0; i < width; ++i) {
      auto& b = busy[avail[i].second];
      int j = nbusy[avail[i].second]++;
      for (; j > 0 && b[j - 1].first > start; --j) b[j] = b[j - 1];
      b[j] = {start, finish};
    }
    for (int k = 0; k < nsucc[v]; ++k)
      ready[succ[v][k]] = std::max(ready[succ[v][k]], finish + 0.5);
    h = h * 0x100000001b3ull + static_cast<std::uint64_t>(finish * 1024.0);
  }
  return h;
}

/// Times one reference_kernel call into \p out. The seed and the checksum
/// pass through volatiles, so the call is neither folded nor dropped.
void time_reference(std::vector<double>& out) {
  static volatile std::uint64_t seed = 1, sink = 0;
  Stopwatch sw;
  sink = sink ^ reference_kernel(seed);
  out.push_back(sw.seconds());
}

// ---------------------------------------------------------------------------
// Ops and their checks.

/// Outcome of one op.
struct OpResult {
  double op_s = 0.0;       ///< latency of the workload's top-level call
  double timed_s = 0.0;    ///< every timed call (op + companions)
  double ratio = 0.0;      ///< realized makespan / lower bound
  std::uint64_t digest = 0;
  std::string error;       ///< empty when every check passed
  Schedule final;          ///< the schedule the op produced
};

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

double lower_bound(const Item& it) {
  const std::size_t P = it.cluster.processors;
  return std::max(critical_path_lower_bound(it.g, P),
                  area_lower_bound(it.g, P));
}

/// Validates \p s and replays it; returns the first problem, or "".
std::string check(const Item& it, const Schedule& s, bool locality,
                  Tracer& tr, double* realized = nullptr) {
  const CommModel comm(it.cluster);
  if (!s.complete()) return "incomplete schedule";
  std::string bad;
  {
    Tracer::Scope sp(tr, "schedule.validate");
    bad = s.validate(it.g, comm);
  }
  if (!bad.empty()) return "validate: " + bad;
  SimOptions so;
  so.locality_volumes = locality;
  SimResult r;
  {
    Tracer::Scope sp(tr, "schedule.sim");
    r = simulate_execution(it.g, s, comm, so);
  }
  if (!r.clean() || !r.executed.complete())
    return "simulation left tasks unexecuted";
  if (realized != nullptr) *realized = r.makespan;
  return {};
}

/// One LoC-MPS plan (paper-suite also plans the five baselines, which
/// count in timed_s but not in op_s).
OpResult plan_op(const Item& it, bool baselines, Tracer& tr) {
  OpResult r;
  SchedulerOptions so;
  so.plan_budget = it.plan_budget;
  SchedulerResult res;
  {
    Tracer::Scope sp(tr, "schedulers.loc_mps");
    Stopwatch sw;
    res = make_scheduler("loc-mps", so)->schedule(it.g, it.cluster);
    r.op_s = sw.seconds();
  }
  r.timed_s = r.op_s;
  double realized = 0.0;
  r.error = check(it, res.schedule, true, tr, &realized);
  r.ratio = realized / lower_bound(it);
  r.digest = digest(res.schedule);
  r.final = std::move(res.schedule);
  if (!baselines) return r;
  for (const std::string& name : kBaselines) {
    SchedulerResult b;
    {
      Tracer::Scope sp(tr, "schedulers.baselines");
      Stopwatch sw;
      b = make_scheduler(name, so)->schedule(it.g, it.cluster);
      r.timed_s += sw.seconds();
    }
    const std::string bad =
        check(it, b.schedule, scheme_exploits_locality(name), tr);
    if (r.error.empty() && !bad.empty()) r.error = name + ": " + bad;
    r.digest = fnv(r.digest, digest(b.schedule));
  }
  return r;
}

/// One fault-tolerant execution with degraded-cluster replanning.
OpResult fault_op(const Item& it, Tracer& tr) {
  OpResult r;
  RecoveryResult res;
  {
    Tracer::Scope sp(tr, "faults.run_with_faults");
    Stopwatch sw;
    res = run_with_faults(it.g, it.cluster, it.faults);
    r.op_s = r.timed_s = sw.seconds();
  }
  const CommModel comm(it.cluster);
  if (!res.completed) {
    r.error = "run_with_faults: " + res.error;
  } else if (!res.executed.complete()) {
    r.error = "run_with_faults left tasks unexecuted";
  } else {
    Tracer::Scope sp(tr, "schedule.validate");
    const std::string bad = res.executed.validate(it.g, comm);
    if (!bad.empty()) r.error = "validate: " + bad;
  }
  r.ratio = res.makespan / lower_bound(it);
  r.digest = fnv(digest(res.executed), res.replans);
  r.final = std::move(res.executed);
  return r;
}

/// Replays \p s: a 32-member robustness ensemble, then one noisy
/// single-port execution that is analyzed and rendered. Throws when the
/// replay is incomplete.
struct Replay {
  double ensemble_s = 0.0;
  std::size_t samples = 0;
  std::size_t report_bytes = 0;
};

Replay replay(const Item& it, const Schedule& s, std::uint64_t seed,
              Tracer& tr) {
  Replay out;
  const CommModel comm(it.cluster);
  const double nominal = s.makespan();
  RobustnessOptions ro;
  ro.perturb.horizon_s = nominal;
  ro.perturb.slow_duration_s = 0.1 * nominal;
  ro.perturb.link_windows = 2;
  ro.perturb.link_duration_s = 0.05 * nominal;
  ro.perturb.task_noise = 0.1;
  ro.perturb.seed = seed;
  SimOptions so;
  so.runtime_noise = 0.1;
  so.single_port = true;
  so.seed = seed;
  Stopwatch sw;
  RobustnessReport rep;
  {
    Tracer::Scope sp(tr, "faults.robust");
    rep = score_robustness(it.g, s, comm, ro);
  }
  out.ensemble_s = sw.seconds();
  out.samples = rep.samples;
  SimResult executed;
  {
    Tracer::Scope sp(tr, "schedule.sim");
    executed = simulate_execution(it.g, s, comm, so);
  }
  obs::ScheduleAnalysis a;
  {
    Tracer::Scope sp(tr, "obs.analyze");
    a = obs::analyze_schedule(it.g, executed.executed, comm);
  }
  join_robustness(a, rep);
  {
    Tracer::Scope sp(tr, "obs.report");
    out.report_bytes = obs::html_report(it.g, executed.executed, a).size();
  }
  if (!executed.clean() || !executed.executed.complete() ||
      rep.samples != ro.samples || out.report_bytes == 0)
    throw std::runtime_error(it.label + ": incomplete replay or report");
  return out;
}

// ---------------------------------------------------------------------------
// Rounds.

struct Round {
  double timed_s = 0.0;
  std::vector<OpResult> ops;  ///< by item index
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

/// Runs every item's op once, in an order drawn from \p order_seed, and
/// times the reference kernel into \p ref_s before each op.
Round run_round(const std::string& wl, const Workload& w,
                std::uint64_t order_seed, Tracer& tr,
                std::vector<double>& ref_s) {
  std::vector<std::size_t> order(w.items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(order_seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  Round rd;
  rd.ops.resize(w.items.size());
  Tracer::Scope s(tr, "round");
  for (const std::size_t i : order) {
    const Item& it = w.items[i];
    time_reference(ref_s);
    OpResult r;
    try {
      r = wl == "fault-replan" ? fault_op(it, tr)
                               : plan_op(it, wl == "paper-suite", tr);
    } catch (const std::exception& e) {
      r.error = std::string("threw: ") + e.what();
    }
    if (r.error.empty() && !(r.ratio >= 1.0 - 1e-9))
      r.error = "makespan below its lower bound";
    if (!r.error.empty()) r.error = it.label + ": " + r.error;
    rd.timed_s += r.timed_s;
    rd.ops[i] = std::move(r);
  }
  for (const OpResult& r : rd.ops) rd.digest = fnv(rd.digest, r.digest);
  return rd;
}

Workload setup(const std::string& wl, Tracer& tr) {
  Tracer::Scope s(tr, "workloads.setup");
  if (wl == "paper-suite") return setup_paper_suite(tr);
  if (wl == "large-dag") return setup_large_dag(tr);
  if (wl == "fault-replan") return setup_fault_replan(tr);
  throw std::invalid_argument("unknown workload '" + wl + "'");
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only). Each fills named per-layer values.

using Layers = std::map<std::string, double>;

Allocation allocation_of(const Schedule& s) {
  Allocation np(s.num_tasks());
  for (TaskId t = 0; t < np.size(); ++t) np[t] = s.at(t).np();
  return np;
}

/// From-scratch LoCBS passes on each op's final allocation: pass time
/// (short passes repeated to kMinPassS), the pass's counters, its
/// critical path, and the graph's concurrency analysis.
void probe_locbs(const std::vector<const Item*>& items,
                 const std::vector<const Schedule*>& finals, Tracer& tr,
                 Layers& out, std::vector<std::pair<double, double>>& points) {
  obs::MetricsRegistry reg;
  double pass_total = 0.0, tasks_total = 0.0, cp_total = 0.0,
         conc_total = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = *items[i];
    const Allocation np = allocation_of(*finals[i]);
    const CommModel comm(it.cluster);
    std::size_t reps = 0;
    std::optional<LocBSResult> res;
    Stopwatch sw;
    {
      Tracer::Scope sp(tr, "schedulers.locbs.pass");
      do {
        res.emplace(locbs(it.g, np, comm));
        ++reps;
      } while (sw.seconds() < kMinPassS);
    }
    const double pass_s = sw.seconds() / static_cast<double>(reps);
    points.emplace_back(static_cast<double>(it.g.num_tasks()), pass_s);
    pass_total += pass_s;
    tasks_total += static_cast<double>(it.g.num_tasks());

    obs::ObsContext ctx{&reg, nullptr, nullptr};
    CommModel counted(it.cluster);
    counted.count_evals_into(reg.cell_ptr("comm.cost_evals"));
    (void)locbs(it.g, np, counted, {}, nullptr, &ctx);

    // A copy with one weight rewritten drops the memoized critical path,
    // so the timed call recomputes it.
    ScheduleDag dag = res->dag;
    dag.set_vertex_time(0, dag.vertex_time(0));
    Stopwatch cw;
    {
      Tracer::Scope sp(tr, "schedule.critical_path");
      (void)dag.critical_path();
    }
    cp_total += cw.seconds();
    Stopwatch gw;
    {
      Tracer::Scope sp(tr, "graph.concurrency");
      (void)ConcurrencyAnalysis(it.g);
    }
    conc_total += gw.seconds();
  }
  const double n = static_cast<double>(items.size());
  const double placed = reg.value("locbs.tasks_placed");
  out["schedulers.locbs.pass_s"] = pass_total / n;
  out["schedulers.locbs.us_per_task"] = 1e6 * pass_total / tasks_total;
  out["schedulers.locbs.holes_per_task"] =
      reg.value("locbs.holes_scanned") / placed;
  out["schedulers.locbs.backfill_frac"] =
      reg.value("locbs.backfill_hits") / placed;
  out["schedule.critical_path_s"] = cp_total / n;
  out["graph.concurrency_s"] = conc_total / n;
}

/// LoC-MPS plans of each item: once through evaluate_scheme, then
/// unmetered, with a MetricsRegistry and with an obs::Profiler. Each of
/// the three modes runs kOverheadReps times per item, the order of the
/// modes rotating so that each goes first once, and an item counts its
/// fastest plan per mode: neither warm-up nor order tilts the ratios.
void probe_loc_mps(const std::vector<const Item*>& items, Tracer& tr,
                   Layers& out) {
  constexpr std::size_t kModes = 3;  // plain, metered, profiled
  const char* const spans[kModes] = {"schedulers.loc_mps", "obs.metered_plan",
                                     "obs.profiled_plan"};
  std::map<std::string, double, std::less<>> sum;
  double fastest[kModes] = {}, evaluate = 0.0;
  for (const Item* it : items) {
    SchedulerOptions so;
    so.plan_budget = it->plan_budget;
    Stopwatch sw;
    {
      Tracer::Scope sp(tr, "core.evaluate");
      (void)evaluate_scheme("loc-mps", it->g, it->cluster, {}, nullptr, so);
    }
    evaluate += sw.seconds();
    double best[kModes];
    std::fill(best, best + kModes, std::numeric_limits<double>::infinity());
    for (std::size_t r = 0; r < kOverheadReps; ++r)
      for (std::size_t k = 0; k < kModes; ++k) {
        const std::size_t mode = (r + k) % kModes;
        // One registry per plan: LoC-MPS sets (not adds)
        // locmps.locbs_calls.
        obs::MetricsRegistry reg;
        obs::Profiler prof;
        obs::ObsContext metered{&reg, nullptr, nullptr};
        obs::ObsContext profiled{nullptr, nullptr, &prof};
        const SchedulerPtr s = make_scheduler("loc-mps", so);
        s->attach_observability(mode == 0   ? nullptr
                                : mode == 1 ? &metered
                                            : &profiled);
        Stopwatch pw;
        {
          Tracer::Scope sp(tr, spans[mode]);
          (void)s->schedule(it->g, it->cluster);
        }
        best[mode] = std::min(best[mode], pw.seconds());
        if (mode == 1 && r == 0)
          for (const auto& [name, v] : reg.snapshot().counters)
            sum[name] += v;
      }
    for (std::size_t m = 0; m < kModes; ++m) fastest[m] += best[m];
  }
  const double n = static_cast<double>(items.size());
  const double calls = sum["locmps.locbs_calls"];
  out["schedulers.loc_mps.locbs_calls"] = calls / n;
  out["schedulers.loc_mps.s_per_call"] = fastest[0] / calls;
  out["schedulers.loc_mps.memo_hit_frac"] = sum["incr.cache_hits"] / calls;
  out["schedulers.loc_mps.replayed_frac"] =
      sum["incr.replayed_tasks"] / sum["locbs.tasks_placed"];
  out["network.cost_evals_per_call"] =
      sum["comm.cost_evals"] / sum["locbs.calls"];
  out["obs.metering_overhead"] = fastest[1] / fastest[0];
  out["obs.profiled_overhead"] = fastest[2] / fastest[0];
  out["core.evaluate_s"] = evaluate / n;
}

void probe_baselines(const std::vector<const Item*>& items, Tracer& tr,
                     Layers& out) {
  double total = 0.0;
  for (const Item* it : items)
    for (const std::string& name : kBaselines) {
      Tracer::Scope sp(tr, "schedulers.baselines");
      Stopwatch sw;
      (void)make_scheduler(name)->schedule(it->g, it->cluster);
      total += sw.seconds();
    }
  out["schedulers.baselines_s"] = total / static_cast<double>(items.size());
}

void probe_faults(const std::vector<const Item*>& items, Tracer& tr,
                  Layers& out) {
  double initial = 0.0, whole = 0.0, replans = 0.0, rounds = 0.0;
  for (const Item* it : items) {
    {
      Tracer::Scope sp(tr, "faults.initial_plan");
      Stopwatch sw;
      (void)LocMPSScheduler().schedule(it->g, it->cluster);
      initial += sw.seconds();
    }
    Tracer::Scope sp(tr, "faults.run_with_faults");
    Stopwatch sw;
    const RecoveryResult r = run_with_faults(it->g, it->cluster, it->faults);
    whole += sw.seconds();
    replans += static_cast<double>(r.replans);
    rounds += static_cast<double>(r.rounds);
  }
  const double n = static_cast<double>(items.size());
  out["faults.initial_plan_s"] = initial / n;
  out["faults.recovery_s"] = (whole - initial) / n;
  out["faults.replans"] = replans / n;
  out["faults.rounds"] = rounds / n;
}

void probe_replay(const std::vector<const Item*>& items,
                  const std::vector<const Schedule*>& finals,
                  std::uint64_t seed, Tracer& tr, Layers& out) {
  double ensemble = 0.0, samples = 0.0, bytes = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Replay rp = replay(*items[i], *finals[i], mix(seed, 700 + i), tr);
    ensemble += rp.ensemble_s;
    samples += static_cast<double>(rp.samples);
    bytes += static_cast<double>(rp.report_bytes);
  }
  out["faults.robust_sample_s"] = ensemble / samples;
  out["obs.report_bytes"] = bytes / static_cast<double>(items.size());
}

// ---------------------------------------------------------------------------
// Output.

void json_array(std::ostream& os, const char* key,
                const std::vector<double>& xs) {
  os << "\"" << key << "\":[";
  for (std::size_t i = 0; i < xs.size(); ++i) os << (i ? "," : "") << xs[i];
  os << "]";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload required");
  return a;
}

int run(const Args& a) {
  Tracer tr(a.trace);
  Tracer quiet(false);

  // The first set-up builds the workload (traced in a traced run); each
  // batch times fresh set-ups of the same corpus. The reference kernel is
  // timed before every batch and every op (ref_s), so that its samples
  // are spread over the run like the samples it scales.
  std::vector<double> setup_s, gen_s, ref_s;
  Stopwatch initial;
  const Workload w = setup(a.workload, tr);
  setup_s.push_back(initial.seconds());
  gen_s.push_back(w.gen_s);
  const auto setup_batch = [&] {
    time_reference(ref_s);
    Stopwatch batch;
    for (std::size_t n = 0;
         batch.seconds() < kSetupBatchS && n < kSetupBatchReps; ++n) {
      Stopwatch sw;
      const Workload again = setup(a.workload, quiet);
      setup_s.push_back(sw.seconds());
      gen_s.push_back(again.gen_s);
    }
  };

  // Measured phase. A traced run alternates untraced and traced rounds.
  // run.py keeps the fastest half of each item's untraced repetitions.
  std::vector<double> round_s, traced_round_s, ratios;
  std::vector<std::vector<double>> op_s(w.items.size()),
      timed_s(w.items.size());
  std::vector<std::string> errors;
  std::size_t attempted = 0, rounds = 0;
  std::uint64_t first_digest = 0;
  bool deterministic = true;
  Round last;
  Stopwatch total;
  const auto kept = [&] {
    return w.items.size() * ((round_s.size() + 1) / 2);
  };
  while (rounds < (a.trace ? 2u : 1u) ||
         (total.seconds() < a.seconds && total.seconds() < kMaxMeasureS) ||
         (!a.trace && kept() < kMinOps && total.seconds() < kMaxMeasureS)) {
    setup_batch();
    const bool traced = a.trace && rounds % 2 == 1;
    Round rd = run_round(a.workload, w, mix(a.seed, 1u << 20 | rounds),
                         traced ? tr : quiet, ref_s);
    (traced ? traced_round_s : round_s).push_back(rd.timed_s);
    for (std::size_t i = 0; i < rd.ops.size(); ++i) {
      const OpResult& r = rd.ops[i];
      ++attempted;
      if (!r.error.empty()) errors.push_back(r.error);
      if (!traced) {
        op_s[i].push_back(r.op_s);
        timed_s[i].push_back(r.timed_s);
      }
      if (rounds == 0 && r.error.empty()) ratios.push_back(r.ratio);
    }
    if (rounds == 0) first_digest = rd.digest;
    deterministic = deterministic && rd.digest == first_digest;
    ++rounds;
    last = std::move(rd);
  }

  Layers layers;
  std::vector<std::pair<double, double>> points;
  if (a.trace) {
    const Item probe = probe_item();
    std::vector<const Item*> own, probe_only{&probe};
    std::vector<const Schedule*> finals;
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      own.push_back(&w.items[i]);
      finals.push_back(&last.ops[i].final);
    }
    probe_locbs(own, finals, tr, layers, points);
    probe_loc_mps(own, tr, layers);
    probe_baselines(a.workload == "paper-suite" ? own : probe_only, tr,
                    layers);
    probe_faults(a.workload == "fault-replan" ? own : probe_only, tr, layers);
    probe_replay(own, finals, a.seed, tr, layers);
    const auto totals = tr.totals();
    auto mean_of = [&](const char* name) {
      const auto it = totals.find(name);
      return it != totals.end() ? it->second.mean_s() : 0.0;
    };
    layers["schedule.sim_s"] = mean_of("schedule.sim");
    layers["schedule.validate_s"] = mean_of("schedule.validate");
    layers["obs.analyze_s"] = mean_of("obs.analyze");
    layers["obs.report_s"] = mean_of("obs.report");
    layers["workloads.gen_s"] =
        *std::min_element(gen_s.begin(), gen_s.end());
    // Round 0 warms caches and is left out of the comparison.
    std::vector<double> untraced(round_s.begin() + (round_s.size() > 1),
                                 round_s.end());
    std::vector<double> traced = traced_round_s;
    std::sort(untraced.begin(), untraced.end());
    std::sort(traced.begin(), traced.end());
    layers["obs.tracing_overhead"] =
        traced[traced.size() / 2] / untraced[untraced.size() / 2];
    if (!a.trace_out.empty()) {
      std::ofstream f(a.trace_out);
      tr.write_chrome(f);
      if (!f) throw std::runtime_error("cannot write " + a.trace_out);
    }
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
     << ",\"rounds\":" << rounds << ",\"attempted\":" << attempted
     << ",\"failed\":" << errors.size()
     << ",\"deterministic\":" << (deterministic ? "true" : "false")
     << ",\"digest\":\"" << std::hex << first_digest << std::dec << "\""
     << ",\"peak_rss_mb\":"
     << static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0)
     << ",";
  json_array(os, "setup_s", setup_s);
  os << ",";
  json_array(os, "ref_s", ref_s);
  os << ",";
  os << "\"items\":[";
  for (std::size_t i = 0; i < op_s.size(); ++i) {
    os << (i ? "," : "") << "{";
    json_array(os, "op_s", op_s[i]);
    os << ",";
    json_array(os, "timed_s", timed_s[i]);
    os << "}";
  }
  os << "],";
  json_array(os, "ratios", ratios);
  os << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size() && i < 5; ++i)
    os << (i ? "," : "") << "\"" << obs::json_escape(errors[i]) << "\"";
  os << "],\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : layers) {
    os << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  os << "},\"pass_points\":[";
  for (std::size_t i = 0; i < points.size(); ++i)
    os << (i ? "," : "") << "[" << points[i].first << ","
       << points[i].second << "]";
  os << "]}";
  std::cout << os.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "planner_bench: " << e.what() << "\n";
    return 2;
  }
}
