#include "schedulers/loc_mps.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>

#include "graph/algorithms.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "schedulers/incremental.hpp"

namespace locmps {

namespace {

/// The look-ahead entry point: the task or edge whose widening started the
/// current search (Alg. 1 steps 16-17 / 28-29).
struct EntryPoint {
  bool is_task = true;
  TaskId task = kNoTask;
  EdgeId edge = kNoEdge;
};

/// One refinement (Alg. 1 steps 8-14 / 19-29): the critical-path diagnosis
/// that chose it and the task or edge it widened.
struct Refinement {
  EntryPoint ep;
  bool widened_src = false;
  bool widened_dst = false;
  double cp_len = 0.0;
  double comp_cost = 0.0;
  double comm_cost = 0.0;
  bool comp_dominates = true;
};

/// Outcome of one look-ahead walk (Alg. 1 steps 15-30): the best
/// allocation it adopted, how many LoCBS evaluations it consumed, and
/// whether it beat the incumbent it started from.
struct WalkResult {
  bool improved = false;
  Allocation alloc;
  double sl = 0.0;
  std::size_t used = 0;
};

}  // namespace

SchedulerResult LocMPSScheduler::schedule(const TaskGraph& g,
                                          const Cluster& cluster) const {
  return run(g, cluster, nullptr);
}

SchedulerResult LocMPSScheduler::schedule_with_fixed(
    const TaskGraph& g, const Cluster& cluster,
    const FixedPrefix& fixed) const {
  return run(g, cluster, &fixed);
}

SchedulerResult LocMPSScheduler::run(const TaskGraph& g,
                                     const Cluster& cluster,
                                     const FixedPrefix* fixed) const {
  const std::size_t n = g.num_tasks();
  const std::size_t P = cluster.processors;
  obs::ObsContext* const obs = observability();
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  LOCMPS_SPAN(obs, "locmps.run");
  CommModel comm(cluster);
  if (met != nullptr)
    comm.count_evals_into(met->cell_ptr("comm.cost_evals"));
  const ConcurrencyAnalysis conc(g);

  // On a degraded cluster (faults/recovery.hpp) non-frozen tasks can only
  // be as wide as the survivor set.
  const std::size_t usable =
      (fixed != nullptr && fixed->available != nullptr)
          ? fixed->available->count()
          : P;

  // Saturation bound per task: min(P, Pbest) (Alg. 1 step 14), further
  // capped at the survivor count on a degraded cluster; frozen tasks keep
  // their committed processor count.
  Allocation best_alloc(n, 1);
  std::vector<std::size_t> cap(n);
  for (TaskId t = 0; t < n; ++t) {
    cap[t] = std::min(usable, g.task(t).profile.pbest());
    if (fixed != nullptr && fixed->is_frozen(t)) {
      best_alloc[t] = fixed->placements->at(t).np();
      cap[t] = best_alloc[t];
    }
  }
  // Widening bound for communication edges: the usable width unless frozen.
  auto ecap = [&](TaskId t) {
    return (fixed != nullptr && fixed->is_frozen(t)) ? cap[t] : usable;
  };

  // The refinement search always runs unperturbed and untraced: a
  // mid-search placement flip would diverge the whole trajectory and smear
  // a seeded divergence across many tasks. The perturb_task hook
  // (locbs.hpp) and the sink see only the final realization below, so a
  // perturbed run differs from its baseline by exactly that flip.
  LocBSOptions lopt = opt_.locbs;
  const TaskId perturb = lopt.perturb_task;
  lopt.perturb_task = kNoTask;
  obs::ObsContext search_ctx{met, nullptr, obs::profiler_of(obs)};
  obs::ObsContext* const search_obs = obs != nullptr ? &search_ctx : nullptr;

  // Incremental replanning (docs/incremental.md): the refinement stream's
  // LoCBS evaluations replay their unchanged placement prefix from a
  // recorded earlier evaluation.
  IncrementalContext session_incr;
  IncrementalContext* const incr = opt_.incremental ? &session_incr : nullptr;

  // Every LoCBS evaluation of the refinement search funnels through here.
  auto eval_locbs = [&](const Allocation& np) {
    return locbs(g, np, comm, lopt, fixed, search_obs, incr);
  };

  LocBSResult best_run = eval_locbs(best_alloc);
  double best_sl = best_run.makespan;
  std::size_t calls = 1;
  if (obs::wants_events(obs))
    obs->sink->emit(obs::Event("locmps.begin")
                        .with("tasks", static_cast<std::uint64_t>(n))
                        .with("procs", static_cast<std::uint64_t>(P))
                        .with("comm_aware", !opt_.locbs.comm_blind)
                        .with("initial_makespan", best_sl));
  if (met != nullptr) met->sample("locmps.best_makespan", best_sl);

  std::vector<char> marked_task(n, 0);
  std::vector<char> marked_edge(g.num_edges(), 0);

  // Chooses the best candidate task on the critical path: among the
  // top fraction by execution-time gain, the one with the lowest
  // concurrency ratio (Section III-C).
  auto pick_task = [&](const CriticalPathInfo& cp, const Allocation& np,
                       bool respect_marks) -> TaskId {
    std::vector<TaskId> cand;
    for (TaskId t : cp.tasks) {
      if (np[t] >= cap[t]) continue;
      if (respect_marks && marked_task[t]) continue;
      cand.push_back(t);
    }
    if (cand.empty()) return kNoTask;
    auto gain = [&](TaskId t) {
      return g.task(t).profile.time(np[t]) -
             g.task(t).profile.time(np[t] + 1);
    };
    std::sort(cand.begin(), cand.end(), [&](TaskId a, TaskId b) {
      const double ga = gain(a), gb = gain(b);
      // Exact inequality: the tie-break must see identical gains as equal
      // so the task-id fallback keeps the order deterministic.
      if (ga != gb) return ga > gb;  // LINT-ALLOW(float-eq)
      return a < b;
    });
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(opt_.candidate_top_fraction *
                         static_cast<double>(cand.size()))));
    TaskId best = cand[0];
    for (std::size_t i = 1; i < k; ++i)
      if (conc.ratio(cand[i]) < conc.ratio(best)) best = cand[i];
    return best;
  };

  // Chooses the heaviest refinable communication edge on the critical path
  // (Section III-D). Returns kNoEdge if none qualifies.
  auto pick_edge = [&](const CriticalPathInfo& cp, const ScheduleDag& dag,
                       const Allocation& np, bool respect_marks) -> EdgeId {
    EdgeId best = kNoEdge;
    double best_w = 0.0;
    for (EdgeId e : cp.edges) {
      if (e == kNoEdge) continue;  // pseudo-edge
      if (respect_marks && marked_edge[e]) continue;
      const Edge& ed = g.edge(e);
      if (np[ed.src] >= ecap(ed.src) && np[ed.dst] >= ecap(ed.dst)) continue;
      const double w = dag.edge_time(e);
      if (w > best_w) {
        best_w = w;
        best = e;
      }
    }
    return best;
  };

  // Widens the thinner endpoint of edge e (both when tied), respecting
  // each endpoint's widening bound. Returns {src widened, dst widened}.
  auto widen_edge = [&](EdgeId e, Allocation& np) -> std::pair<bool, bool> {
    const Edge& ed = g.edge(e);
    const bool src_ok = np[ed.src] < ecap(ed.src);
    const bool dst_ok = np[ed.dst] < ecap(ed.dst);
    if (np[ed.src] > np[ed.dst] && dst_ok) {
      np[ed.dst] += 1;
      return {false, true};
    }
    if (np[ed.src] < np[ed.dst] && src_ok) {
      np[ed.src] += 1;
      return {true, false};
    }
    if (dst_ok) np[ed.dst] += 1;
    if (src_ok) np[ed.src] += 1;
    return {src_ok, dst_ok};
  };

  const bool comm_aware = !opt_.locbs.comm_blind;

  // One refinement of \p np against the critical path \p cp of \p dag:
  // widens the pick of the dominating-cost branch, falling back to the
  // other branch, so a step is only abandoned when nothing is refinable
  // (then returns nothing and leaves \p np untouched).
  auto refine = [&](const CriticalPathInfo& cp, const ScheduleDag& dag,
                    Allocation& np,
                    bool respect_marks) -> std::optional<Refinement> {
    Refinement rf;
    rf.cp_len = cp.length;
    rf.comp_cost = cp.comp_cost;
    rf.comm_cost = cp.comm_cost;
    rf.comp_dominates = !comm_aware || cp.comp_cost >= cp.comm_cost;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool task_branch = (attempt == 0) == rf.comp_dominates;
      if (task_branch) {
        const TaskId t = pick_task(cp, np, respect_marks);
        if (t != kNoTask) {
          np[t] += 1;
          rf.ep = EntryPoint{true, t, kNoEdge};
          return rf;
        }
      } else if (comm_aware) {
        const EdgeId e = pick_edge(cp, dag, np, respect_marks);
        if (e != kNoEdge) {
          std::tie(rf.widened_src, rf.widened_dst) = widen_edge(e, np);
          rf.ep = EntryPoint{false, kNoTask, e};
          return rf;
        }
      }
    }
    return std::nullopt;
  };

  // One look-ahead walk (Alg. 1 steps 15-30) whose first refinement
  // \p first already widened \p np. Explores up to look_ahead_depth
  // refinements, or \p budget LoCBS evaluations, adopting every strict
  // improvement over the incumbent.
  auto walk = [&](std::size_t round_no, Allocation np,
                  const Refinement& first, std::size_t budget) -> WalkResult {
    LOCMPS_SPAN(obs, "locmps.walk");
    WalkResult r;
    r.alloc = best_alloc;
    r.sl = best_sl;
    if (obs::wants_events(obs))
      obs->sink->emit(obs::Event("locmps.lookahead_begin")
                          .with("round", static_cast<std::uint64_t>(round_no))
                          .with("best", best_sl));
    std::optional<LocBSResult> cur;
    Refinement rf = first;
    for (std::size_t iter = 0; iter < opt_.look_ahead_depth; ++iter) {
      if (iter > 0) {
        CriticalPathInfo cp;
        {
          LOCMPS_SPAN(obs, "locmps.critical_path");
          cp = cur->dag.critical_path();
        }
        const std::optional<Refinement> next =
            refine(cp, cur->dag, np, opt_.marks_bind_lookahead);
        if (!next) break;
        rf = *next;
      }
      const EntryPoint& ep = rf.ep;
      if (met != nullptr)
        met->add(ep.is_task ? "locmps.widened_tasks"
                            : "locmps.widened_edges");

      cur.emplace(eval_locbs(np));
      ++r.used;
      const bool adopted = cur->makespan < r.sl;
      if (adopted) {
        r.alloc = np;
        r.sl = cur->makespan;
        r.improved = true;
      }
      if (obs::wants_events(obs)) {
        // One event per refinement: the critical-path diagnosis, the
        // widening decision, and its outcome. Together with
        // locmps.lookahead_begin these replay into the final allocation
        // (tests/test_obs_events.cpp reconstructs it).
        if (ep.is_task) {
          const TaskId t = ep.task;
          obs->sink->emit(
              obs::Event("locmps.refine")
                  .with("round", static_cast<std::uint64_t>(round_no))
                  .with("iter", static_cast<std::uint64_t>(iter))
                  .with("cp_len", rf.cp_len)
                  .with("comp_cost", rf.comp_cost)
                  .with("comm_cost", rf.comm_cost)
                  .with("dominant", rf.comp_dominates ? "comp" : "comm")
                  .with("kind", "task")
                  .with("task", t)
                  .with("np_new", static_cast<std::uint64_t>(np[t]))
                  .with("gain", g.task(t).profile.time(np[t] - 1) -
                                    g.task(t).profile.time(np[t]))
                  .with("conc_ratio", conc.ratio(t))
                  .with("makespan", cur->makespan)
                  .with("adopted", adopted)
                  .with("best", r.sl));
        } else {
          const Edge& ed = g.edge(ep.edge);
          obs->sink->emit(
              obs::Event("locmps.refine")
                  .with("round", static_cast<std::uint64_t>(round_no))
                  .with("iter", static_cast<std::uint64_t>(iter))
                  .with("cp_len", rf.cp_len)
                  .with("comp_cost", rf.comp_cost)
                  .with("comm_cost", rf.comm_cost)
                  .with("dominant", rf.comp_dominates ? "comp" : "comm")
                  .with("kind", "edge")
                  .with("edge", ep.edge)
                  .with("src", ed.src)
                  .with("dst", ed.dst)
                  .with("src_np_new",
                        static_cast<std::uint64_t>(np[ed.src]))
                  .with("dst_np_new",
                        static_cast<std::uint64_t>(np[ed.dst]))
                  .with("widened_src", rf.widened_src)
                  .with("widened_dst", rf.widened_dst)
                  .with("makespan", cur->makespan)
                  .with("adopted", adopted)
                  .with("best", r.sl));
        }
      }
      if (r.used >= budget) break;
    }
    return r;
  };

  // Commit-or-mark for one completed look-ahead round (Alg. 1 steps
  // 31-38): updates the incumbent and the marks, bumps the round counters,
  // and emits the round's locmps.lookahead event.
  auto finish_round = [&](std::size_t round_no, const EntryPoint& entry,
                          double old_sl, const WalkResult& w) {
    const bool improved = w.improved;
    if (obs::log_enabled(obs::LogLevel::kDebug))
      obs::log(obs::LogLevel::kDebug, "loc-mps")
          << "old=" << old_sl << " best=" << w.sl << ' '
          << (improved ? "commit" : "mark") << " entry="
          << (entry.is_task ? 't' : 'e')
          << (entry.is_task ? entry.task : entry.edge) << " calls=" << calls;
    if (!improved) {
      // Failed look-ahead: remember the entry point as a bad start.
      if (entry.is_task)
        marked_task[entry.task] = 1;
      else
        marked_edge[entry.edge] = 1;
    } else {
      // Commit: adopt the improved allocation and clear all marks.
      best_alloc = w.alloc;
      best_sl = w.sl;
      std::fill(marked_task.begin(), marked_task.end(), 0);
      std::fill(marked_edge.begin(), marked_edge.end(), 0);
    }
    if (met != nullptr) {
      met->add("locmps.rounds");
      met->add(improved ? "locmps.commits" : "locmps.reverts");
      if (!improved)
        met->add(entry.is_task ? "locmps.marked_tasks"
                               : "locmps.marked_edges");
    }
    if (obs::wants_events(obs))
      obs->sink->emit(
          obs::Event("locmps.lookahead")
              .with("round", static_cast<std::uint64_t>(round_no))
              .with("entry_kind", entry.is_task ? "task" : "edge")
              .with("entry", entry.is_task ? entry.task : entry.edge)
              .with("improved", improved)
              .with("old", old_sl)
              .with("best", best_sl));
  };

  // Termination test (Alg. 1 step 40): every critical-path task saturated
  // or marked, and (when comm-aware) every refinable path edge marked.
  auto exhausted_now = [&]() -> bool {
    const CriticalPathInfo cp = best_run.dag.critical_path();
    for (TaskId t : cp.tasks)
      if (best_alloc[t] < cap[t] && !marked_task[t]) return false;
    if (!comm_aware) return true;
    for (EdgeId e : cp.edges) {
      if (e == kNoEdge) continue;
      const Edge& ed = g.edge(e);
      if (marked_edge[e] || best_run.dag.edge_time(e) <= 0.0) continue;
      if (best_alloc[ed.src] < ecap(ed.src) ||
          best_alloc[ed.dst] < ecap(ed.dst))
        return false;
    }
    return true;
  };

  // Main repeat-until loop (Alg. 1 steps 5-40): one look-ahead round per
  // iteration, entered at the incumbent's critical path with the marks
  // binding, then commit-or-mark and a re-realization of the incumbent.
  std::size_t round = 0;
  while (calls < opt_.max_locbs_calls) {
    CriticalPathInfo cp;
    {
      LOCMPS_SPAN(obs, "locmps.critical_path");
      cp = best_run.dag.critical_path();
    }
    ++round;
    Allocation np = best_alloc;
    const std::optional<Refinement> first =
        refine(cp, best_run.dag, np, /*respect_marks=*/true);
    if (!first) {
      // Nothing on the critical path is refinable: the final round opens
      // and immediately ends.
      if (obs::wants_events(obs))
        obs->sink->emit(obs::Event("locmps.lookahead_begin")
                            .with("round", static_cast<std::uint64_t>(round))
                            .with("best", best_sl));
      break;
    }
    const double old_sl = best_sl;
    const WalkResult w =
        walk(round, std::move(np), *first, opt_.max_locbs_calls - calls);
    calls += w.used;
    finish_round(round, first->ep, old_sl, w);
    // Re-realize the best allocation; its critical path drives termination.
    best_run = eval_locbs(best_alloc);
    ++calls;
    if (met != nullptr) {
      met->sample("locmps.best_makespan", best_sl);
      met->sample("locmps.locbs_calls", static_cast<double>(calls));
    }
    if (exhausted_now()) break;
  }

  // Final authoritative realization: the only pass that sees the sink and
  // the perturb hook. It re-realizes the committed allocation from scratch
  // (a decision record needs the scan's shortlist and runner-up, which a
  // replayed step does not keep), so the trace's one "locbs.place" and
  // "locbs.decision" record per task describe exactly the returned
  // schedule — rundiff and `--explain` read those. An armed perturb_task
  // takes effect here and nowhere else.
  if (perturb != kNoTask || obs::wants_events(obs)) {
    best_run = locbs(g, best_alloc, comm, opt_.locbs, fixed, obs);
    best_sl = best_run.makespan;
    ++calls;
  }

  if (met != nullptr) {
    met->set("locmps.locbs_calls", static_cast<double>(calls));
    met->sample("locmps.best_makespan", best_sl);
  }
  if (obs::wants_events(obs))
    obs->sink->emit(
        obs::Event("locmps.done")
            .with("makespan", best_sl)
            .with("locbs_calls", static_cast<std::uint64_t>(calls)));

  SchedulerResult out;
  out.schedule = std::move(best_run.schedule);
  out.allocation = std::move(best_alloc);
  out.estimated_makespan = best_sl;
  out.iterations = calls;
  return out;
}

}  // namespace locmps
