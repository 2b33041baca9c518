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

/// One refinement (Alg. 1 steps 8-14 / 19-29): the critical-path diagnosis
/// that chose it and the task or edge it widened. A round's first
/// refinement is its look-ahead entry point (Alg. 1 steps 16-17 / 28-29).
struct Refinement {
  bool is_task = true;
  TaskId task = kNoTask;
  EdgeId edge = kNoEdge;
  bool widened_src = false;
  bool widened_dst = false;
  double cp_len = 0.0;
  double comp_cost = 0.0;
  double comm_cost = 0.0;
  bool comp_dominates = true;
};

/// Outcome of one look-ahead walk (Alg. 1 steps 15-30): the best
/// allocation it adopted and its realization, set only when it beat the
/// incumbent it started from.
struct WalkResult {
  Allocation alloc;
  std::optional<LocBSResult> run;
};

/// The state of one LoC-MPS run, with one member function per group of
/// Alg. 1's steps; LocMPSScheduler::run is the repeat-until loop over them.
///
/// The refinement search always runs unperturbed and untraced: a
/// mid-search placement flip would diverge the whole trajectory and smear
/// a seeded divergence across many tasks. Its LoCBS passes get the
/// caller's registry and profiler but no sink, and the perturb_task hook
/// (locbs.hpp) is disarmed, so both see only realize_final and a perturbed
/// run differs from its baseline by exactly that flip.
struct Search {
  const TaskGraph& g;
  const LocMPSOptions& opt;
  const FixedPrefix* const fixed;
  obs::ObsContext* const obs;  ///< the caller's: locmps.* events and spans
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  const bool comm_aware = !opt.locbs.comm_blind;
  CommModel comm;
  const ConcurrencyAnalysis conc{g};
  LocBSOptions lopt = opt.locbs;  ///< the search's: perturb_task disarmed
  obs::ObsContext search_ctx{met, nullptr, obs::profiler_of(obs)};
  /// Incremental replanning (docs/incremental.md): each LoCBS evaluation
  /// of the refinement stream replays the placement prefix it shares with
  /// the previous one.
  IncrementalContext incr;
  /// Widening bounds per task: cap for the task itself, min(P, Pbest)
  /// (Alg. 1 step 14), and ecap as an edge endpoint, the usable width.
  /// Both are the survivor count at most on a degraded cluster
  /// (faults/recovery.hpp), and a frozen task's committed count.
  std::vector<std::size_t> cap, ecap;
  Allocation best_alloc;   ///< the incumbent allocation
  std::size_t calls = 0;   ///< LoCBS passes plus one per round (loc_mps.hpp)
  LocBSResult best_run;    ///< the incumbent's realization
  std::vector<char> marked_task = std::vector<char>(g.num_tasks(), 0);
  std::vector<char> marked_edge = std::vector<char>(g.num_edges(), 0);

  Search(const TaskGraph& graph, const Cluster& cluster,
         const LocMPSOptions& options, const FixedPrefix* prefix,
         obs::ObsContext* ctx)
      : g(graph), opt(options), fixed(prefix), obs(ctx), comm(cluster),
        best_run(start(cluster.processors)) {
    if (obs::wants_events(obs))
      obs->sink->emit(
          obs::Event("locmps.begin")
              .with("tasks", static_cast<std::uint64_t>(g.num_tasks()))
              .with("procs", static_cast<std::uint64_t>(cluster.processors))
              .with("comm_aware", comm_aware)
              .with("initial_makespan", best_run.makespan));
    if (met != nullptr) met->sample("locmps.best_makespan", best_run.makespan);
  }

  /// The start: np(t) = 1 with a frozen task at its committed count, the
  /// widening bounds, and the first realization. It runs from the
  /// member-initializer list, because a LocBSResult binds its graph and
  /// has no empty state, so it may touch only the members above best_run.
  LocBSResult start(std::size_t P) {
    if (met != nullptr)
      comm.count_evals_into(met->cell_ptr("comm.cost_evals"));
    lopt.perturb_task = kNoTask;
    const std::size_t usable =
        (fixed != nullptr && fixed->available != nullptr)
            ? fixed->available->count()
            : P;
    best_alloc.assign(g.num_tasks(), 1);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      cap.push_back(std::min(usable, g.task(t).profile.pbest()));
      ecap.push_back(usable);
      if (fixed != nullptr && fixed->is_frozen(t))
        best_alloc[t] = cap[t] = ecap[t] = fixed->placements->at(t).np();
    }
    return eval(best_alloc);
  }

  /// One LoCBS pass of the refinement search, charged to calls.
  LocBSResult eval(const Allocation& np) {
    ++calls;
    return locbs(g, np, comm, lopt, fixed,
                 obs != nullptr ? &search_ctx : nullptr,
                 opt.incremental ? &incr : nullptr);
  }

  /// Alg. 1 steps 8-14 / 19-29: one refinement of \p np against the
  /// critical path of \p dag. Widens the pick of the dominating-cost
  /// branch, falling back to the other branch, so a step is only abandoned
  /// when nothing is refinable (then returns nothing and leaves \p np
  /// untouched).
  std::optional<Refinement> select(const ScheduleDag& dag, Allocation& np,
                                   bool respect_marks) const {
    CriticalPathInfo cp;
    {
      LOCMPS_SPAN(obs, "locmps.critical_path");
      cp = dag.critical_path();
    }
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
          rf.task = t;
          return rf;
        }
      } else if (comm_aware) {
        const EdgeId e = pick_edge(cp, dag, np, respect_marks);
        if (e != kNoEdge) {
          std::tie(rf.widened_src, rf.widened_dst) = widen_edge(e, np);
          rf.is_task = false;
          rf.edge = e;
          return rf;
        }
      }
    }
    return std::nullopt;
  }

  /// Chooses the best candidate task on the critical path: among the
  /// top fraction by execution-time gain, the one with the lowest
  /// concurrency ratio (Section III-C).
  TaskId pick_task(const CriticalPathInfo& cp, const Allocation& np,
                   bool respect_marks) const {
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
               std::ceil(opt.candidate_top_fraction *
                         static_cast<double>(cand.size()))));
    TaskId best = cand[0];
    for (std::size_t i = 1; i < k; ++i)
      if (conc.ratio(cand[i]) < conc.ratio(best)) best = cand[i];
    return best;
  }

  /// Chooses the heaviest refinable communication edge on the critical
  /// path (Section III-D). Returns kNoEdge if none qualifies.
  EdgeId pick_edge(const CriticalPathInfo& cp, const ScheduleDag& dag,
                   const Allocation& np, bool respect_marks) const {
    EdgeId best = kNoEdge;
    double best_w = 0.0;
    for (EdgeId e : cp.edges) {
      if (e == kNoEdge) continue;  // pseudo-edge
      if (respect_marks && marked_edge[e]) continue;
      const Edge& ed = g.edge(e);
      if (np[ed.src] >= ecap[ed.src] && np[ed.dst] >= ecap[ed.dst]) continue;
      const double w = dag.edge_time(e);
      if (w > best_w) {
        best_w = w;
        best = e;
      }
    }
    return best;
  }

  /// Widens the thinner endpoint of edge e (both when tied), respecting
  /// each endpoint's widening bound. Returns {src widened, dst widened}.
  std::pair<bool, bool> widen_edge(EdgeId e, Allocation& np) const {
    const Edge& ed = g.edge(e);
    const bool src_ok = np[ed.src] < ecap[ed.src];
    const bool dst_ok = np[ed.dst] < ecap[ed.dst];
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
  }

  /// Alg. 1 steps 15-30: one look-ahead walk whose first refinement \p rf
  /// already widened \p np. Explores up to look_ahead_depth refinements,
  /// or until the call budget runs out, adopting every strict improvement
  /// over the incumbent and keeping its realization.
  WalkResult walk(std::size_t round, Allocation np, Refinement rf) {
    LOCMPS_SPAN(obs, "locmps.walk");
    WalkResult r;
    double best = best_run.makespan;
    std::optional<LocBSResult> last;   // the latest evaluation, unless adopted
    const LocBSResult* cur = nullptr;  // the latest evaluation
    for (std::size_t iter = 0; iter < opt.look_ahead_depth; ++iter) {
      if (iter > 0) {
        const std::optional<Refinement> next =
            select(cur->dag, np, opt.marks_bind_lookahead);
        if (!next) break;
        rf = *next;
      }
      if (met != nullptr)
        met->add(rf.is_task ? "locmps.widened_tasks"
                            : "locmps.widened_edges");
      LocBSResult res = eval(np);
      const bool adopted = res.makespan < best;
      if (adopted) {
        r.alloc = np;
        best = res.makespan;
        cur = &r.run.emplace(std::move(res));
      } else {
        cur = &last.emplace(std::move(res));
      }
      if (obs::wants_events(obs))
        obs->sink->emit(refine_event(round, iter, rf, np)
                            .with("makespan", cur->makespan)
                            .with("adopted", adopted)
                            .with("best", best));
      if (calls >= opt.max_locbs_calls) break;
    }
    return r;
  }

  /// The locmps.refine event of one refinement: the critical-path
  /// diagnosis and the widening decision (the walk appends its outcome).
  /// Together with locmps.lookahead_begin these replay into the final
  /// allocation (tests/test_obs_events.cpp reconstructs it).
  obs::Event refine_event(std::size_t round, std::size_t iter,
                          const Refinement& rf, const Allocation& np) const {
    obs::Event ev =
        obs::Event("locmps.refine")
            .with("round", static_cast<std::uint64_t>(round))
            .with("iter", static_cast<std::uint64_t>(iter))
            .with("cp_len", rf.cp_len)
            .with("comp_cost", rf.comp_cost)
            .with("comm_cost", rf.comm_cost)
            .with("dominant", rf.comp_dominates ? "comp" : "comm");
    if (rf.is_task) {
      const TaskId t = rf.task;
      return std::move(ev)
          .with("kind", "task")
          .with("task", t)
          .with("np_new", static_cast<std::uint64_t>(np[t]))
          .with("gain", g.task(t).profile.time(np[t] - 1) -
                            g.task(t).profile.time(np[t]))
          .with("conc_ratio", conc.ratio(t));
    }
    const Edge& ed = g.edge(rf.edge);
    return std::move(ev)
        .with("kind", "edge")
        .with("edge", rf.edge)
        .with("src", ed.src)
        .with("dst", ed.dst)
        .with("src_np_new", static_cast<std::uint64_t>(np[ed.src]))
        .with("dst_np_new", static_cast<std::uint64_t>(np[ed.dst]))
        .with("widened_src", rf.widened_src)
        .with("widened_dst", rf.widened_dst);
  }

  /// Alg. 1 steps 31-38: commit-or-mark for one completed look-ahead
  /// round. Updates the incumbent and the marks, bumps the round counters,
  /// emits the round's locmps.lookahead event, and charges the round's
  /// call: the incumbent's realization is kept from the walk rather than
  /// re-run, so `iterations` and the call budget count LoCBS passes plus
  /// rounds (loc_mps.hpp).
  void commit_or_mark(std::size_t round, const Refinement& entry,
                      WalkResult&& w) {
    const bool improved = w.run.has_value();
    const double old_sl = best_run.makespan;
    if (!improved) {
      // Failed look-ahead: remember the entry point as a bad start.
      if (entry.is_task)
        marked_task[entry.task] = 1;
      else
        marked_edge[entry.edge] = 1;
    } else {
      // Commit: adopt the improved allocation with the walk's realization
      // of it, and clear all marks.
      best_alloc = std::move(w.alloc);
      best_run = std::move(*w.run);
      std::fill(marked_task.begin(), marked_task.end(), 0);
      std::fill(marked_edge.begin(), marked_edge.end(), 0);
    }
    if (obs::log_enabled(obs::LogLevel::kDebug))
      obs::log(obs::LogLevel::kDebug, "loc-mps")
          << "old=" << old_sl << " best=" << best_run.makespan << ' '
          << (improved ? "commit" : "mark") << " entry="
          << (entry.is_task ? 't' : 'e')
          << (entry.is_task ? entry.task : entry.edge) << " calls=" << calls;
    if (obs::wants_events(obs))
      obs->sink->emit(
          obs::Event("locmps.lookahead")
              .with("round", static_cast<std::uint64_t>(round))
              .with("entry_kind", entry.is_task ? "task" : "edge")
              .with("entry", entry.is_task ? entry.task : entry.edge)
              .with("improved", improved)
              .with("old", old_sl)
              .with("best", best_run.makespan));
    ++calls;
    if (met != nullptr) {
      met->add("locmps.rounds");
      met->add(improved ? "locmps.commits" : "locmps.reverts");
      if (!improved)
        met->add(entry.is_task ? "locmps.marked_tasks"
                               : "locmps.marked_edges");
      met->sample("locmps.best_makespan", best_run.makespan);
      met->sample("locmps.locbs_calls", static_cast<double>(calls));
    }
  }

  /// Final authoritative realization: the only pass that sees the sink and
  /// the perturb hook. It re-realizes the committed allocation from
  /// scratch (a decision record needs the reference scan's shortlist and
  /// runner-up, and a replayed step runs no scan), so the trace's one
  /// "locbs.decision" record per task describes exactly the returned
  /// schedule — rundiff and `--explain` read those. An armed perturb_task
  /// takes effect here and nowhere else.
  SchedulerResult realize_final() {
    if (opt.locbs.perturb_task != kNoTask || obs::wants_events(obs)) {
      best_run = locbs(g, best_alloc, comm, opt.locbs, fixed, obs);
      ++calls;
    }
    if (met != nullptr) {
      met->set("locmps.locbs_calls", static_cast<double>(calls));
      met->sample("locmps.best_makespan", best_run.makespan);
    }
    if (obs::wants_events(obs))
      obs->sink->emit(
          obs::Event("locmps.done")
              .with("makespan", best_run.makespan)
              .with("locbs_calls", static_cast<std::uint64_t>(calls)));
    return {std::move(best_run.schedule), std::move(best_alloc),
            best_run.makespan, calls};
  }
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
  obs::ObsContext* const obs = observability();
  LOCMPS_SPAN(obs, "locmps.run");
  Search s(g, cluster, opt_, fixed, obs);
  // Main repeat-until loop (Alg. 1 steps 5-40): one look-ahead round per
  // iteration, entered at the incumbent's critical path with the marks
  // binding, then commit-or-mark. The incumbent keeps the realization
  // that the walk adopting it (or the start) computed, so the next round
  // reads its G' without another LoCBS pass.
  for (std::size_t round = 1; s.calls < opt_.max_locbs_calls; ++round) {
    if (obs::wants_events(obs))
      obs->sink->emit(obs::Event("locmps.lookahead_begin")
                          .with("round", static_cast<std::uint64_t>(round))
                          .with("best", s.best_run.makespan));
    Allocation np = s.best_alloc;
    const std::optional<Refinement> entry =
        s.select(s.best_run.dag, np, /*respect_marks=*/true);
    // Termination (Alg. 1 step 40): every critical-path task is saturated
    // or marked, and so is every refinable path edge. The final round
    // opens and immediately ends.
    if (!entry) break;
    s.commit_or_mark(round, *entry, s.walk(round, std::move(np), *entry));
  }
  return s.realize_final();
}

}  // namespace locmps
