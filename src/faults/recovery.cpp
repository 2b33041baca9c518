#include "faults/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "network/block_cyclic.hpp"
#include "obs/profile.hpp"
#include "schedule/event_sim.hpp"

namespace locmps {

namespace {

const char* kind_str(TaskKill::Kind k) {
  switch (k) {
    case TaskKill::Kind::kDeadAtStart:
      return "dead_at_start";
    case TaskKill::Kind::kCompute:
      return "compute";
    case TaskKill::Kind::kTransfer:
      return "transfer";
  }
  return "?";
}

/// Entry validation: every nonsensical knob is a structured
/// std::invalid_argument naming the offending field, never silent
/// misbehavior downstream.
void validate_options(const RecoveryOptions& opt, std::size_t processors) {
  if (opt.max_retries == 0)
    throw std::invalid_argument(
        "RecoveryOptions: max_retries must be >= 1 (0 would kill every "
        "retried task immediately)");
  if (!(opt.backoff_base_s >= 0.0))
    throw std::invalid_argument(
        "RecoveryOptions: backoff_base_s must be >= 0, got " +
        std::to_string(opt.backoff_base_s));
  if (!(opt.backoff_factor > 0.0))
    throw std::invalid_argument(
        "RecoveryOptions: backoff_factor must be > 0, got " +
        std::to_string(opt.backoff_factor));
  if (opt.min_procs > processors)
    throw std::invalid_argument(
        "RecoveryOptions: min_procs (" + std::to_string(opt.min_procs) +
        ") exceeds the cluster size (" + std::to_string(processors) + ")");
  if (!(opt.runtime_noise >= 0.0) || !(opt.runtime_noise < 1.0))
    throw std::invalid_argument(
        "RecoveryOptions: runtime_noise must be in [0, 1), got " +
        std::to_string(opt.runtime_noise));
  if (opt.max_rounds == 0)
    throw std::invalid_argument("RecoveryOptions: max_rounds must be >= 1");
  // 0.0 is the exact detection-off sentinel. LINT-ALLOW(float-eq)
  if (opt.straggler_threshold != 0.0 && !(opt.straggler_threshold > 1.0))
    throw std::invalid_argument(
        "RecoveryOptions: straggler_threshold must be 0 (off) or > 1, got " +
        std::to_string(opt.straggler_threshold));
}

}  // namespace

const char* to_string(RecoveryPolicy p) {
  return p == RecoveryPolicy::kRetryInPlace ? "retry" : "replan";
}

const char* to_string(StragglerMitigation m) {
  return m == StragglerMitigation::kSpeculate ? "speculate" : "replan";
}

void join_fault_plan(obs::ScheduleAnalysis& a, const FaultPlan& plan) {
  a.fault_windows.clear();
  for (const FaultEvent& e : plan.events()) {
    obs::FaultWindow w;
    w.proc = e.proc;
    w.fail_s = e.fail_at;
    w.repair_s = e.repair_at == kNeverRepaired ? -1.0 : e.repair_at;
    a.fault_windows.push_back(w);
  }
  std::sort(a.fault_windows.begin(), a.fault_windows.end(),
            [](const obs::FaultWindow& x, const obs::FaultWindow& y) {
              if (x.fail_s != y.fail_s) return x.fail_s < y.fail_s;
              return x.proc < y.proc;
            });
}

RecoveryResult run_with_faults(const TaskGraph& g, const Cluster& cluster,
                               const FaultPlan& plan,
                               const RecoveryOptions& opt) {
  const std::size_t n = g.num_tasks();
  const std::size_t P = cluster.processors;
  if (plan.processors() != P)
    throw std::invalid_argument(
        "run_with_faults: fault plan sized for a different cluster");
  if (opt.perturb != nullptr && opt.perturb->processors() != P)
    throw std::invalid_argument(
        "run_with_faults: perturbation plan sized for a different cluster");
  if (opt.perturb != nullptr && !opt.perturb->task_noise().empty() &&
      opt.perturb->task_noise().size() != n)
    throw std::invalid_argument(
        "run_with_faults: perturbation task noise sized for a different "
        "graph");
  validate_options(opt, P);

  obs::ObsContext* const obs = opt.obs;
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  LOCMPS_SPAN(obs, "recovery.run");
  CommModel comm(cluster);
  LocMPSScheduler planner(opt.planner);
  planner.attach_observability(obs);

  RecoveryResult out;
  out.masked = ProcessorSet(P);
  if (met != nullptr)
    met->set("fault.injected", static_cast<double>(plan.events().size()));

  SchedulerResult plan0 = planner.schedule(g, cluster);
  out.planned_makespan = plan0.estimated_makespan;
  Schedule current = std::move(plan0.schedule);

  // One noise factor per task, fixed for the whole loop: every round
  // replays the same reality, which is what makes recovery deterministic.
  const std::vector<double> noise =
      make_noise_factors(n, opt.runtime_noise, opt.seed);
  std::vector<double> release(n, 0.0);
  std::vector<std::size_t> attempts(n, 0);
  std::vector<char> announced(P, 0);
  std::vector<char> mitigated(n, 0);  // at most one mitigation per task

  SimOptions sim;
  sim.noise_factors = &noise;
  sim.release_times = &release;
  sim.faults = &plan;
  sim.perturb = opt.perturb;

  // Emits one "fault.fail" per processor whose failure the runtime has now
  // observed (onset <= up_to).
  auto announce = [&](double up_to) {
    for (const FaultEvent& e : plan.events()) {
      if (e.fail_at > up_to || announced[e.proc] != 0) continue;
      announced[e.proc] = 1;
      if (met != nullptr) met->add("fault.procs_failed");
      if (obs::wants_events(obs))
        obs->sink->emit(
            obs::Event("fault.fail")
                .with("proc", e.proc)
                .with("at", e.fail_at)
                .with("repairs", e.repair_at != kNeverRepaired)
                .with("repair_at",
                      e.repair_at == kNeverRepaired ? -1.0 : e.repair_at));
    }
  };

  auto giveup = [&](SimResult&& run, std::string why) {
    out.completed = false;
    out.error = std::move(why);
    out.executed = std::move(run.executed);
    out.makespan = out.executed.makespan();
    if (met != nullptr) {
      met->add("recovery.giveups");
      met->set("recovery.rounds", static_cast<double>(out.rounds));
      met->set("recovery.masked_procs",
               static_cast<double>(out.masked.count()));
    }
    if (obs::wants_events(obs))
      obs->sink->emit(obs::Event("recovery.giveup")
                          .with("reason", out.error)
                          .with("rounds",
                                static_cast<std::uint64_t>(out.rounds)));
    return out;
  };

  // The degraded-cluster replan at instant `at`, shared by the failure and
  // the straggler path. Everything that started by `at` keeps its realized
  // window, except the `cancelled` task; compute work that an `in_flight`
  // kill will end later keeps running, since that kill is not observable
  // yet and is handled when it replays. The rest is released no earlier
  // than `at` and re-planned on the processors outside out.masked.
  struct Replanned {
    std::string error;  ///< non-empty: too few survivors, give up with it
    std::size_t survivors = 0;
    std::size_t frozen = 0;
    double estimated = 0.0;
  };
  auto replan_at = [&](const SimResult& run, double at, TaskId cancelled,
                       const std::vector<const TaskKill*>& in_flight) {
    Replanned r;
    ProcessorSet survivors = cluster.all();
    survivors -= out.masked;
    r.survivors = survivors.count();
    const std::size_t min_width = std::max<std::size_t>(1, opt.min_procs);
    if (r.survivors < min_width) {
      r.error = "cluster degraded below minimum width: " +
                std::to_string(r.survivors) + " survivors < " +
                std::to_string(min_width) + " required";
      return r;
    }
    const double eps = 1e-9 * std::max(1.0, std::fabs(at));
    Schedule committed(n, P);
    std::vector<char> frozen(n, 0);
    for (TaskId t = 0; t < n; ++t) {
      const Placement& pe = run.executed.at(t);
      if (t != cancelled && pe.scheduled() && pe.start <= at + eps) {
        frozen[t] = 1;
        committed.place(t, pe.busy_from, pe.start, pe.finish, pe.procs);
        ++r.frozen;
      }
    }
    for (const TaskKill* k : in_flight) {
      if (k->kind != TaskKill::Kind::kCompute || k->start > at + eps)
        continue;
      frozen[k->task] = 1;
      committed.place(k->task, k->busy_from, k->start, k->planned_finish,
                      current.at(k->task).procs);
      ++r.frozen;
    }
    for (TaskId t = 0; t < n; ++t)
      if (frozen[t] == 0) release[t] = std::max(release[t], at);

    FixedPrefix fixed;
    fixed.frozen = std::move(frozen);
    fixed.placements = &committed;
    fixed.not_before = at;
    fixed.available = &survivors;
    SchedulerResult re = planner.schedule_with_fixed(g, cluster, fixed);
    current = std::move(re.schedule);
    r.estimated = re.estimated_makespan;
    return r;
  };

  while (out.rounds < opt.max_rounds) {
    ++out.rounds;
    SimResult run = simulate_execution(g, current, comm, sim);
    if (run.clean()) {
      // A clean (kill-free) round may still contain stragglers: tasks that
      // ran past straggler_threshold x their modeled time. The runtime
      // notices at the deadline instant; mitigate the earliest detection
      // and re-run. Each task is mitigated at most once, so this loop
      // terminates.
      if (opt.straggler_threshold > 0.0) {
        TaskId straggler = kNoTask;
        double detect_at = 0.0;
        for (TaskId t = 0; t < n; ++t) {
          if (mitigated[t] != 0) continue;
          const Placement& pe = run.executed.at(t);
          if (!pe.scheduled()) continue;
          const double deadline =
              pe.start +
              opt.straggler_threshold * g.task(t).profile.time(pe.np());
          const double tol = 1e-9 * std::max(1.0, std::fabs(deadline));
          if (pe.finish <= deadline + tol) continue;
          if (straggler == kNoTask || deadline < detect_at) {
            straggler = t;
            detect_at = deadline;
          }
        }
        if (straggler != kNoTask) {
          const Placement pe = run.executed.at(straggler);  // copy; run moves
          const double modeled = g.task(straggler).profile.time(pe.np());
          ++out.stragglers;
          mitigated[straggler] = 1;
          if (met != nullptr) met->add("mitigation.stragglers");
          if (obs::wants_events(obs))
            obs->sink->emit(obs::Event("mitigation.straggler")
                                .with("task", straggler)
                                .with("start", pe.start)
                                .with("at", detect_at)
                                .with("realized_s", pe.finish - pe.start)
                                .with("modeled_s", modeled));

          if (opt.straggler_mitigation == StragglerMitigation::kSpeculate) {
            // Speculative re-execution: launch a copy of the straggler on
            // the least-slowed, least-loaded healthy processors outside its
            // own set. The first finisher wins; the loser is cancelled at
            // the winner's finish and its processor-seconds are waste.
            // Occupancy counts only work already underway at the detection
            // instant — the runtime cannot see future finish times, and
            // displaced not-yet-started tasks are re-serialized by the
            // next simulation round (their delay lands in the realized
            // makespan, not in a clairvoyant candidate choice).
            std::vector<double> busy_until(P, 0.0);
            for (TaskId t2 = 0; t2 < n; ++t2) {
              const Placement& p2 = run.executed.at(t2);
              if (!p2.scheduled() || p2.start > detect_at) continue;
              p2.procs.for_each([&](ProcId q) {
                busy_until[q] = std::max(busy_until[q], p2.finish);
              });
            }
            std::vector<ProcId> cand;
            for (ProcId q = 0; q < P; ++q) {
              if (pe.procs.contains(q) || out.masked.contains(q)) continue;
              if (!plan.alive(q, detect_at)) continue;
              cand.push_back(q);
            }
            const std::size_t w = pe.np();
            if (cand.size() >= w) {
              const PerturbationPlan* const pp = opt.perturb;
              std::sort(cand.begin(), cand.end(), [&](ProcId a, ProcId b) {
                const double sa = pp ? pp->slowdown(a, detect_at) : 1.0;
                const double sb = pp ? pp->slowdown(b, detect_at) : 1.0;
                // Deterministic sort key tie-break. LINT-ALLOW(float-eq)
                if (sa != sb) return sa < sb;
                if (busy_until[a] != busy_until[b])  // LINT-ALLOW(float-eq)
                  return busy_until[a] < busy_until[b];
                return a < b;
              });
              ProcessorSet spec(P);
              double free_at = detect_at;
              for (std::size_t i = 0; i < w; ++i) {
                spec.insert(cand[i]);
                free_at = std::max(free_at, busy_until[cand[i]]);
              }
              // The copy re-fetches its inputs from the producers'
              // checkpointed outputs.
              double data_at = 0.0;
              for (EdgeId e : g.in_edges(straggler)) {
                const Edge& ed = g.edge(e);
                const Placement& ps = run.executed.at(ed.src);
                const double rv =
                    remote_volume(ed.volume_bytes, ps.procs, spec);
                data_at = std::max(
                    data_at,
                    ps.finish + comm.transfer_duration(rv, ps.np(), w));
              }
              const double spec_start = std::max(free_at, data_at);
              double factor = noise[straggler];
              if (pp != nullptr && !pp->task_noise().empty())
                factor *= pp->task_noise()[straggler];
              const double spec_finish =
                  pp != nullptr
                      ? pp->compute_finish(spec, spec_start,
                                           modeled * factor)
                      : spec_start + modeled * factor;
              ++out.speculations;
              const bool copy_wins = spec_finish < pe.finish;
              double wasted;
              if (copy_wins) {
                // Adopt the copy: the original is cancelled the instant
                // the copy finishes. The recorded time window is kept from
                // the plan — event_sim replays in recorded-start order and
                // that order must stay precedence-consistent — only the
                // processor set changes; the copy's actual launch instant
                // is enforced through its release time.
                const Placement& cur = current.at(straggler);
                current.place(straggler, cur.busy_from, cur.start,
                              cur.finish, spec);
                release[straggler] =
                    std::max(release[straggler], spec_start);
                wasted = static_cast<double>(pe.np()) *
                         (spec_finish - pe.start);
                ++out.spec_wins;
              } else {
                wasted = static_cast<double>(w) *
                         std::max(0.0, pe.finish - spec_start);
                ++out.spec_losses;
              }
              out.mitigation_wasted_seconds += wasted;
              if (met != nullptr) {
                met->add("mitigation.speculations");
                met->add(copy_wins ? "mitigation.spec_wins"
                                   : "mitigation.spec_losses");
                met->add("mitigation.wasted_seconds", wasted);
              }
              if (obs::wants_events(obs))
                obs->sink->emit(
                    obs::Event("mitigation.speculate")
                        .with("task", straggler)
                        .with("at", detect_at)
                        .with("width", static_cast<std::uint64_t>(w))
                        .with("spec_start", spec_start)
                        .with("spec_finish", spec_finish)
                        .with("orig_finish", pe.finish)
                        .with("winner", copy_wins ? "copy" : "original")
                        .with("wasted_s", wasted));
            }
          } else {
            // Straggler replan: cancel the straggler at the detection
            // instant, distrust the slowed members of its placement, and
            // re-plan the remaining work around the frozen prefix — the
            // degraded-replan path, triggered by a slowdown instead of a
            // failure.
            if (opt.perturb != nullptr)
              pe.procs.for_each([&](ProcId q) {
                if (opt.perturb->slowdown(q, detect_at) > 1.0)
                  out.masked.insert(q);
              });
            const Replanned re = replan_at(run, detect_at, straggler, {});
            if (!re.error.empty()) return giveup(std::move(run), re.error);
            const double wasted =
                static_cast<double>(pe.np()) * (detect_at - pe.start);
            out.mitigation_wasted_seconds += wasted;
            ++out.straggler_replans;
            if (met != nullptr) {
              met->add("mitigation.replans");
              met->add("mitigation.wasted_seconds", wasted);
              met->set("recovery.masked_procs",
                       static_cast<double>(out.masked.count()));
            }
            if (obs::wants_events(obs))
              obs->sink->emit(
                  obs::Event("mitigation.replan")
                      .with("task", straggler)
                      .with("at", detect_at)
                      .with("masked",
                            static_cast<std::uint64_t>(out.masked.count()))
                      .with("survivors",
                            static_cast<std::uint64_t>(re.survivors))
                      .with("frozen", static_cast<std::uint64_t>(re.frozen))
                      .with("estimated", re.estimated)
                      .with("wasted_s", wasted));
          }
          continue;
        }
      }
      if (obs != nullptr) {
        // Re-run the final, clean round with observability attached so the
        // usual "sim.*" counters and transfer events describe exactly the
        // realized execution (faulty rounds stay silent — their transfers
        // never completed as accounted).
        SimOptions fin = sim;
        fin.obs = obs;
        run = simulate_execution(g, current, comm, fin);
      }
      out.executed = std::move(run.executed);
      out.makespan = run.makespan;
      out.completed = true;
      if (met != nullptr) {
        met->set("recovery.rounds", static_cast<double>(out.rounds));
        met->set("recovery.masked_procs",
                 static_cast<double>(out.masked.count()));
      }
      if (obs::wants_events(obs))
        obs->sink->emit(
            obs::Event("recovery.done")
                .with("rounds", static_cast<std::uint64_t>(out.rounds))
                .with("kills", static_cast<std::uint64_t>(out.kills))
                .with("retries", static_cast<std::uint64_t>(out.retries))
                .with("replans", static_cast<std::uint64_t>(out.replans))
                .with("stragglers",
                      static_cast<std::uint64_t>(out.stragglers))
                .with("wasted_s", out.wasted_proc_seconds)
                .with("mitigation_wasted_s", out.mitigation_wasted_seconds)
                .with("makespan", out.makespan));
      return out;
    }

    // The recovery decision happens at the earliest kill: later kills are
    // not yet observable (the work is still running) — they replay
    // identically next round and are handled then.
    const double t_k = run.kills.front().at;
    const double eps = 1e-9 * std::max(1.0, std::fabs(t_k));
    announce(t_k);

    std::vector<const TaskKill*> now;
    std::vector<const TaskKill*> later;
    for (const TaskKill& k : run.kills)
      (k.at <= t_k + eps ? now : later).push_back(&k);

    for (const TaskKill* k : now) {
      ++out.kills;
      if (k->kind == TaskKill::Kind::kTransfer) ++out.transfer_timeouts;
      out.wasted_proc_seconds += k->wasted_s;
      if (met != nullptr) {
        met->add("fault.kills");
        if (k->kind == TaskKill::Kind::kTransfer)
          met->add("fault.transfer_timeouts");
        met->add("fault.wasted_proc_seconds", k->wasted_s);
      }
      if (obs::wants_events(obs))
        obs->sink->emit(obs::Event("fault.kill")
                            .with("task", k->task)
                            .with("proc", k->proc)
                            .with("at", k->at)
                            .with("start", k->start)
                            .with("kind", kind_str(k->kind))
                            .with("wasted_s", k->wasted_s));
    }

    if (opt.policy == RecoveryPolicy::kRetryInPlace) {
      for (const TaskKill* k : now) {
        const TaskId t = k->task;
        if (++attempts[t] > opt.max_retries)
          return giveup(std::move(run),
                        "task " + g.task(t).name + " killed " +
                            std::to_string(attempts[t]) +
                            " times, exceeding max_retries=" +
                            std::to_string(opt.max_retries));
        // The task restarts on its original processors once they are all
        // usable again, plus an exponential backoff.
        double resume = k->at;
        bool never_repaired = false;
        ProcId never_q = 0;
        current.at(t).procs.for_each([&](ProcId q) {
          if (plan.alive(q, k->at)) return;
          const double r = plan.repaired_at(q, k->at);
          // kNeverRepaired is a sentinel, compared exactly by design.
          if (r == kNeverRepaired) {  // LINT-ALLOW(float-eq)
            if (!never_repaired) {
              never_repaired = true;
              never_q = q;
            }
          } else {
            resume = std::max(resume, r);
          }
        });
        if (never_repaired)
          return giveup(std::move(run),
                        "processor " + std::to_string(never_q) +
                            " never repairs; retry-in-place cannot re-run "
                            "task " +
                            g.task(t).name);
        const double backoff =
            opt.backoff_base_s *
            std::pow(opt.backoff_factor,
                     static_cast<double>(attempts[t] - 1));
        release[t] = std::max(release[t], resume + backoff);
        ++out.retries;
        out.backoff_seconds += backoff;
        if (met != nullptr) {
          met->add("recovery.retries");
          met->add("recovery.backoff_seconds", backoff);
        }
        if (obs::wants_events(obs))
          obs->sink->emit(
              obs::Event("recovery.retry")
                  .with("task", t)
                  .with("attempt",
                        static_cast<std::uint64_t>(attempts[t]))
                  .with("at", k->at)
                  .with("resume", release[t]));
      }
    } else {
      // Degraded-cluster replan: distrust every processor known failed by
      // the decision instant (monotone — each replan masks at least one
      // new onset, bounding the number of replans by the cluster size).
      out.masked |= plan.failed_by(t_k);
      const Replanned re = replan_at(run, t_k, kNoTask, later);
      if (!re.error.empty()) return giveup(std::move(run), re.error);
      ++out.replans;
      if (met != nullptr) {
        met->add("recovery.replans");
        met->set("recovery.masked_procs",
                 static_cast<double>(out.masked.count()));
      }
      if (obs::wants_events(obs))
        obs->sink->emit(
            obs::Event("recovery.replan")
                .with("at", t_k)
                .with("survivors", static_cast<std::uint64_t>(re.survivors))
                .with("masked",
                      static_cast<std::uint64_t>(out.masked.count()))
                .with("frozen", static_cast<std::uint64_t>(re.frozen))
                .with("estimated", re.estimated));
    }
  }

  SimResult last;
  last.executed = Schedule(n, P);
  return giveup(std::move(last),
                "recovery did not converge within max_rounds=" +
                    std::to_string(opt.max_rounds));
}

}  // namespace locmps
