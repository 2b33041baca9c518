#include "schedule/event_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "network/block_cyclic.hpp"
#include "obs/profile.hpp"

namespace locmps {

std::vector<double> make_noise_factors(std::size_t num_tasks, double noise,
                                       std::uint64_t seed) {
  std::vector<double> factors(num_tasks, 1.0);
  if (noise > 0.0) {
    Rng rng(seed);
    for (auto& f : factors) f = 1.0 + rng.uniform(-noise, noise);
  }
  return factors;
}

SimResult simulate_execution(const TaskGraph& g, const Schedule& s,
                             const CommModel& comm, const SimOptions& opt) {
  if (!s.complete())
    throw std::invalid_argument("simulate_execution: incomplete schedule");
  const std::size_t n = g.num_tasks();
  const std::size_t P = s.num_procs();
  const FaultPlan* const fp = opt.faults;
  if (fp != nullptr && fp->processors() != P)
    throw std::invalid_argument(
        "simulate_execution: fault plan sized for a different cluster");
  const PerturbationPlan* const pp = opt.perturb;
  if (pp != nullptr && pp->processors() != P)
    throw std::invalid_argument(
        "simulate_execution: perturbation plan sized for a different "
        "cluster");
  if (pp != nullptr && !pp->task_noise().empty() &&
      pp->task_noise().size() != n)
    throw std::invalid_argument(
        "simulate_execution: perturbation task noise sized for a different "
        "graph");

  // Per-task multiplicative runtime perturbation.
  std::vector<double> noise;
  if (opt.noise_factors != nullptr) {
    if (opt.noise_factors->size() != n)
      throw std::invalid_argument(
          "simulate_execution: noise_factors size mismatch");
    noise = *opt.noise_factors;
  } else {
    noise = make_noise_factors(n, opt.runtime_noise, opt.seed);
  }
  // The perturbation plan's bounded per-task noise composes with the
  // caller's factors (the recovery loop passes its own fixed vector).
  if (pp != nullptr && !pp->task_noise().empty())
    for (std::size_t t = 0; t < n; ++t) noise[t] *= pp->task_noise()[t];

  // Replay tasks in the schedule's start order: the schedule is precedence
  // consistent, so parents (and earlier tasks on shared processors) always
  // precede in this order.
  std::vector<TaskId> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Exact comparisons: tie-break levels of a deterministic sort key, not
  // tolerance checks (equal times must compare equal to reach the next
  // level and keep replay order stable).
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (s.at(a).start != s.at(b).start)  // LINT-ALLOW(float-eq)
      return s.at(a).start < s.at(b).start;
    if (s.at(a).busy_from != s.at(b).busy_from)  // LINT-ALLOW(float-eq)
      return s.at(a).busy_from < s.at(b).busy_from;
    return a < b;
  });

  std::vector<double> proc_free(P, 0.0);  // computation availability
  std::vector<double> port_free(P, 0.0);  // transfer-port availability
  std::vector<double> ft(n, 0.0);
  std::vector<char> dead(n, 0);  // killed by a fault, or skipped orphan
  SimResult res;
  res.executed = Schedule(n, P);

  obs::ObsContext* const obs = opt.obs;
  LOCMPS_SPAN(obs, "sim.execute");
  // Realized-redistribution telemetry, flushed once after the replay.
  std::uint64_t obs_transfers = 0, obs_local_edges = 0;

  for (TaskId t : order) {
    const Placement& plc = s.at(t);
    // A task whose ancestor was killed never gets its inputs: skip it.
    if (fp != nullptr) {
      bool orphan = false;
      for (EdgeId e : g.in_edges(t))
        if (dead[g.edge(e).src] != 0) {
          orphan = true;
          break;
        }
      if (orphan) {
        dead[t] = 1;
        ++res.skipped;
        continue;
      }
    }
    // Earliest failure that intersects this task's computation or one of
    // its incoming transfers. Strict < keeps the first offer on ties, so
    // the pick is deterministic (edges in order, procs ascending).
    double kill_at = std::numeric_limits<double>::infinity();
    ProcId kill_proc = 0;
    TaskKill::Kind kill_kind = TaskKill::Kind::kCompute;
    auto offer_kill = [&](double at, ProcId q, TaskKill::Kind k) {
      if (at < kill_at) {
        kill_at = at;
        kill_proc = q;
        kill_kind = k;
      }
    };

    double ready = 0.0;  // processors of t free for computation
    plc.procs.for_each(
        [&](ProcId q) { ready = std::max(ready, proc_free[q]); });
    if (opt.release_times != nullptr)
      ready = std::max(ready, (*opt.release_times)[t]);

    // Perform the incoming redistributions.
    double busy_from = ready;
    double data_arrived = 0.0;
    double serial_clock = ready;  // no-overlap: transfers occupy dst compute
    for (EdgeId e : g.in_edges(t)) {
      const Edge& ed = g.edge(e);
      const double rv =
          opt.locality_volumes
              ? remote_volume(ed.volume_bytes, s.at(ed.src).procs, plc.procs)
              : (s.at(ed.src).procs == plc.procs ? 0.0 : ed.volume_bytes);
      if (rv <= 0.0) {
        data_arrived = std::max(data_arrived, ft[ed.src]);
        if (ed.volume_bytes > 0.0) ++obs_local_edges;
        continue;
      }
      const double dur =
          comm.transfer_duration(rv, s.at(ed.src).np(), plc.np());
      double start = ft[ed.src];
      // Under fault injection a (re)planned consumer requests its inputs no
      // earlier than its release: a redistribution that timed out is
      // re-attempted after the recovery decision, not replayed into the
      // past (completed producers' data persists on disk).
      if (fp != nullptr && opt.release_times != nullptr)
        start = std::max(start, (*opt.release_times)[t]);
      if (!comm.overlap()) start = std::max(start, serial_clock);
      if (opt.single_port) {
        auto raise = [&](ProcId q) { start = std::max(start, port_free[q]); };
        s.at(ed.src).procs.for_each(raise);
        plc.procs.for_each(raise);
      }
      const double end =
          pp != nullptr ? pp->transfer_finish(start, dur) : start + dur;
      if (pp != nullptr && end > start + dur) {
        ++res.degraded_transfers;
        res.link_delay_seconds += end - (start + dur);
        if (obs::wants_events(obs))
          obs->sink->emit(obs::Event("perturb.link")
                              .with("edge", e)
                              .with("dst", t)
                              .with("begin", start)
                              .with("nominal_s", dur)
                              .with("delay_s", end - (start + dur)));
      }
      if (fp != nullptr) {
        // A failure onset at either endpoint strictly inside the transfer
        // window times the redistribution out and kills the consumer. A
        // transfer *starting* at or after the onset is a re-attempt: the
        // completed producer's data survives on disk, so it succeeds.
        auto scan = [&](const ProcessorSet& ps) {
          ps.for_each([&](ProcId q) {
            for (const FaultEvent& ev : fp->intervals_of(q)) {
              if (ev.fail_at >= end) break;  // onset-ordered
              if (ev.fail_at > start) {
                offer_kill(ev.fail_at, q, TaskKill::Kind::kTransfer);
                break;
              }
            }
          });
        };
        scan(s.at(ed.src).procs);
        scan(plc.procs);
      }
      if (opt.single_port) {
        auto claim = [&](ProcId q) { port_free[q] = end; };
        s.at(ed.src).procs.for_each(claim);
        plc.procs.for_each(claim);
      }
      if (!comm.overlap()) {
        serial_clock = end;
        // Without compute/transfer overlap the *sender* is also stalled
        // while its data drains (blocking I/O at both endpoints).
        s.at(ed.src).procs.for_each([&](ProcId q) {
          proc_free[q] = std::max(proc_free[q], end);
        });
      }
      data_arrived = std::max(data_arrived, end);
      res.total_transfer_bytes += rv;
      res.total_transfer_time += dur;
      ++obs_transfers;
      if (obs::wants_events(obs))
        obs->sink->emit(obs::Event("sim.transfer")
                            .with("edge", e)
                            .with("src", ed.src)
                            .with("dst", ed.dst)
                            .with("bytes", rv)
                            .with("begin", start)
                            .with("end", end));
    }

    const double st = comm.overlap() ? std::max(ready, data_arrived)
                                     : std::max(serial_clock, data_arrived);
    const double et = g.task(t).profile.time(plc.np()) * noise[t];
    const double fin =
        pp != nullptr ? pp->compute_finish(plc.procs, st, et) : st + et;
    if (pp != nullptr && fin > st + et) {
      ++res.slowed_tasks;
      res.stretch_seconds += fin - (st + et);
      if (obs::wants_events(obs))
        obs->sink->emit(obs::Event("perturb.slow")
                            .with("task", t)
                            .with("start", st)
                            .with("nominal_s", et)
                            .with("stretch_s", fin - (st + et)));
    }
    if (fp != nullptr) {
      plc.procs.for_each([&](ProcId q) {
        if (!fp->alive(q, st)) {
          offer_kill(st, q, TaskKill::Kind::kDeadAtStart);
        } else {
          double f = 0.0;
          if (fp->first_onset(q, st, fin, &f))
            offer_kill(f, q, TaskKill::Kind::kCompute);
        }
      });
      if (kill_at < std::numeric_limits<double>::infinity()) {
        TaskKill k;
        k.task = t;
        k.proc = kill_proc;
        k.at = kill_at;
        k.kind = kill_kind;
        k.busy_from = std::min(busy_from, st);
        k.start = st;
        k.planned_finish = fin;
        if (kill_kind == TaskKill::Kind::kCompute) {
          k.wasted_s = (kill_at - st) * static_cast<double>(plc.np());
          // The processors were busy on the doomed task until the kill.
          plc.procs.for_each([&](ProcId q) {
            proc_free[q] = std::max(proc_free[q], kill_at);
          });
        }
        res.kills.push_back(k);
        dead[t] = 1;
        continue;
      }
    }
    ft[t] = fin;
    if (!comm.overlap()) busy_from = std::min(busy_from, st);
    plc.procs.for_each([&](ProcId q) { proc_free[q] = ft[t]; });
    res.executed.place(t, std::min(busy_from, st), st, ft[t], plc.procs);
  }
  std::sort(res.kills.begin(), res.kills.end(),
            [](const TaskKill& a, const TaskKill& b) {
              // Deterministic sort key tie-break. LINT-ALLOW(float-eq)
              if (a.at != b.at) return a.at < b.at;
              return a.task < b.task;
            });
  res.makespan = res.executed.makespan();
  if (obs::MetricsRegistry* const met = obs::metrics_of(obs);
      met != nullptr) {
    met->add("sim.transfers", static_cast<double>(obs_transfers));
    met->add("sim.local_edges", static_cast<double>(obs_local_edges));
    met->add("sim.remote_bytes", res.total_transfer_bytes);
    met->add("sim.transfer_seconds", res.total_transfer_time);
    if (pp != nullptr) {
      met->add("perturb.slowed_tasks", static_cast<double>(res.slowed_tasks));
      met->add("perturb.stretch_seconds", res.stretch_seconds);
      met->add("perturb.degraded_transfers",
               static_cast<double>(res.degraded_transfers));
      met->add("perturb.link_delay_seconds", res.link_delay_seconds);
    }
  }
  return res;
}

}  // namespace locmps
