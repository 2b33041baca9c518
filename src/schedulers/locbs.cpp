#include "schedulers/locbs.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "graph/algorithms.hpp"
#include "network/block_cyclic.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "schedule/timeline.hpp"
#include "schedulers/incremental.hpp"
#include "util/stats.hpp"

namespace locmps {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative tolerance for "same instant" comparisons.
bool about(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}
bool later_than(double a, double b) {
  return a > b + 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// A candidate placement found during the hole scan.
struct Candidate {
  double finish = kInf;
  double start = 0.0;
  double busy_from = 0.0;
  bool resource_induced = false;  ///< start delayed by processor contention
  double touch = 0.0;             ///< instant whose finishers blocked us
  /// 0 = locality-first, 1 = horizon-first, 2 = shadow (ReferenceScan)
  int subset = -1;
  std::vector<ProcId> procs;      ///< ascending
};

/// Two candidates are the same decision if they commit the same processors
/// at the same instant; only a distinct one qualifies as the runner-up
/// (otherwise the margin degenerates to 0).
bool distinct(const Candidate& a, const Candidate& b) {
  return a.procs != b.procs || !about(a.start, b.start);
}

/// True when two candidates are the same placement bit for bit: the same
/// subset ordering, processors and window. Both scans time a subset with
/// one formula, so an exact hole scan matches the reference exactly.
bool same_placement(const Candidate& a, const Candidate& b) {
  return a.subset == b.subset && a.procs == b.procs &&
         a.busy_from == b.busy_from &&                // LINT-ALLOW(float-eq)
         a.start == b.start && a.finish == b.finish;  // LINT-ALLOW(float-eq)
}

/// Computes into \p ps the execution times, allocation-stage edge costs,
/// bottom levels, and the static priority bottomL(t) + max incoming edge
/// weight (Alg. 2 step 4) of \p np. The topological order is
/// graph-constant: a state reused across the passes of one run (the
/// IncrementalContext's) computes it once.
void compute_priorities(const TaskGraph& g, const Allocation& np,
                        const CommModel& comm, const LocBSOptions& opt,
                        PriorityState& ps, obs::ObsContext* obs) {
  const std::size_t n = g.num_tasks();
  const std::size_t ne = g.num_edges();
  {
    LOCMPS_SPAN(obs, "locbs.edge_costs");
    ps.et.resize(n);
    ps.west.assign(ne, 0.0);
    // slack_factor > 1 books reservations longer than the profile
    // predicts (slack-aware placement); every downstream consumer —
    // priorities, hole feasibility, occupancy, G' vertex times — sees
    // the inflated model consistently.
    for (TaskId t = 0; t < n; ++t)
      ps.et[t] = g.task(t).profile.time(np[t]) * opt.slack_factor;
    if (!opt.comm_blind)
      for (EdgeId e = 0; e < ne; ++e)
        ps.west[e] = comm.edge_cost(g.edge(e).volume_bytes,
                                    np[g.edge(e).src], np[g.edge(e).dst]);
  }
  LOCMPS_SPAN(obs, "locbs.priority");
  if (ps.order.size() != n) ps.order = topological_order(g);
  ps.bottom.assign(n, 0.0);
  for (auto it = ps.order.rbegin(); it != ps.order.rend(); ++it) {
    const TaskId t = *it;
    double below = 0.0;
    for (EdgeId e : g.out_edges(t))
      below = std::max(below, ps.west[e] + ps.bottom[g.edge(e).dst]);
    ps.bottom[t] = ps.et[t] + below;
  }
  ps.prio.resize(n);
  for (TaskId t = 0; t < n; ++t) {
    double max_in = 0.0;
    for (EdgeId e : g.in_edges(t)) max_in = std::max(max_in, ps.west[e]);
    ps.prio[t] = ps.bottom[t] + max_in;
  }
}

/// The committed state of one pass: what the hole scan reads and the
/// commit writes.
struct Chart {
  Chart(const TaskGraph& g, std::size_t P)
      : timeline(P),
        res{Schedule(g.num_tasks(), P), ScheduleDag(g), 0.0},
        ft(g.num_tasks(), 0.0),
        placed(g.num_tasks()),
        done(g.num_tasks(), 0) {}

  Timeline timeline;
  LocBSResult res;
  std::vector<double> ft;
  std::vector<std::vector<ProcId>> placed;  ///< ascending proc lists
  std::vector<char> done;
  /// Sorted, deduplicated finish times of placed tasks: the only instants
  /// at which processor availability changes (every busy window ends at a
  /// task finish), hence the complete set of hole-start candidates.
  std::vector<double> finish_events;
  /// Placed tasks ascending by (finish, id): the tasks that finish at each
  /// instant, where the pseudo-edge rule looks them up.
  std::vector<TaskId> finishers;

  /// The order of `finishers`.
  bool finishes_before(TaskId a, TaskId b) const {
    return ft[a] < ft[b] || (ft[a] == ft[b] && a < b);  // LINT-ALLOW(float-eq)
  }

  /// Files placed task \p t under its finish.
  void add_finisher(TaskId t) {
    auto before = [&](TaskId a, TaskId b) { return finishes_before(a, b); };
    if (finishers.empty() || before(finishers.back(), t))
      finishers.push_back(t);  // the frontier: most placements land here
    else
      finishers.insert(
          std::upper_bound(finishers.begin(), finishers.end(), t, before), t);
  }
};

/// What both scans of one ready task read from the chart before they
/// probe: the task's ready time, its data-carrying in-edges, and the bytes
/// of its input resident on each processor (Alg. 2 step 9's locality
/// score). None of it is a shortcut, so the scans share one copy.
struct TaskInputs {
  void load(const TaskGraph& g, const LocBSOptions& opt,
            const FixedPrefix* fixed, const Chart& chart, TaskId t,
            std::size_t np, double et) {
    task = t;
    need = np;
    exec = et;
    est0 = fixed != nullptr ? fixed->not_before : 0.0;
    for (EdgeId e : g.in_edges(t))
      est0 = std::max(est0, chart.ft[g.edge(e).src]);
    score.assign(chart.timeline.num_procs(), 0.0);
    comm_edges.clear();
    if (!opt.comm_blind)
      for (EdgeId e : g.in_edges(t))
        if (g.edge(e).volume_bytes > 0.0) comm_edges.push_back(e);
    if (!opt.locality) return;
    for (EdgeId e : comm_edges) {
      const Edge& ed = g.edge(e);
      const std::vector<ProcId>& src = chart.placed[ed.src];
      const double share = ed.volume_bytes / static_cast<double>(src.size());
      for (ProcId q : src) score[q] += share;
    }
  }

  TaskId task = kNoTask;
  std::size_t need = 0;            ///< processors to acquire, np(t)
  double exec = 0.0;               ///< execution time on `need` processors
  double est0 = 0.0;               ///< ready time
  std::vector<EdgeId> comm_edges;  ///< in-edges that carry data
  std::vector<double> score;       ///< bytes of input resident per proc
};

/// Alg. 2's eligibility test at probe instant \p tau: a processor idle
/// there (\p avail), usable under the survivor mask, whose idle window
/// lasts at least until tau + exec (a busy window can only end later
/// than that). Fills \p eligible and, for each eligible processor, its
/// free-until horizon in \p until_of (-1 elsewhere).
void filter_eligible(double tau, const TaskInputs& in,
                     const std::vector<Timeline::FreeProc>& avail,
                     const FixedPrefix* fixed, std::vector<double>& until_of,
                     std::vector<ProcId>& eligible) {
  std::fill(until_of.begin(), until_of.end(), -1.0);
  eligible.clear();
  for (const auto& f : avail) {
    if (fixed != nullptr && !fixed->usable(f.proc)) continue;
    if (f.until >= tau + in.exec) {
      until_of[f.proc] = f.until;
      eligible.push_back(f.proc);
    }
  }
}

/// Probe instants of the no-backfill variant (Fig 6): each processor's
/// latest free time, raised to the ready time, ascending and deduplicated.
/// Holes earlier in the chart are ignored.
void latest_free_instants(const Timeline& tl, double est0,
                          std::vector<double>& taus) {
  taus.clear();
  for (ProcId q = 0; q < tl.num_procs(); ++q)
    taus.push_back(std::max(est0, tl.latest_free_time(q)));
  std::sort(taus.begin(), taus.end(), total_less);
  taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
}

/// Remote bytes (\p rvol) and redistribution duration (\p durs) of each
/// data-carrying in-edge of the task onto \p procs: only the block-cyclic
/// remote volume crosses the network (Section III-B).
void redistribute(const TaskGraph& g, const Chart& chart,
                  const CommModel& comm, bool locality, const TaskInputs& in,
                  const std::vector<ProcId>& procs, std::vector<double>& rvol,
                  std::vector<double>& durs) {
  rvol.resize(in.comm_edges.size());
  durs.resize(in.comm_edges.size());
  for (std::size_t k = 0; k < in.comm_edges.size(); ++k) {
    const Edge& ed = g.edge(in.comm_edges[k]);
    const std::vector<ProcId>& src = chart.placed[ed.src];
    rvol[k] = locality ? ed.volume_bytes * remote_fraction(src, procs)
                       : ed.volume_bytes;
    durs[k] = comm.transfer_duration(rvol[k], src.size(), in.need);
  }
}

/// Times \p c, a subset acquired at probe instant \p tau whose in-edge
/// redistributions take \p durs: start, finish, busy-from, and whether
/// processor contention (not data) delayed it.
void time_slot(const TaskGraph& g, const Chart& chart, const TaskInputs& in,
               bool overlap, double tau, const std::vector<double>& durs,
               Candidate& c) {
  double arrive = in.est0;  // latest input arrival (overlap mode)
  double comm_total = 0.0;
  for (std::size_t k = 0; k < in.comm_edges.size(); ++k) {
    comm_total += durs[k];
    const TaskId src = g.edge(in.comm_edges[k]).src;
    arrive = std::max(arrive, chart.ft[src] + durs[k]);
  }
  if (overlap) {
    c.start = std::max(tau, arrive);
    c.busy_from = c.start;
    c.resource_induced = later_than(tau, arrive);
    c.touch = c.start;
  } else {
    // Transfers occupy the destination processors and serialize.
    const double base = std::max(tau, in.est0);
    c.start = base + comm_total;
    c.busy_from = base;
    c.resource_induced = later_than(tau, in.est0);
    c.touch = base;
  }
  c.finish = c.start + in.exec;
}

/// The hole scan of one ready task: probes the chart for the processor
/// subset with the earliest finish and realizes the winner as a
/// ReplayStep for the commit. It reads the chart and writes
/// nothing to it; the buffers it reuses across placements are its own.
///
/// Four shortcuts keep it fast, and each is exact: the sweep cursor
/// answers the ascending availability queries, a per-subset cache keeps
/// redistribution durations across probe instants, a monotone lower
/// bound stops the scan once no later instant can finish earlier, and,
/// for a one-processor task, a jump skips the instants at which no
/// processor's own finish fits its idle window and beats the incumbent.
/// Skipped instants are counted as probed, so the telemetry is the
/// literal walk's. The ReferenceScan below has none of the shortcuts and
/// checks the winner.
class HoleScan {
 public:
  HoleScan(const TaskGraph& g, const CommModel& comm, const LocBSOptions& opt,
           const FixedPrefix* fixed, const Chart& chart, obs::ObsContext* obs)
      : g_(g),
        comm_(comm),
        opt_(opt),
        fixed_(fixed),
        chart_(chart),
        obs_(obs),
        P_(comm.cluster().processors),
        until_of_(P_),
        sweep_(chart.timeline) {
    eligible_.reserve(P_);
    sel_.reserve(P_);
  }

  /// Scans for the task whose inputs are \p in and returns the winner.
  const Candidate& run(const TaskInputs& in) {
    in_ = &in;
    holes_probed_ = 0;
    pruned_ = false;
    evals_before_ = comm_.evals_cell() != nullptr ? *comm_.evals_cell() : 0.0;
    best_.finish = kInf;
    solo_ready_ = false;
    for (auto& c : durs_cache_) c.procs.clear();

    // Lower bounds on data arrival / total transfer time over *any*
    // processor subset of size `need`: at best min(s, need) of a parent's s
    // blocks-per-period can stay local (lcm-period argument), so at least
    // the remaining fraction must cross the network. Used to prune the hole
    // scan.
    arrive_lb_ = in.est0;
    comm_lb_ = 0.0;
    for (EdgeId e : in.comm_edges) {
      const Edge& ed = g_.edge(e);
      const std::size_t s = chart_.placed[ed.src].size();
      double frac_min = 1.0;
      if (opt_.locality) {
        const std::size_t gg = std::gcd(s, in.need);
        const double L =
            static_cast<double>(s / gg) * static_cast<double>(in.need);
        frac_min = 1.0 - static_cast<double>(std::min(s, in.need)) / L;
      }
      const double dur_min =
          comm_.transfer_duration(ed.volume_bytes * frac_min, s, in.need);
      arrive_lb_ = std::max(arrive_lb_, chart_.ft[ed.src] + dur_min);
      comm_lb_ += dur_min;
    }

    // Monotone pruning: any later hole acquires processors at >= next_tau,
    // and no subset beats the arrival lower bound.
    auto stop_before = [&](double next_tau) {
      pruned_ = cut_at(next_tau);
      return pruned_;
    };

    LOCMPS_SPAN(obs_, "locbs.hole_scan");
    const std::vector<double>& events = chart_.finish_events;
    if (opt_.backfill) {
      // Probe instants ascend (est0, then every later finish event), so the
      // sweep cursor answers each availability query in amortized O(1) per
      // processor.
      auto next_ev = std::upper_bound(events.begin(), events.end(), in.est0);
      double tau = in.est0;
      for (;;) {
        sweep_.available_at(tau, avail_);
        const double incumbent = best_.finish;
        probe(tau, avail_);
        if (next_ev == events.end() || stop_before(*next_ev)) break;
        // A one-processor task jumps once a probe leaves the incumbent in
        // place. Wide tasks do not: one processor's finish bounds them
        // weakly, and a query then costs about what the probes it skips do.
        if (in.need == 1 && !(best_.finish < incumbent)) {
          next_ev = jump(next_ev, events.end());
          if (pruned_ || next_ev == events.end()) break;
        }
        tau = *next_ev;
        ++next_ev;
      }
    } else {
      // Only processors free from tau on are available.
      const Timeline& tl = chart_.timeline;
      latest_free_instants(tl, in.est0, taus_);
      for (std::size_t i = 0; i < taus_.size(); ++i) {
        avail_.clear();
        for (ProcId q = 0; q < P_; ++q)
          if (tl.latest_free_time(q) <= taus_[i])
            avail_.push_back(Timeline::FreeProc{q, kForever});
        probe(taus_[i], avail_);
        if (i + 1 < taus_.size() && stop_before(taus_[i + 1])) break;
      }
    }
    if (!(best_.finish < kInf))
      throw std::logic_error("locbs: no feasible slot found");
    return best_;
  }

  /// Fills \p s with the placement of \p c, a candidate for the task of
  /// the last run: timings, processors, realized G' in-edge weights,
  /// pseudo-edges, and the scan's telemetry.
  void realize(const Candidate& c, ReplayStep& s) {
    s.task = in_->task;
    s.np = in_->need;
    s.busy_from = c.busy_from;
    s.start = c.start;
    s.finish = c.finish;
    s.procs = c.procs;
    s.pset = ProcessorSet(P_);
    for (ProcId q : c.procs) s.pset.insert(q);

    // Realized G' in-edge weights, and the realized redistribution split:
    // bytes that stay on shared block-cyclic-aligned processors vs. bytes
    // that cross the network (Section III-B locality saving).
    s.edge_times.clear();
    s.edge_times.reserve(in_->comm_edges.size());
    s.local_bytes = s.remote_bytes = 0.0;
    const std::vector<EdgeId>& comm_edges = in_->comm_edges;
    if (!comm_edges.empty()) {
      const std::vector<double>& durs = durs_for(c.procs, 2);
      const std::vector<double>& rvol = durs_cache_[2].rvol;
      for (std::size_t k = 0; k < comm_edges.size(); ++k) {
        s.edge_times.emplace_back(comm_edges[k], durs[k]);
        s.remote_bytes += rvol[k];
        s.local_bytes += g_.edge(comm_edges[k]).volume_bytes - rvol[k];
      }
    }

    // Pseudo-edges for resource-induced waiting (Alg. 2 steps 17-18): every
    // placed task finishing exactly when we could finally proceed and
    // sharing a processor with us, in ascending id. No parent qualifies: a
    // resource-induced wait ends strictly after the ready time, which no
    // parent outlasts. The finishes within about() of touch are adjacent
    // in the chart's finish order.
    s.pseudo_preds.clear();
    if (c.resource_induced) {
      const std::vector<TaskId>& fin = chart_.finishers;
      auto it = std::partition_point(fin.begin(), fin.end(), [&](TaskId u) {
        return chart_.ft[u] < c.touch;
      });
      while (it != fin.begin() && about(chart_.ft[*std::prev(it)], c.touch))
        --it;
      for (; it != fin.end() && about(chart_.ft[*it], c.touch); ++it)
        if (chart_.res.schedule.at(*it).procs.intersection_count(s.pset) > 0)
          s.pseudo_preds.push_back(*it);
      std::sort(s.pseudo_preds.begin(), s.pseudo_preds.end());
    }

    s.holes_probed = static_cast<std::uint32_t>(holes_probed_);
    s.subset = static_cast<std::uint8_t>(c.subset);
    s.pruned = pruned_;
    // Chart frontier before this placement: a task that acquires its
    // processors strictly earlier was backfilled into a hole.
    const std::vector<double>& events = chart_.finish_events;
    s.backfilled =
        later_than(events.empty() ? 0.0 : events.back(), c.busy_from);
    s.cost_evals = comm_.evals_cell() != nullptr
                       ? *comm_.evals_cell() - evals_before_
                       : 0.0;
  }

 private:
  using EventIt = std::vector<double>::const_iterator;

  /// Earliest conceivable finish when acquiring processors at \p tau.
  double finish_lb(double tau) const {
    return comm_.overlap() ? std::max(tau, arrive_lb_) + in_->exec
                           : std::max(tau, in_->est0) + comm_lb_ + in_->exec;
  }

  /// True when no instant from \p tau on can beat the incumbent.
  bool cut_at(double tau) const {
    return best_.finish < kInf && best_.finish <= finish_lb(tau);
  }

  /// Skips the probe instants [\p next, \p end) of a one-processor task
  /// that cannot change the incumbent, and returns the next one to probe.
  /// A probe can only win with an eligible processor q whose own finish
  /// fits q's idle window and beats the incumbent; that finish does not
  /// decrease with the instant, so Timeline::Sweep::first_fit finds the
  /// first instant where some q has one. The literal walk would have
  /// probed every instant before it without a win, and stopped at the
  /// first whose finish bound reaches the incumbent (finish_lb does not
  /// decrease either). The skipped probes are counted, and when that stop
  /// comes first it sets pruned_ as the walk would have; the return value
  /// is then \p end.
  EventIt jump(EventIt next, EventIt end) {
    const EventIt stop = std::partition_point(
        next, end, [&](double tau) { return !cut_at(tau); });
    const double limit = stop == end ? kForever : *stop;
    if (!solo_ready_) time_solo();
    const bool overlap = comm_.overlap();
    const double exec = in_->exec;
    const double est0 = in_->est0;
    // time_slot's finish for the subset {q}.
    const double hit = sweep_.first_fit(
        *next, limit, best_.finish, [&](ProcId q, double tau) {
          return overlap ? std::max(tau, solo_[q]) + exec
                         : std::max(tau, est0) + solo_[q] + exec;
        });
    const EventIt to = std::lower_bound(next, stop, hit);
    holes_probed_ += static_cast<std::size_t>(to - next);
    if (to != stop) return to;
    pruned_ = stop != end;
    return end;
  }

  /// Fills solo_ with what the finish of the task on one processor q
  /// depends on besides the probe instant: q's data arrival with overlap,
  /// its serialized transfer time without (time_slot's arrive and
  /// comm_total for the subset {q}; unusable processors get kInf). A
  /// one-processor subset keeps a source's blocks local only on a
  /// processor that holds them, so each data-carrying in-edge has two
  /// durations, computed as redistribute() computes them.
  void time_solo() {
    const TaskInputs& in = *in_;
    const bool overlap = comm_.overlap();
    solo_.assign(P_, overlap ? in.est0 : 0.0);
    holds_.resize(P_);
    for (EdgeId e : in.comm_edges) {
      const Edge& ed = g_.edge(e);
      const std::vector<ProcId>& src = chart_.placed[ed.src];
      for (ProcId q : src) holds_[q] = 1;
      ProcId other = 0;  // the lowest processor not holding the source
      while (other < P_ && holds_[other]) ++other;
      const double on_holder = solo_duration(ed, src, src.front());
      const double elsewhere =
          other < P_ ? solo_duration(ed, src, other) : on_holder;
      for (ProcId q = 0; q < P_; ++q) {
        const double d = holds_[q] ? on_holder : elsewhere;
        solo_[q] = overlap ? std::max(solo_[q], chart_.ft[ed.src] + d)
                           : solo_[q] + d;
      }
      for (ProcId q : src) holds_[q] = 0;
    }
    if (fixed_ != nullptr)
      for (ProcId q = 0; q < P_; ++q)
        if (!fixed_->usable(q)) solo_[q] = kInf;
    solo_ready_ = true;
  }

  /// redistribute()'s duration of edge \p ed from \p src onto {\p q}.
  double solo_duration(const Edge& ed, const std::vector<ProcId>& src,
                       ProcId q) {
    one_.assign(1, q);
    const double rvol = opt_.locality
                            ? ed.volume_bytes * remote_fraction(src, one_)
                            : ed.volume_bytes;
    return comm_.transfer_duration(rvol, src.size(), 1);
  }

  struct DursCache {
    std::vector<ProcId> procs;
    std::vector<double> durs;
    std::vector<double> rvol;  ///< remote bytes per comm edge (pre-duration)
  };

  /// Redistribution durations of each comm edge onto \p procs. Candidate
  /// subsets repeat heavily across probe instants, so one keyed cache per
  /// subset flavour (locality-first, horizon-first, commit) removes most
  /// remote_fraction work. A task without a data-carrying in-edge has no
  /// durations, so it skips the cache.
  const std::vector<double>& durs_for(const std::vector<ProcId>& procs,
                                      int slot) {
    static const std::vector<double> kNoDurs;
    if (in_->comm_edges.empty()) return kNoDurs;
    DursCache& c = durs_cache_[slot];
    if (procs == c.procs) return c.durs;
    // Span at the cache-miss level only: a per-remote_fraction span would
    // dominate the hole scan it is meant to measure.
    LOCMPS_SPAN(obs_, "locbs.redist_durs");
    c.procs = procs;
    redistribute(g_, chart_, comm_, opt_.locality, *in_, procs, c.rvol,
                 c.durs);
    return c.durs;
  }

  /// Probes instant \p tau: tries two subsets of the processors idle there —
  /// the locality-maximal one (Alg. 2 step 9) and the widest-horizon one
  /// (whose windows survive redistribution-delayed starts) — and keeps
  /// whichever yields the earliest feasible finish.
  void probe(double tau, const std::vector<Timeline::FreeProc>& avail) {
    ++holes_probed_;
    filter_eligible(tau, *in_, avail, fixed_, until_of_, eligible_);
    const std::size_t need = in_->need;
    if (eligible_.size() < need) return;
    const std::vector<double>& score = in_->score;
    // Times the `need` first eligible processors under `before` and keeps
    // them if they stay free until the finish and finish first.
    auto consider = [&](int slot, auto before) {
      sel_.assign(eligible_.begin(), eligible_.end());
      std::nth_element(sel_.begin(), sel_.begin() + need - 1, sel_.end(),
                       before);
      sel_.resize(need);
      std::sort(sel_.begin(), sel_.end());
      cand_.procs = sel_;
      cand_.subset = slot;
      time_slot(g_, chart_, *in_, comm_.overlap(), tau, durs_for(sel_, slot),
                cand_);
      for (ProcId q : cand_.procs)
        if (until_of_[q] < cand_.finish) return;
      if (cand_.finish < best_.finish) std::swap(best_, cand_);
    };
    // Locality-first subset (ties broken towards longer idle windows).
    consider(0, [&](ProcId a, ProcId b) {
      if (score[a] != score[b]) return score[a] > score[b];
      if (until_of_[a] != until_of_[b]) return until_of_[a] > until_of_[b];
      return a < b;
    });
    // Horizon-first subset (widest windows).
    consider(1, [&](ProcId a, ProcId b) {
      if (until_of_[a] != until_of_[b]) return until_of_[a] > until_of_[b];
      if (score[a] != score[b]) return score[a] > score[b];
      return a < b;
    });
  }

  // Inputs, fixed for the pass.
  const TaskGraph& g_;
  const CommModel& comm_;
  const LocBSOptions& opt_;
  const FixedPrefix* const fixed_;
  const Chart& chart_;
  obs::ObsContext* const obs_;
  const std::size_t P_;

  // The task under scan.
  const TaskInputs* in_ = nullptr;
  double arrive_lb_ = 0.0;  ///< finish_lb() inputs
  double comm_lb_ = 0.0;

  // Per-placement telemetry.
  std::size_t holes_probed_ = 0;
  bool pruned_ = false;
  double evals_before_ = 0.0;

  // Candidate buffers reused across placements (their proc vectors keep
  // their capacity; the per-task reset is finish = kInf).
  Candidate best_, cand_;

  DursCache durs_cache_[3];
  std::vector<double> until_of_;
  std::vector<ProcId> eligible_, sel_;
  std::vector<Timeline::FreeProc> avail_;
  std::vector<double> taus_;
  // The jump's per-task inputs (time_solo), filled on its first query.
  bool solo_ready_ = false;
  std::vector<double> solo_;
  std::vector<char> holds_;
  std::vector<ProcId> one_;
  Timeline::Sweep sweep_;
};

/// Alg. 2 taken literally for one task against the current chart, with
/// none of HoleScan's shortcuts: it probes the ready time and every later
/// finish event (with backfill off, each processor's latest free time),
/// asks the timeline itself which processors are free, sorts every subset
/// on its full key, recomputes every duration, and prunes nothing. It also
/// scores the anti-locality shadow subset, which shows what the locality
/// preference bought; the shadow may be the runner-up, never the winner.
///
/// locbs() runs it beside the hole scan only when a sink or the perturb
/// hook is attached. It checks the hole scan's winner, and it supplies
/// the decision record's candidates and margin and the runner-up that
/// the perturb hook commits.
class ReferenceScan {
 public:
  ReferenceScan(const TaskGraph& g, const CommModel& comm,
                const LocBSOptions& opt, const FixedPrefix* fixed,
                const Chart& chart)
      : g_(g),
        comm_(comm.cluster()),  // a copy that counts no evaluations
        opt_(opt),
        fixed_(fixed),
        chart_(chart),
        until_of_(comm.cluster().processors) {}

  /// Scores every candidate of the task whose inputs are \p in, in probe
  /// order, then picks the winner and the runner-up.
  void run(const TaskInputs& in) {
    scored_.clear();
    if (opt_.backfill) {
      taus_.assign(1, in.est0);
      for (double f : chart_.finish_events)
        if (f > in.est0) taus_.push_back(f);
    } else {
      latest_free_instants(chart_.timeline, in.est0, taus_);
    }
    for (double tau : taus_) {
      chart_.timeline.available_at(tau, avail_);
      if (!opt_.backfill)  // only processors free from tau on
        std::erase_if(avail_, [](const Timeline::FreeProc& f) {
          return f.until < kForever;
        });
      probe(in, tau);
    }

    // The winner: the earliest finish of a real subset, first scored on
    // ties. The runner-up: the earliest candidate distinct from it that
    // does not finish before it, first scored on ties.
    win_ = second_ = nullptr;
    for (const Scored& x : scored_)
      if (x.c.subset != 2 && (win_ == nullptr || x.c.finish < win_->finish))
        win_ = &x.c;
    if (win_ == nullptr) return;
    for (const Scored& x : scored_)
      if (!(x.c.finish < win_->finish) && distinct(x.c, *win_) &&
          (second_ == nullptr || x.c.finish < second_->finish))
        second_ = &x.c;
  }

  /// The winner and the runner-up of the last run (null when none).
  const Candidate* winner() const { return win_; }
  const Candidate* runner_up() const { return second_; }

  /// Emits the "locbs.decision" record of the committed step \p s, which
  /// placed candidate \p c: the one record of a placement
  /// (obs/provenance.hpp documents the schema). Its probe count and prune
  /// flag are the hole scan's; its candidates and margin are this scan's.
  void emit(obs::EventSink& sink, const TaskInputs& in, const ReplayStep& s,
            const Candidate& c, double prio, bool perturbed) const {
    obs::PlacementDecision d;
    d.task = s.task;
    d.np = s.np;
    d.prio = prio;
    d.est = in.est0;
    d.start = s.start;
    d.finish = s.finish;
    d.busy_from = s.busy_from;
    d.backfill_branch = opt_.backfill;
    d.locality_branch = opt_.locality;
    d.comm_blind = opt_.comm_blind;
    d.backfilled = s.backfilled;
    d.pruned = s.pruned;
    d.perturbed = perturbed;
    d.holes_probed = s.holes_probed;
    d.candidates_scored = scored_.size();
    // Margin over the distinct runner-up, measured before any perturbation:
    // it describes the scan, not the commit.
    d.margin = second_ != nullptr ? second_->finish - win_->finish : -1.0;
    d.local_bytes = s.local_bytes;
    d.remote_bytes = s.remote_bytes;
    obs::ShortlistRecorder shortlist;
    for (const Scored& x : scored_)
      shortlist.offer(prov(in, x.c, x.tau, x.remote_bytes));
    d.winner = shortlist.ensure(prov(in, c, c.touch, s.remote_bytes));
    d.shortlist = shortlist.entries();
    sink.emit(obs::decision_event(d));
  }

 private:
  /// A feasible candidate, the instant that produced it, and the bytes it
  /// would pull over the network.
  struct Scored {
    Candidate c;
    double tau = 0.0;
    double remote_bytes = 0.0;
  };

  static obs::ProvCandidate prov(const TaskInputs& in, const Candidate& c,
                                 double tau, double remote_bytes) {
    obs::ProvCandidate pc;
    pc.tau = tau;
    pc.subset = c.subset;
    pc.start = c.start;
    pc.finish = c.finish;
    pc.busy_from = c.busy_from;
    pc.remote_bytes = remote_bytes;
    for (ProcId q : c.procs) pc.locality_score += in.score[q];
    pc.procs = c.procs;
    return pc;
  }

  /// Scores the subsets of the processors eligible at \p tau.
  void probe(const TaskInputs& in, double tau) {
    filter_eligible(tau, in, avail_, fixed_, until_of_, eligible_);
    if (eligible_.size() < in.need) return;
    const std::vector<double>& score = in.score;
    // The `need` first eligible processors in ascending `key` order.
    auto take = [&](int subset, auto key) {
      std::sort(eligible_.begin(), eligible_.end(),
                [&](ProcId a, ProcId b) { return key(a) < key(b); });
      Scored x;
      x.tau = tau;
      x.c.subset = subset;
      const auto end = eligible_.begin() + static_cast<std::ptrdiff_t>(in.need);
      x.c.procs.assign(eligible_.begin(), end);
      std::sort(x.c.procs.begin(), x.c.procs.end());
      redistribute(g_, chart_, comm_, opt_.locality, in, x.c.procs, rvol_,
                   durs_);
      time_slot(g_, chart_, in, comm_.overlap(), tau, durs_, x.c);
      for (ProcId q : x.c.procs)
        if (until_of_[q] < x.c.finish) return;
      for (double v : rvol_) x.remote_bytes += v;
      scored_.push_back(std::move(x));
    };
    // Locality-first: most resident input, then the longest idle window.
    take(0, [&](ProcId q) { return std::tuple(-score[q], -until_of_[q], q); });
    // Horizon-first: the longest idle window, then most resident input.
    take(1, [&](ProcId q) { return std::tuple(-until_of_[q], -score[q], q); });
    // Shadow: least resident input, then the longest idle window.
    if (eligible_.size() > in.need)
      take(2, [&](ProcId q) { return std::tuple(score[q], -until_of_[q], q); });
  }

  const TaskGraph& g_;
  const CommModel comm_;
  const LocBSOptions& opt_;
  const FixedPrefix* const fixed_;
  const Chart& chart_;

  std::vector<Scored> scored_;
  const Candidate* win_ = nullptr;  // into scored_
  const Candidate* second_ = nullptr;
  std::vector<double> taus_, until_of_, rvol_, durs_;
  std::vector<ProcId> eligible_;
  std::vector<Timeline::FreeProc> avail_;
};

/// Reads the step log of a finished pass once: adds the eight locbs.*
/// counters one step at a time in commit order (resolving them creates
/// the full family at zero), credits comm.cost_evals with the evaluations
/// the \p replayed leading steps skipped, and, for a pass given a context
/// (\p streamed), adds the incr.* split. The commit writes no counter.
void fold_log(const std::vector<ReplayStep>& log, std::size_t placed,
              std::size_t replayed, bool streamed, const CommModel& comm,
              obs::MetricsRegistry* met) {
  if (double* evals = comm.evals_cell(); evals != nullptr)
    for (std::size_t k = 0; k < replayed; ++k) *evals += log[k].cost_evals;
  if (met == nullptr) return;
  double& tasks_placed = *met->cell_ptr("locbs.tasks_placed");
  double& holes_scanned = *met->cell_ptr("locbs.holes_scanned");
  double& backfill_hits = *met->cell_ptr("locbs.backfill_hits");
  double& scan_cutoffs = *met->cell_ptr("locbs.scan_cutoffs");
  double& locality_wins = *met->cell_ptr("locbs.locality_subset_wins");
  double& horizon_wins = *met->cell_ptr("locbs.horizon_subset_wins");
  double& local_bytes = *met->cell_ptr("locbs.local_bytes");
  double& remote_bytes = *met->cell_ptr("locbs.remote_bytes");
  for (std::size_t k = 0; k < placed; ++k) {
    const ReplayStep& s = log[k];
    tasks_placed += 1.0;
    holes_scanned += static_cast<double>(s.holes_probed);
    if (s.backfilled) backfill_hits += 1.0;
    if (s.pruned) scan_cutoffs += 1.0;
    if (s.subset == 0) locality_wins += 1.0;  // a shadow (2) is neither
    if (s.subset == 1) horizon_wins += 1.0;
    local_bytes += s.local_bytes;
    remote_bytes += s.remote_bytes;
  }
  if (!streamed) return;
  met->add("incr.dirty_tasks", static_cast<double>(placed - replayed));
  met->add("incr.replayed_tasks", static_cast<double>(replayed));
  if (replayed == 0) met->add("incr.full_rebuilds");
}

}  // namespace

LocBSResult locbs(const TaskGraph& g, const Allocation& np,
                  const CommModel& comm, const LocBSOptions& opt,
                  const FixedPrefix* fixed, obs::ObsContext* obs,
                  IncrementalContext* incr) {
  const std::size_t n = g.num_tasks();
  const std::size_t P = comm.cluster().processors;
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  LOCMPS_SPAN(obs, "locbs.pass");
  if (met != nullptr) met->add("locbs.calls");
  if (np.size() != n)
    throw std::invalid_argument("locbs: allocation size mismatch");
  if (!(opt.slack_factor >= 1.0))
    throw std::invalid_argument("locbs: slack_factor must be >= 1.0");
  if (fixed != nullptr && fixed->available != nullptr &&
      fixed->available->capacity() != P)
    throw std::invalid_argument(
        "locbs: FixedPrefix availability mask sized for a different cluster");
  // Non-frozen allocations must fit the survivor set when a degraded
  // cluster mask is active; frozen placements predate the failures and
  // may legitimately be wider.
  const std::size_t usable =
      (fixed != nullptr && fixed->available != nullptr)
          ? fixed->available->count()
          : P;
  for (std::size_t t = 0; t < n; ++t) {
    if (np[t] < 1 || np[t] > P)
      throw std::invalid_argument("locbs: np out of range");
    if (np[t] > usable && !(fixed != nullptr && fixed->is_frozen(t)))
      throw std::invalid_argument(
          "locbs: np exceeds the available (non-failed) processors");
  }

  // Every pass logs its steps: into the caller's context, whose log holds
  // the stream's previous pass, or else into a pass-local one that nothing
  // replays against (schedulers/incremental.hpp).
  IncrementalContext own;
  IncrementalContext& ctx = incr != nullptr ? *incr : own;
  std::vector<ReplayStep>& log = ctx.steps;
  PriorityState& ps = ctx.prio_state;
  compute_priorities(g, np, comm, opt, ps, obs);
  const std::vector<double>& prio = ps.prio;

  Chart chart(g, P);
  LocBSResult& res = chart.res;
  std::vector<double>& finish_events = chart.finish_events;
  finish_events.reserve(n);
  chart.finishers.reserve(n);

  // Import the frozen prefix (tasks already executing at replan time).
  std::size_t n_frozen = 0;
  if (fixed != nullptr) {
    if (fixed->placements == nullptr)
      throw std::invalid_argument("locbs: FixedPrefix without placements");
    for (TaskId t = 0; t < n; ++t) {
      if (!fixed->is_frozen(t)) continue;
      const Placement& pl = fixed->placements->at(t);
      if (!pl.scheduled())
        throw std::invalid_argument("locbs: frozen task not placed");
      res.schedule.place(t, pl.busy_from, pl.start, pl.finish, pl.procs);
      chart.timeline.occupy(pl.procs, pl.busy_from, pl.finish);
      finish_events.push_back(pl.finish);
      chart.ft[t] = pl.finish;
      chart.placed[t] = pl.procs.to_vector();
      chart.done[t] = 1;
      chart.finishers.push_back(t);
      res.dag.set_vertex_time(t, pl.finish - pl.start);
      ++n_frozen;
    }
    std::sort(chart.finishers.begin(), chart.finishers.end(),
              [&](TaskId a, TaskId b) { return chart.finishes_before(a, b); });
    std::sort(finish_events.begin(), finish_events.end(), total_less);
    finish_events.erase(
        std::unique(finish_events.begin(), finish_events.end()),
        finish_events.end());
  }

  std::vector<std::size_t> waiting(n);
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < n; ++t) {
    if (chart.done[t]) continue;
    std::size_t open = 0;
    for (EdgeId e : g.in_edges(t)) open += chart.done[g.edge(e).src] ? 0 : 1;
    waiting[t] = open;
    if (open == 0) ready.push_back(t);
  }

  // Commits one placement: the one writer of the chart, the G' weights
  // and pseudo-edges (Alg. 2 steps 17-18), and the ready list. A scanned
  // placement and a replayed one both land here.
  auto commit = [&](const ReplayStep& s) {
    const TaskId t = s.task;
    chart.timeline.occupy(s.pset, s.busy_from, s.finish);
    const auto it = std::lower_bound(finish_events.begin(),
                                     finish_events.end(), s.finish);
    if (it == finish_events.end() || *it != s.finish)
      finish_events.insert(it, s.finish);
    res.schedule.place(t, s.busy_from, s.start, s.finish, s.pset);
    chart.placed[t] = s.procs;
    chart.ft[t] = s.finish;
    chart.done[t] = 1;
    chart.add_finisher(t);
    res.dag.set_vertex_time(t, ps.et[t]);
    for (const auto& [e, w] : s.edge_times) res.dag.set_edge_time(e, w);
    for (TaskId pd : s.pseudo_preds) res.dag.add_pseudo_edge(pd, t);
    for (EdgeId e : g.out_edges(t))
      if (--waiting[g.edge(e).dst] == 0) ready.push_back(g.edge(e).dst);
  };

  HoleScan scan(g, comm, opt, fixed, chart, obs);
  // The reference scan checks every placement of a traced or perturbed
  // pass, whose decision records and runner-up only it computes.
  std::optional<ReferenceScan> ref;
  if (obs::wants_events(obs) || opt.perturb_task != kNoTask)
    ref.emplace(g, comm, opt, fixed, chart);
  TaskInputs in;
  const std::size_t to_place = n - n_frozen;
  log.reserve(to_place);
  // Incremental replay (docs/incremental.md): the log's previous pass is
  // replayed step by step while the live priority pick and its processor
  // count match it; the first divergent pick ends replay, and the
  // remainder is scanned into the log in place. A placement is a
  // deterministic function of (picked task, its np, the committed prefix),
  // so a matching pick guarantees a bit-identical step, telemetry
  // included. A pass-local log is empty, so such a pass scans every step.
  std::size_t replayed = 0;
  for (std::size_t k = 0; k < to_place; ++k) {
    // Highest-priority ready task; equal priorities go to the lower task
    // id, so the tie-break is exact on purpose.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      const double a = prio[ready[i]], b = prio[ready[pick]];
      if (a > b || (a == b && ready[i] < ready[pick]))  // LINT-ALLOW(float-eq)
        pick = i;
    }
    const TaskId tp = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    if (replayed == k && k < log.size() && log[k].task == tp &&
        log[k].np == np[tp]) {
      commit(log[k]);
      ++replayed;
      continue;
    }

    LOCMPS_SPAN(obs, "locbs.place");
    in.load(g, opt, fixed, chart, tp, np[tp], ps.et[tp]);
    const Candidate* chosen = &scan.run(in);
    bool perturbed = false;
    if (ref) {
      ref->run(in);
      if (ref->winner() == nullptr || !same_placement(*chosen, *ref->winner()))
        throw std::logic_error("locbs: hole scan missed the reference winner");
      // Seeded-divergence hook: adopt the runner-up for this one task so a
      // controlled placement flip exists for rundiff attribution tests.
      perturbed = tp == opt.perturb_task && ref->runner_up() != nullptr;
      if (perturbed) chosen = ref->runner_up();
    }
    LOCMPS_SPAN(obs, "locbs.commit");
    if (k == log.size()) log.emplace_back();
    scan.realize(*chosen, log[k]);
    commit(log[k]);
    if (obs::wants_events(obs))
      ref->emit(*obs->sink, in, log[k], *chosen, prio[tp], perturbed);
  }
  fold_log(log, to_place, replayed, incr != nullptr, comm, met);

  res.makespan = res.schedule.makespan();
  return std::move(res);
}

}  // namespace locmps
