#include "schedulers/locbs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

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
  int subset = -1;                ///< 0 = locality-first, 1 = horizon-first
  std::vector<ProcId> procs;      ///< ascending
};

/// Two candidates are the same decision if they commit the same processors
/// at the same instant; only a distinct one qualifies as the runner-up
/// (otherwise the margin degenerates to 0).
bool distinct(const Candidate& a, const Candidate& b) {
  return a.procs != b.procs || !about(a.start, b.start);
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
};

/// The per-placement "locbs.*" counter cells, resolved once per pass
/// instead of ~8 string-keyed registry lookups per placement (cell
/// addresses are stable; obs/metrics.hpp). Resolving creates the counters
/// at zero, so a pass always exposes the full locbs.* family.
struct PlaceCells {
  explicit PlaceCells(obs::MetricsRegistry* met) {
    if (met == nullptr) return;
    tasks_placed = met->cell_ptr("locbs.tasks_placed");
    holes_scanned = met->cell_ptr("locbs.holes_scanned");
    backfill_hits = met->cell_ptr("locbs.backfill_hits");
    scan_cutoffs = met->cell_ptr("locbs.scan_cutoffs");
    locality_wins = met->cell_ptr("locbs.locality_subset_wins");
    horizon_wins = met->cell_ptr("locbs.horizon_subset_wins");
    local_bytes = met->cell_ptr("locbs.local_bytes");
    remote_bytes = met->cell_ptr("locbs.remote_bytes");
  }

  /// Counts one committed placement; a no-op without a registry.
  void add(const ReplayStep& s) const {
    if (tasks_placed == nullptr) return;
    *tasks_placed += 1.0;
    *holes_scanned += static_cast<double>(s.holes_probed);
    if (s.backfilled) *backfill_hits += 1.0;
    if (s.pruned) *scan_cutoffs += 1.0;
    *(s.subset == 0 ? locality_wins : horizon_wins) += 1.0;
    *local_bytes += s.local_bytes;
    *remote_bytes += s.remote_bytes;
  }

  double* tasks_placed = nullptr;
  double* holes_scanned = nullptr;
  double* backfill_hits = nullptr;
  double* scan_cutoffs = nullptr;
  double* locality_wins = nullptr;
  double* horizon_wins = nullptr;
  double* local_bytes = nullptr;
  double* remote_bytes = nullptr;
};

/// The hole scan of one ready task: probes the chart for the processor
/// subset with the earliest finish and realizes the winner as a
/// ReplayStep for the commit. It reads the chart and writes
/// nothing to it; the buffers it reuses across placements are its own.
///
/// When provenance or the perturb hook asks, the scan also tracks the
/// distinct runner-up, scores anti-locality shadow subsets, records the
/// shortlist, and probes a few instants past the prune point. None of
/// that can change the winner.
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
        want_prov_(obs::wants_events(obs)),
        score_(P_),
        until_of_(P_),
        sweep_(chart.timeline),
        is_parent_(g.num_tasks(), 0) {
    eligible_.reserve(P_);
    sel_.reserve(P_);
  }

  /// Scans for task \p t, which needs \p need processors for \p exec
  /// each, and returns the winner.
  const Candidate& run(TaskId t, std::size_t need, double exec) {
    t_ = t;
    need_ = need;
    exec_ = exec;
    want_second_ = want_prov_ || t == opt_.perturb_task;
    holes_probed_ = 0;
    pruned_ = false;
    cands_scored_ = 0;
    evals_before_ = comm_.evals_cell() != nullptr ? *comm_.evals_cell() : 0.0;
    best_.finish = kInf;
    second_.finish = kInf;
    shadows_.clear();
    shortlist_.clear();
    for (auto& c : durs_cache_) c.procs.clear();

    // Ready time and per-processor locality score.
    est0_ = fixed_ != nullptr ? fixed_->not_before : 0.0;
    for (EdgeId e : g_.in_edges(t))
      est0_ = std::max(est0_, chart_.ft[g_.edge(e).src]);
    std::fill(score_.begin(), score_.end(), 0.0);
    comm_edges_.clear();
    if (!opt_.comm_blind)
      for (EdgeId e : g_.in_edges(t))
        if (g_.edge(e).volume_bytes > 0.0) comm_edges_.push_back(e);
    if (opt_.locality) {
      for (EdgeId e : comm_edges_) {
        const Edge& ed = g_.edge(e);
        const std::vector<ProcId>& src = chart_.placed[ed.src];
        const double share =
            ed.volume_bytes / static_cast<double>(src.size());
        for (ProcId q : src) score_[q] += share;
      }
    }

    // Lower bounds on data arrival / total transfer time over *any*
    // processor subset of size `need`: at best min(s, need) of a parent's s
    // blocks-per-period can stay local (lcm-period argument), so at least
    // the remaining fraction must cross the network. Used to prune the hole
    // scan.
    arrive_lb_ = est0_;
    comm_lb_ = 0.0;
    for (EdgeId e : comm_edges_) {
      const Edge& ed = g_.edge(e);
      const std::size_t s = chart_.placed[ed.src].size();
      double frac_min = 1.0;
      if (opt_.locality) {
        const std::size_t gg = std::gcd(s, need);
        const double L =
            static_cast<double>(s / gg) * static_cast<double>(need);
        frac_min = 1.0 - static_cast<double>(std::min(s, need)) / L;
      }
      const double dur_min =
          comm_.transfer_duration(ed.volume_bytes * frac_min, s, need);
      arrive_lb_ = std::max(arrive_lb_, chart_.ft[ed.src] + dur_min);
      comm_lb_ += dur_min;
    }

    // Monotone pruning: any later hole acquires processors at >= next_tau,
    // and no subset beats the arrival lower bound. When a runner-up is
    // wanted, the scan keeps probing a few instants past the prune point:
    // finish_lb guarantees those candidates cannot beat the winner, but they
    // populate the shortlist and give the margin / perturb hook a distinct
    // alternative that the pruned scan would never see.
    constexpr std::size_t kProvExtension = 8;
    std::size_t extension = 0;
    auto stop_before = [&](double next_tau) {
      if (!(best_.finish < kInf && best_.finish <= finish_lb(next_tau)))
        return false;
      pruned_ = true;
      return !want_second_ || second_.finish < kInf ||
             ++extension > kProvExtension;
    };

    LOCMPS_SPAN(obs_, "locbs.hole_scan");
    const std::vector<double>& events = chart_.finish_events;
    if (opt_.backfill) {
      // Probe instants ascend (est0, then every later finish event), so the
      // sweep cursor answers each availability query in amortized O(1) per
      // processor.
      auto next_ev = std::upper_bound(events.begin(), events.end(), est0_);
      double tau = est0_;
      for (;;) {
        sweep_.available_at(tau, avail_);
        probe(tau, avail_);
        if (next_ev == events.end() || stop_before(*next_ev)) break;
        tau = *next_ev;
        ++next_ev;
      }
    } else {
      // No-backfill variant (Fig 6): only the latest free time of each
      // processor is consulted; holes earlier in the chart are ignored.
      const Timeline& tl = chart_.timeline;
      taus_.clear();
      for (ProcId q = 0; q < P_; ++q)
        taus_.push_back(std::max(est0_, tl.latest_free_time(q)));
      std::sort(taus_.begin(), taus_.end(), total_less);
      taus_.erase(std::unique(taus_.begin(), taus_.end()), taus_.end());
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

    // Fold the shadow alternatives into the runner-up: the earliest-
    // finishing one that is distinct from and no earlier than the winner (a
    // shadow must never flip the margin negative).
    for (const Candidate& s : shadows_) {
      if (s.finish < best_.finish || !distinct(s, best_)) continue;
      if (s.finish < second_.finish) second_ = s;
      break;
    }
    return best_;
  }

  /// The distinct runner-up of the last run (finish = kInf when there is
  /// none or nobody asked for one).
  const Candidate& second() const { return second_; }

  /// Fills \p s with the placement of \p c, the winner or runner-up of the
  /// last run: timings, processors, realized G' in-edge weights,
  /// pseudo-edges, and the scan's telemetry.
  void realize(const Candidate& c, ReplayStep& s) {
    s.task = t_;
    s.np = need_;
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
    s.local_bytes = s.remote_bytes = 0.0;
    if (!comm_edges_.empty()) {
      const std::vector<double>& durs = durs_for(c.procs, 3);
      const std::vector<double>& rvol = durs_cache_[3].rvol;
      for (std::size_t k = 0; k < comm_edges_.size(); ++k) {
        s.edge_times.emplace_back(comm_edges_[k], durs[k]);
        s.remote_bytes += rvol[k];
        s.local_bytes += g_.edge(comm_edges_[k]).volume_bytes - rvol[k];
      }
    }

    // Pseudo-edges for resource-induced waiting (Alg. 2 steps 17-18): every
    // placed task finishing exactly when we could finally proceed and
    // sharing a processor with us. Direct parents already impose the
    // dependence; skip them.
    s.pseudo_preds.clear();
    if (c.resource_induced) {
      for (EdgeId e : g_.in_edges(t_)) is_parent_[g_.edge(e).src] = 1;
      for (TaskId ti = 0; ti < g_.num_tasks(); ++ti) {
        if (ti == t_ || !chart_.done[ti] || is_parent_[ti]) continue;
        if (about(chart_.ft[ti], c.touch) &&
            chart_.res.schedule.at(ti).procs.intersection_count(s.pset) > 0)
          s.pseudo_preds.push_back(ti);
      }
      for (EdgeId e : g_.in_edges(t_)) is_parent_[g_.edge(e).src] = 0;
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

  /// Emits the "locbs.decision" record of the committed step \p s, the one
  /// record of a placement (obs/provenance.hpp documents the schema).
  void emit(obs::EventSink& sink, const ReplayStep& s, const Candidate& c,
            double prio, bool perturbed) {
    obs::PlacementDecision d;
    d.task = s.task;
    d.np = s.np;
    d.prio = prio;
    d.est = est0_;
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
    d.candidates_scored = cands_scored_;
    // Margin over the distinct runner-up, measured before any perturbation:
    // it describes the scan, not the commit.
    d.margin = second_.finish < kInf ? second_.finish - best_.finish : -1.0;
    d.local_bytes = s.local_bytes;
    d.remote_bytes = s.remote_bytes;
    obs::ProvCandidate win;
    win.tau = c.touch;
    win.subset = c.subset;
    win.start = c.start;
    win.finish = c.finish;
    win.busy_from = c.busy_from;
    win.remote_bytes = s.remote_bytes;
    for (ProcId q : c.procs) win.locality_score += score_[q];
    win.procs = c.procs;
    d.winner = shortlist_.ensure(win);
    d.shortlist = shortlist_.entries();
    sink.emit(obs::decision_event(d));
  }

 private:
  /// Earliest conceivable finish when acquiring processors at \p tau.
  double finish_lb(double tau) const {
    return comm_.overlap() ? std::max(tau, arrive_lb_) + exec_
                           : std::max(tau, est0_) + comm_lb_ + exec_;
  }

  struct DursCache {
    std::vector<ProcId> procs;
    std::vector<double> durs;
    std::vector<double> rvol;  ///< remote bytes per comm edge (pre-duration)
  };

  /// Redistribution durations of each comm edge onto \p procs. Candidate
  /// subsets repeat heavily across probe instants, so one keyed cache per
  /// subset flavour (locality-first, horizon-first, shadow, commit)
  /// removes most remote_fraction work.
  const std::vector<double>& durs_for(const std::vector<ProcId>& procs,
                                      int slot) {
    DursCache& c = durs_cache_[slot];
    if (procs == c.procs) return c.durs;
    // Span at the cache-miss level only: a per-remote_fraction span would
    // dominate the hole scan it is meant to measure.
    LOCMPS_SPAN(obs_, "locbs.redist_durs");
    c.procs = procs;
    c.durs.resize(comm_edges_.size());
    c.rvol.resize(comm_edges_.size());
    for (std::size_t k = 0; k < comm_edges_.size(); ++k) {
      const Edge& ed = g_.edge(comm_edges_[k]);
      const std::vector<ProcId>& src = chart_.placed[ed.src];
      const double rv = opt_.locality
                            ? ed.volume_bytes * remote_fraction(src, procs)
                            : ed.volume_bytes;
      c.rvol[k] = rv;
      c.durs[k] = comm_.transfer_duration(rv, src.size(), need_);
    }
    return c.durs;
  }

  /// Timing of a chosen processor subset: start / finish / busy-from.
  void time_on(double tau, const std::vector<ProcId>& procs, int slot,
               Candidate& c) {
    c.procs = procs;
    c.subset = slot;
    if (opt_.comm_blind || comm_edges_.empty()) {
      c.start = std::max(tau, est0_);
      c.busy_from = c.start;
      c.resource_induced = later_than(tau, est0_);
      c.touch = c.start;
      c.finish = c.start + exec_;
      return;
    }
    const std::vector<double>& durs = durs_for(procs, slot);
    double arrive = est0_;  // latest input arrival (overlap mode)
    double comm_total = 0.0;
    for (std::size_t k = 0; k < comm_edges_.size(); ++k) {
      comm_total += durs[k];
      const TaskId src = g_.edge(comm_edges_[k]).src;
      arrive = std::max(arrive, chart_.ft[src] + durs[k]);
    }
    if (comm_.overlap()) {
      c.start = std::max(tau, arrive);
      c.busy_from = c.start;
      c.resource_induced = later_than(tau, arrive);
      c.touch = c.start;
    } else {
      // Transfers occupy the destination processors and serialize.
      const double base = std::max(tau, est0_);
      c.start = base + comm_total;
      c.busy_from = base;
      c.resource_induced = later_than(tau, est0_);
      c.touch = base;
    }
    c.finish = c.start + exec_;
  }

  /// Counts a feasible candidate and, when tracing, offers it to the
  /// shortlist.
  void record(const Candidate& c, double tau) {
    ++cands_scored_;
    if (!want_prov_) return;
    obs::ProvCandidate pc;
    pc.tau = tau;
    pc.subset = c.subset;
    pc.start = c.start;
    pc.finish = c.finish;
    pc.busy_from = c.busy_from;
    for (EdgeId e : comm_edges_) {
      const Edge& ed = g_.edge(e);
      const std::vector<ProcId>& src = chart_.placed[ed.src];
      pc.remote_bytes += opt_.locality
                             ? ed.volume_bytes * remote_fraction(src, c.procs)
                             : ed.volume_bytes;
    }
    for (ProcId q : c.procs) pc.locality_score += score_[q];
    pc.procs = c.procs;
    shortlist_.offer(std::move(pc));
  }

  /// Probes instant \p tau: tries two subsets of the processors idle there —
  /// the locality-maximal one (Alg. 2 step 9) and the widest-horizon one
  /// (whose windows survive redistribution-delayed starts) — and keeps
  /// whichever yields the earliest feasible finish.
  void probe(double tau, const std::vector<Timeline::FreeProc>& avail) {
    ++holes_probed_;
    std::fill(until_of_.begin(), until_of_.end(), -1.0);
    eligible_.clear();
    for (const auto& f : avail) {
      // Masked-out (failed) processors take no new work.
      if (fixed_ != nullptr && !fixed_->usable(f.proc)) continue;
      // Necessary condition: the processor must stay free at least until
      // tau + exec (the busy window can only end later than that).
      if (f.until >= tau + exec_) {
        until_of_[f.proc] = f.until;
        eligible_.push_back(f.proc);
      }
    }
    if (eligible_.size() < need_) return;
    // The `need_` first eligible processors under `before`, ascending.
    auto select = [&](auto before) {
      sel_.assign(eligible_.begin(), eligible_.end());
      std::nth_element(sel_.begin(), sel_.begin() + need_ - 1, sel_.end(),
                       before);
      sel_.resize(need_);
      std::sort(sel_.begin(), sel_.end());
    };
    auto feasible = [&](const Candidate& c) {
      for (ProcId q : c.procs)
        if (until_of_[q] < c.finish) return false;
      return true;
    };
    auto consider = [&](int slot) {
      time_on(tau, sel_, slot, cand_);
      if (!feasible(cand_)) return;
      if (want_second_) record(cand_, tau);
      if (cand_.finish < best_.finish) {
        if (want_second_ && best_.finish < kInf && distinct(best_, cand_))
          std::swap(second_, best_);
        std::swap(best_, cand_);
      } else if (want_second_ && cand_.finish < second_.finish &&
                 distinct(cand_, best_)) {
        std::swap(second_, cand_);
      }
    };
    // Locality-first subset (ties broken towards longer idle windows).
    select([&](ProcId a, ProcId b) {
      if (score_[a] != score_[b]) return score_[a] > score_[b];
      if (until_of_[a] != until_of_[b]) return until_of_[a] > until_of_[b];
      return a < b;
    });
    consider(0);
    // Horizon-first subset (widest windows).
    select([&](ProcId a, ProcId b) {
      if (until_of_[a] != until_of_[b]) return until_of_[a] > until_of_[b];
      if (score_[a] != score_[b]) return score_[a] > score_[b];
      return a < b;
    });
    consider(1);
    // Shadow subset (provenance / perturbation only): the anti-locality
    // pick. It shows what the locality preference bought — and gives the
    // runner-up fold a genuinely different processor set when both real
    // subsets coincide (common once every eligible window is unbounded,
    // where the two orderings collapse to the same tie-break). Never
    // allowed to win: the committed schedule must be identical whether or
    // not a sink or the perturb hook asked for it. Kept sorted ascending by
    // finish, bounded.
    if (want_second_ && eligible_.size() > need_) {
      select([&](ProcId a, ProcId b) {
        if (score_[a] != score_[b]) return score_[a] < score_[b];
        if (until_of_[a] != until_of_[b]) return until_of_[a] > until_of_[b];
        return a < b;
      });
      Candidate c;
      time_on(tau, sel_, 2, c);
      if (feasible(c)) {
        record(c, tau);
        constexpr std::size_t kMaxShadows = 8;
        shadows_.insert(std::upper_bound(shadows_.begin(), shadows_.end(), c,
                                         [](const Candidate& x,
                                            const Candidate& y) {
                                           return x.finish < y.finish;
                                         }),
                        std::move(c));
        if (shadows_.size() > kMaxShadows) shadows_.pop_back();
      }
    }
  }

  // Inputs, fixed for the pass.
  const TaskGraph& g_;
  const CommModel& comm_;
  const LocBSOptions& opt_;
  const FixedPrefix* const fixed_;
  const Chart& chart_;
  obs::ObsContext* const obs_;
  const std::size_t P_;
  const bool want_prov_;

  // The task under scan.
  TaskId t_ = kNoTask;
  std::size_t need_ = 0;
  double exec_ = 0.0;
  bool want_second_ = false;
  double est0_ = 0.0;               ///< ready time
  double arrive_lb_ = 0.0;          ///< finish_lb() inputs
  double comm_lb_ = 0.0;
  std::vector<EdgeId> comm_edges_;  ///< in-edges that carry data
  std::vector<double> score_;       ///< bytes of input resident per proc

  // Per-placement telemetry.
  std::size_t holes_probed_ = 0;
  bool pruned_ = false;
  std::uint64_t cands_scored_ = 0;
  double evals_before_ = 0.0;

  // Candidate buffers reused across placements (their proc vectors keep
  // their capacity; the per-task reset is finish = kInf).
  Candidate best_, second_, cand_;
  std::vector<Candidate> shadows_;
  obs::ShortlistRecorder shortlist_;

  DursCache durs_cache_[4];
  std::vector<double> until_of_;
  std::vector<ProcId> eligible_, sel_;
  std::vector<Timeline::FreeProc> avail_;
  std::vector<double> taus_;
  Timeline::Sweep sweep_;
  std::vector<char> is_parent_;
};

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

  PriorityState local_ps;
  PriorityState& ps = incr != nullptr ? incr->prio_state : local_ps;
  compute_priorities(g, np, comm, opt, ps, obs);
  const std::vector<double>& prio = ps.prio;

  Chart chart(g, P);
  LocBSResult& res = chart.res;
  std::vector<double>& finish_events = chart.finish_events;
  finish_events.reserve(n);

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
      res.dag.set_vertex_time(t, pl.finish - pl.start);
      ++n_frozen;
    }
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
  // and pseudo-edges (Alg. 2 steps 17-18), the locbs.* counters, and the
  // ready list. A scanned placement and a replayed one both land here.
  const PlaceCells cells(met);
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
    res.dag.set_vertex_time(t, ps.et[t]);
    for (const auto& [e, w] : s.edge_times) res.dag.set_edge_time(e, w);
    for (TaskId pd : s.pseudo_preds) res.dag.add_pseudo_edge(pd, t);
    cells.add(s);
    for (EdgeId e : g.out_edges(t))
      if (--waiting[g.edge(e).dst] == 0) ready.push_back(g.edge(e).dst);
  };

  // Incremental replay (schedulers/incremental.hpp, docs/incremental.md):
  // the previous pass of the stream is replayed step by step while the
  // live priority pick and its processor count match it; the first
  // divergent pick ends replay, and the remainder is scanned into the
  // record in place. A placement is a deterministic function of (picked
  // task, its np, the committed prefix), so a matching pick guarantees a
  // bit-identical step, telemetry included.
  std::vector<ReplayStep>* const rec =
      incr != nullptr ? &incr->steps : nullptr;
  bool replaying = rec != nullptr;
  std::size_t replayed_tasks = 0;

  HoleScan scan(g, comm, opt, fixed, chart, obs);
  ReplayStep scratch;  // the from-scratch path reuses one step
  for (std::size_t scheduled = n_frozen; scheduled < n; ++scheduled) {
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

    const std::size_t k = scheduled - n_frozen;  // this step's record slot
    if (replaying) {
      if (k < rec->size() && (*rec)[k].task == tp && (*rec)[k].np == np[tp]) {
        const ReplayStep& rs = (*rec)[k];
        // Credit the cost evaluations the skipped scan would have made.
        if (comm.evals_cell() != nullptr) *comm.evals_cell() += rs.cost_evals;
        commit(rs);
        ++replayed_tasks;
        continue;
      }
      replaying = false;  // first divergence: scan the remainder
    }

    LOCMPS_SPAN(obs, "locbs.place");
    const Candidate& best = scan.run(tp, np[tp], ps.et[tp]);
    // Seeded-divergence hook: adopt the runner-up for this one task so a
    // controlled placement flip exists for rundiff attribution tests.
    const bool perturbed =
        tp == opt.perturb_task && scan.second().finish < kInf;
    const Candidate& chosen = perturbed ? scan.second() : best;
    LOCMPS_SPAN(obs, "locbs.commit");
    if (rec != nullptr && k == rec->size()) rec->emplace_back();
    ReplayStep& step = rec != nullptr ? (*rec)[k] : scratch;
    scan.realize(chosen, step);
    commit(step);
    if (obs::wants_events(obs))
      scan.emit(*obs->sink, step, chosen, prio[tp], perturbed);
  }

  // Stream bookkeeping: dirty vs replayed split of this evaluation, and
  // whether it had any replay base at all. The incr.* family is
  // digest-excluded (the from-scratch oracle produces none).
  if (incr != nullptr && met != nullptr) {
    met->add("incr.dirty_tasks",
             static_cast<double>(n - n_frozen - replayed_tasks));
    met->add("incr.replayed_tasks", static_cast<double>(replayed_tasks));
    if (replayed_tasks == 0) met->add("incr.full_rebuilds");
  }

  res.makespan = res.schedule.makespan();
  return std::move(res);
}

}  // namespace locmps
