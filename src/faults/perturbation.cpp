#include "faults/perturbation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace locmps {

PerturbationPlan::PerturbationPlan(std::size_t processors,
                                   std::vector<SlowdownInterval> slowdowns,
                                   std::vector<LinkDegradation> links,
                                   std::vector<double> task_noise)
    : processors_(processors),
      slowdowns_(std::move(slowdowns)),
      links_(std::move(links)),
      task_noise_(std::move(task_noise)) {
  std::sort(slowdowns_.begin(), slowdowns_.end(),
            [](const SlowdownInterval& a, const SlowdownInterval& b) {
              if (a.proc != b.proc) return a.proc < b.proc;
              // Deterministic sort key tie-break. LINT-ALLOW(float-eq)
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  proc_begin_.assign(processors_ + 1, 0);
  for (const SlowdownInterval& iv : slowdowns_) {
    if (iv.proc >= processors_)
      throw std::invalid_argument("PerturbationPlan: processor index " +
                                  std::to_string(iv.proc) + " out of range");
    if (!(iv.begin >= 0.0))
      throw std::invalid_argument("PerturbationPlan: negative slowdown onset");
    if (!(iv.end > iv.begin))
      throw std::invalid_argument(
          "PerturbationPlan: slowdown end must be strictly after begin");
    if (!(iv.factor >= 1.0) || !std::isfinite(iv.factor))
      throw std::invalid_argument(
          "PerturbationPlan: slowdown factor must be finite and >= 1");
    ++proc_begin_[iv.proc + 1];
  }
  for (std::size_t q = 0; q < processors_; ++q)
    proc_begin_[q + 1] += proc_begin_[q];
  for (std::size_t i = 1; i < slowdowns_.size(); ++i) {
    const SlowdownInterval& prev = slowdowns_[i - 1];
    const SlowdownInterval& cur = slowdowns_[i];
    if (prev.proc == cur.proc && cur.begin < prev.end)
      throw std::invalid_argument("PerturbationPlan: processor " +
                                  std::to_string(cur.proc) +
                                  " has overlapping slowdown intervals");
  }

  std::sort(links_.begin(), links_.end(),
            [](const LinkDegradation& a, const LinkDegradation& b) {
              // Deterministic sort key tie-break. LINT-ALLOW(float-eq)
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  for (const LinkDegradation& w : links_) {
    if (!(w.begin >= 0.0))
      throw std::invalid_argument(
          "PerturbationPlan: negative link-degradation onset");
    if (!(w.end > w.begin))
      throw std::invalid_argument(
          "PerturbationPlan: link-degradation end must be strictly after "
          "begin");
    if (!(w.scale > 0.0) || !(w.scale <= 1.0))
      throw std::invalid_argument(
          "PerturbationPlan: link scale must be in (0, 1]");
  }
  for (std::size_t i = 1; i < links_.size(); ++i)
    if (links_[i].begin < links_[i - 1].end)
      throw std::invalid_argument(
          "PerturbationPlan: overlapping link-degradation windows");

  for (double f : task_noise_)
    if (!(f > 0.0) || !std::isfinite(f))
      throw std::invalid_argument(
          "PerturbationPlan: task noise factors must be finite and > 0");
}

double PerturbationPlan::slowdown(ProcId q, double t) const {
  if (q >= processors_) return 1.0;
  for (std::size_t i = proc_begin_[q]; i < proc_begin_[q + 1]; ++i) {
    const SlowdownInterval& iv = slowdowns_[i];
    if (t < iv.begin) break;  // intervals are onset-ordered per proc
    if (t < iv.end) return iv.factor;
  }
  return 1.0;
}

double PerturbationPlan::compute_finish(const ProcessorSet& procs, double st,
                                        double work) const {
  if (work <= 0.0) return st;
  if (slowdowns_.empty()) return st + work;
  double t = st;
  double remaining = work;
  // Piecewise sweep: inside one piece the rate is constant (1 / the
  // slowest member's factor); pieces end at the next window boundary of
  // any member. Terminates: each iteration either finishes or advances t
  // to one of the finitely many boundaries.
  for (;;) {
    double factor = 1.0;
    double next_change = std::numeric_limits<double>::infinity();
    procs.for_each([&](ProcId q) {
      if (q >= processors_) return;
      for (std::size_t i = proc_begin_[q]; i < proc_begin_[q + 1]; ++i) {
        const SlowdownInterval& iv = slowdowns_[i];
        if (t < iv.begin) {
          next_change = std::min(next_change, iv.begin);
          break;
        }
        if (t < iv.end) {
          factor = std::max(factor, iv.factor);
          next_change = std::min(next_change, iv.end);
          break;
        }
      }
    });
    // Infinity is the exact no-more-windows sentinel. LINT-ALLOW(float-eq)
    if (next_change == std::numeric_limits<double>::infinity())
      return t + remaining * factor;
    const double nominal_in_piece = (next_change - t) / factor;
    if (nominal_in_piece >= remaining) return t + remaining * factor;
    remaining -= nominal_in_piece;
    t = next_change;
  }
}

double PerturbationPlan::transfer_finish(double st, double dur) const {
  if (dur <= 0.0) return st;
  if (links_.empty()) return st + dur;
  double t = st;
  double remaining = dur;
  for (;;) {
    double scale = 1.0;
    double next_change = std::numeric_limits<double>::infinity();
    for (const LinkDegradation& w : links_) {
      if (t < w.begin) {
        next_change = w.begin;
        break;
      }
      if (t < w.end) {
        scale = w.scale;
        next_change = w.end;
        break;
      }
    }
    // Infinity is the exact no-more-windows sentinel. LINT-ALLOW(float-eq)
    if (next_change == std::numeric_limits<double>::infinity())
      return t + remaining / scale;
    const double nominal_in_piece = (next_change - t) * scale;
    if (nominal_in_piece >= remaining) return t + remaining / scale;
    remaining -= nominal_in_piece;
    t = next_change;
  }
}

PerturbationPlan make_perturbation_plan(std::size_t processors,
                                        std::size_t num_tasks,
                                        const PerturbationParams& prm) {
  if (processors == 0)
    throw std::invalid_argument("make_perturbation_plan: empty cluster");
  if (!(prm.slow_fraction >= 0.0) || !(prm.slow_fraction <= 1.0))
    throw std::invalid_argument(
        "make_perturbation_plan: slow_fraction must be in [0, 1]");
  if (!(prm.slow_factor >= 1.0))
    throw std::invalid_argument(
        "make_perturbation_plan: slow_factor must be >= 1");
  if (!(prm.horizon_s > 0.0))
    throw std::invalid_argument(
        "make_perturbation_plan: horizon_s must be > 0");
  if (!(prm.slow_duration_s > 0.0))
    throw std::invalid_argument(
        "make_perturbation_plan: slow_duration_s must be > 0");
  if (prm.link_windows > 0 &&
      (!(prm.link_scale > 0.0) || !(prm.link_scale <= 1.0)))
    throw std::invalid_argument(
        "make_perturbation_plan: link_scale must be in (0, 1]");
  if (prm.link_windows > 0 && !(prm.link_duration_s > 0.0))
    throw std::invalid_argument(
        "make_perturbation_plan: link_duration_s must be > 0");
  if (!(prm.task_noise >= 0.0) || !(prm.task_noise < 1.0))
    throw std::invalid_argument(
        "make_perturbation_plan: task_noise must be in [0, 1)");

  Rng rng(prm.seed);

  // Slowdowns: a uniform sample without replacement (partial Fisher-Yates,
  // mirroring make_fault_plan) of slow_fraction * P processors, one window
  // each.
  const std::size_t protect = std::min(prm.min_unperturbed, processors);
  std::size_t slowed = static_cast<std::size_t>(
      std::llround(prm.slow_fraction * static_cast<double>(processors)));
  slowed = std::min(slowed, processors - protect);
  if (prm.slow_factor <= 1.0) slowed = 0;

  std::vector<ProcId> ids(processors);
  for (std::size_t i = 0; i < processors; ++i)
    ids[i] = static_cast<ProcId>(i);
  std::vector<SlowdownInterval> slow;
  slow.reserve(slowed);
  for (std::size_t i = 0; i < slowed; ++i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(processors) - 1));
    std::swap(ids[i], ids[j]);
    SlowdownInterval iv;
    iv.proc = ids[i];
    iv.begin = rng.uniform(0.0, prm.horizon_s);
    iv.end = iv.begin + rng.uniform(0.5, 1.5) * prm.slow_duration_s;
    iv.factor = 1.0 + (prm.slow_factor - 1.0) * rng.uniform(0.5, 1.5);
    slow.push_back(iv);
  }

  // Degraded-link windows: one per equal stratum of the horizon, clamped
  // inside its stratum — disjoint by construction.
  std::vector<LinkDegradation> links;
  links.reserve(prm.link_windows);
  if (prm.link_windows > 0) {
    const double stratum =
        prm.horizon_s / static_cast<double>(prm.link_windows);
    for (std::size_t i = 0; i < prm.link_windows; ++i) {
      const double lo = stratum * static_cast<double>(i);
      LinkDegradation w;
      const double len =
          std::min(rng.uniform(0.5, 1.5) * prm.link_duration_s, stratum);
      w.begin = lo + rng.uniform(0.0, stratum - len);
      w.end = w.begin + len;
      w.scale = prm.link_scale;
      links.push_back(w);
    }
  }

  // Bounded per-task noise.
  std::vector<double> noise;
  if (prm.task_noise > 0.0) {
    noise.resize(num_tasks);
    for (double& f : noise)
      f = 1.0 + rng.uniform(-prm.task_noise, prm.task_noise);
  }

  return PerturbationPlan(processors, std::move(slow), std::move(links),
                          std::move(noise));
}

}  // namespace locmps
