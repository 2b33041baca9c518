#include "schedule/timeline.hpp"

#include <algorithm>
#include <cassert>

namespace locmps {

Timeline::Timeline(std::size_t num_procs) : busy_(num_procs) {}

void Timeline::occupy(const ProcessorSet& procs, double start, double end) {
  assert(start <= end);
  if (end <= start) return;  // zero-length bookings are no-ops
  ++epoch_;
  procs.for_each([&](ProcId q) {
    auto& v = busy_[q];
    const Interval iv{start, end};
    // Frontier fast path: most bookings extend the chart, so they land at
    // the back without a search.
    if (v.empty() || v.back().start < start) {
      assert(v.empty() || v.back().end <= start + 1e-9);
      v.push_back(iv);
      return;
    }
    auto it = std::upper_bound(
        v.begin(), v.end(), iv,
        [](const Interval& a, const Interval& b) { return a.start < b.start; });
    assert((it == v.end() || iv.end <= it->start + 1e-9) &&
           (it == v.begin() || std::prev(it)->end <= iv.start + 1e-9));
    v.insert(it, iv);
  });
}

double Timeline::free_until(ProcId q, double t) const {
  const auto& v = busy_[q];
  // First interval with start > t; the previous one must have ended by t.
  auto it = std::upper_bound(
      v.begin(), v.end(), t,
      [](double x, const Interval& iv) { return x < iv.start; });
  if (it != v.begin() && std::prev(it)->end > t) return -1.0;  // busy at t
  return it == v.end() ? kForever : it->start;
}

double Timeline::latest_free_time(ProcId q) const {
  const auto& v = busy_[q];
  return v.empty() ? 0.0 : v.back().end;
}

std::vector<Timeline::Hole> Timeline::holes(ProcId q, double horizon) const {
  std::vector<Hole> out;
  if (horizon <= 0.0) return out;
  double cursor = 0.0;
  for (const Interval& iv : busy_[q]) {
    if (iv.start >= horizon) break;
    if (iv.start > cursor) out.push_back(Hole{cursor, iv.start});
    cursor = std::max(cursor, std::min(iv.end, horizon));
  }
  if (cursor < horizon) out.push_back(Hole{cursor, horizon});
  return out;
}

void Timeline::available_at(double t, std::vector<FreeProc>& out) const {
  out.clear();
  out.reserve(busy_.size());
  for (ProcId q = 0; q < busy_.size(); ++q) {
    const double until = free_until(q, t);
    if (until >= 0.0) out.push_back(FreeProc{q, until});
  }
}

void Timeline::Sweep::resync(double t) {
  const Timeline& tl = *tl_;
  if (epoch_ != tl.epoch_ || t < last_t_) {
    // Mutation or non-monotone probe: re-seek every cursor to the first
    // interval ending after t (the only interval that can cover t).
    for (ProcId q = 0; q < tl.num_procs(); ++q) {
      const auto& v = tl.busy_[q];
      idx_[q] = static_cast<std::uint32_t>(
          std::upper_bound(v.begin(), v.end(), t,
                           [](double x, const Interval& iv) {
                             return x < iv.end;
                           }) -
          v.begin());
    }
    epoch_ = tl.epoch_;
  }
  last_t_ = t;
}

void Timeline::Sweep::available_at(double t, std::vector<FreeProc>& out) {
  resync(t);
  const Timeline& tl = *tl_;
  const std::size_t P = tl.num_procs();
  out.clear();
  out.reserve(P);
  for (ProcId q = 0; q < P; ++q) {
    const auto& v = tl.busy_[q];
    std::uint32_t i = idx_[q];
    while (i < v.size() && v[i].end <= t) ++i;
    idx_[q] = i;
    if (i == v.size()) {
      out.push_back(FreeProc{q, kForever});
    } else if (v[i].start > t) {
      out.push_back(FreeProc{q, v[i].start});
    }
    // else: v[i].start <= t < v[i].end — busy, matching free_until < 0.
  }
}

}  // namespace locmps
