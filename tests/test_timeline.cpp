#include "schedule/timeline.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace locmps {
namespace {

TEST(Timeline, FreshTimelineIsFullyFree) {
  const Timeline tl(4);
  EXPECT_EQ(tl.num_procs(), 4u);
  for (ProcId q = 0; q < 4; ++q) {
    EXPECT_EQ(tl.free_until(q, 0.0), kForever);
    EXPECT_DOUBLE_EQ(tl.latest_free_time(q), 0.0);
  }
}

TEST(Timeline, OccupyBlocksWindow) {
  Timeline tl(2);
  tl.occupy(ProcessorSet::of(2, {0}), 2.0, 5.0);
  EXPECT_LT(tl.free_until(0, 3.0), 0.0);
  EXPECT_LT(tl.free_until(0, 2.0), 0.0);         // half-open: busy from start
  EXPECT_DOUBLE_EQ(tl.free_until(0, 0.0), 2.0);  // idle up to the start
  EXPECT_EQ(tl.free_until(0, 5.0), kForever);    // free again from end
  EXPECT_EQ(tl.free_until(1, 0.0), kForever);
}

TEST(Timeline, FreeUntilReportsNextBusyStart) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 4.0, 6.0);
  EXPECT_DOUBLE_EQ(tl.free_until(0, 0.0), 4.0);
  EXPECT_LT(tl.free_until(0, 5.0), 0.0);  // busy at t=5
  EXPECT_EQ(tl.free_until(0, 6.0), kForever);
}

TEST(Timeline, LatestFreeTimeTracksLastBooking) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 0.0, 3.0);
  tl.occupy(ProcessorSet::of(1, {0}), 7.0, 9.0);
  EXPECT_DOUBLE_EQ(tl.latest_free_time(0), 9.0);
}

TEST(Timeline, AvailableAtListsIdleProcsWithHorizon) {
  Timeline tl(3);
  tl.occupy(ProcessorSet::of(3, {0}), 0.0, 4.0);
  tl.occupy(ProcessorSet::of(3, {1}), 6.0, 8.0);
  std::vector<Timeline::FreeProc> avail;
  tl.available_at(1.0, avail);
  ASSERT_EQ(avail.size(), 2u);
  EXPECT_EQ(avail[0].proc, 1u);
  EXPECT_DOUBLE_EQ(avail[0].until, 6.0);
  EXPECT_EQ(avail[1].proc, 2u);
  EXPECT_EQ(avail[1].until, kForever);
}

TEST(Timeline, BackToBackBookingsAllowed) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 0.0, 3.0);
  tl.occupy(ProcessorSet::of(1, {0}), 3.0, 6.0);  // abutting is fine
  EXPECT_LT(tl.free_until(0, 3.0), 0.0);           // no gap at the seam
  EXPECT_DOUBLE_EQ(tl.latest_free_time(0), 6.0);
}

TEST(Timeline, ZeroLengthBookingIsNoOp) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 3.0, 3.0);
  EXPECT_EQ(tl.free_until(0, 3.0), kForever);
  EXPECT_DOUBLE_EQ(tl.latest_free_time(0), 0.0);
}

TEST(TimelineHoles, EmptyTimelineIsOneHole) {
  const Timeline tl(1);
  const auto holes = tl.holes(0, 10.0);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_DOUBLE_EQ(holes[0].start, 0.0);
  EXPECT_DOUBLE_EQ(holes[0].end, 10.0);
}

TEST(TimelineHoles, NonPositiveHorizonHasNoHoles) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 2.0, 4.0);
  EXPECT_TRUE(tl.holes(0, 0.0).empty());
  EXPECT_TRUE(tl.holes(0, -1.0).empty());
}

TEST(TimelineHoles, FullyPackedTimelineHasNoHoles) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 0.0, 4.0);
  tl.occupy(ProcessorSet::of(1, {0}), 4.0, 10.0);
  EXPECT_TRUE(tl.holes(0, 10.0).empty());
}

TEST(TimelineHoles, AbuttingBookingsProduceNoZeroLengthHole) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 0.0, 3.0);
  tl.occupy(ProcessorSet::of(1, {0}), 3.0, 6.0);
  const auto holes = tl.holes(0, 8.0);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_DOUBLE_EQ(holes[0].start, 6.0);
  EXPECT_DOUBLE_EQ(holes[0].end, 8.0);
  for (const auto& h : holes) EXPECT_GT(h.end, h.start);
}

TEST(TimelineHoles, HoleAbutsHorizonExactly) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 0.0, 4.0);
  const auto holes = tl.holes(0, 10.0);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_DOUBLE_EQ(holes[0].start, 4.0);
  EXPECT_DOUBLE_EQ(holes[0].end, 10.0);
}

TEST(TimelineHoles, BusyWindowCrossingHorizonIsClamped) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 0.0, 4.0);
  tl.occupy(ProcessorSet::of(1, {0}), 8.0, 15.0);  // runs past the horizon
  const auto holes = tl.holes(0, 10.0);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_DOUBLE_EQ(holes[0].start, 4.0);
  EXPECT_DOUBLE_EQ(holes[0].end, 8.0);
}

TEST(TimelineHoles, BusyWindowStartingAtHorizonIsIgnored) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 10.0, 12.0);
  const auto holes = tl.holes(0, 10.0);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_DOUBLE_EQ(holes[0].start, 0.0);
  EXPECT_DOUBLE_EQ(holes[0].end, 10.0);
}

TEST(TimelineHoles, MiddleAndTailHolesEnumeratedInOrder) {
  Timeline tl(2);
  tl.occupy(ProcessorSet::of(2, {0}), 2.0, 4.0);
  tl.occupy(ProcessorSet::of(2, {0}), 6.0, 7.0);
  const auto holes = tl.holes(0, 9.0);
  ASSERT_EQ(holes.size(), 3u);
  EXPECT_DOUBLE_EQ(holes[0].start, 0.0);
  EXPECT_DOUBLE_EQ(holes[0].end, 2.0);
  EXPECT_DOUBLE_EQ(holes[1].start, 4.0);
  EXPECT_DOUBLE_EQ(holes[1].end, 6.0);
  EXPECT_DOUBLE_EQ(holes[2].start, 7.0);
  EXPECT_DOUBLE_EQ(holes[2].end, 9.0);
  // Busy + idle covers the horizon exactly.
  double idle = 0.0;
  for (const auto& h : holes) idle += h.end - h.start;
  EXPECT_DOUBLE_EQ(idle + 3.0, 9.0);
  // The untouched processor is one full-horizon hole.
  const auto other = tl.holes(1, 9.0);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_DOUBLE_EQ(other[0].end - other[0].start, 9.0);
}

TEST(Timeline, BookingOutOfOrderKeepsSortedState) {
  Timeline tl(1);
  tl.occupy(ProcessorSet::of(1, {0}), 10.0, 12.0);
  tl.occupy(ProcessorSet::of(1, {0}), 2.0, 4.0);  // earlier hole booked later
  EXPECT_DOUBLE_EQ(tl.free_until(0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.free_until(0, 4.0), 10.0);
  EXPECT_DOUBLE_EQ(tl.latest_free_time(0), 12.0);
}

// ---------------------------------------------------------------------------
// Property fuzz: every query vs a naive reference implementation
//
// The Timeline's augmented interval storage (sorted vectors, frontier
// fast path, Sweep cursor) must answer every query exactly as the obvious
// brute-force bookkeeping would. The fuzz drives both through the same
// random stream of bookings, then asks both the full query surface, on a
// grid of times chosen so abutting bookings, holes starting at t = 0, and
// bookings running past the probed horizon all occur frequently.

/// Brute-force shadow: unordered busy intervals per processor.
struct NaiveTimeline {
  std::vector<std::vector<std::pair<double, double>>> busy;

  explicit NaiveTimeline(std::size_t p) : busy(p) {}

  void occupy(const std::vector<ProcId>& ps, double s, double e) {
    if (e <= s) return;
    for (ProcId q : ps) busy[q].emplace_back(s, e);
  }
  bool is_free(ProcId q, double s, double e) const {
    for (const auto& iv : busy[q])
      if (iv.first < e && iv.second > s) return false;
    return true;
  }
  double free_until(ProcId q, double t) const {
    for (const auto& iv : busy[q])
      if (iv.first <= t && t < iv.second) return -1.0;
    double next = kForever;
    for (const auto& iv : busy[q])
      if (iv.first > t) next = std::min(next, iv.first);
    return next;
  }
  double latest_free_time(ProcId q) const {
    double latest = 0.0;
    for (const auto& iv : busy[q]) latest = std::max(latest, iv.second);
    return latest;
  }
  std::vector<Timeline::FreeProc> available_at(double t) const {
    std::vector<Timeline::FreeProc> out;
    for (ProcId q = 0; q < busy.size(); ++q) {
      const double fu = free_until(q, t);
      if (fu >= 0.0) out.push_back({q, fu});
    }
    return out;
  }
  std::vector<Timeline::Hole> holes(ProcId q, double horizon) const {
    std::vector<Timeline::Hole> out;
    if (horizon <= 0.0) return out;
    auto v = busy[q];
    std::sort(v.begin(), v.end());
    double cursor = 0.0;
    for (const auto& iv : v) {
      const double s = std::min(iv.first, horizon);
      if (s > cursor) out.push_back({cursor, s});
      cursor = std::max(cursor, std::min(iv.second, horizon));
    }
    if (cursor < horizon) out.push_back({cursor, horizon});
    return out;
  }
};

/// Expects \p got (a Timeline or Sweep answer) to equal the naive one.
void expect_same_available(const std::vector<Timeline::FreeProc>& got,
                           const NaiveTimeline& naive, double t,
                           std::uint64_t seed) {
  const auto want = naive.available_at(t);
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " t=" << t;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].proc, want[i].proc) << "seed " << seed << " t=" << t;
    EXPECT_EQ(got[i].until, want[i].until) << "seed " << seed << " t=" << t;
  }
}

void expect_queries_match(const Timeline& tl, const NaiveTimeline& naive,
                          Rng& rng, std::uint64_t seed) {
  const std::size_t P = tl.num_procs();
  // Probe instants: grid points (t = 0 included) so exact boundaries hit.
  std::vector<double> probes{0.0};
  for (int i = 0; i < 4; ++i)
    probes.push_back(0.25 * static_cast<double>(rng.uniform_int(0, 96)));
  for (const double t : probes) {
    for (ProcId q = 0; q < P; ++q) {
      EXPECT_EQ(tl.free_until(q, t) < 0.0, naive.free_until(q, t) < 0.0)
          << "seed " << seed << " q=" << q << " t=" << t;
      if (naive.free_until(q, t) >= 0.0)
        EXPECT_EQ(tl.free_until(q, t), naive.free_until(q, t))
            << "seed " << seed << " q=" << q << " t=" << t;
    }
    std::vector<Timeline::FreeProc> avail;
    tl.available_at(t, avail);
    expect_same_available(avail, naive, t, seed);
  }
  for (ProcId q = 0; q < P; ++q) {
    EXPECT_EQ(tl.latest_free_time(q), naive.latest_free_time(q))
        << "seed " << seed << " q=" << q;
    // Horizons: 0 (no holes), a mid-range value most bookings straddle,
    // and one past every booking (full trailing hole).
    for (const double horizon :
         {0.0, 0.25 * static_cast<double>(rng.uniform_int(1, 64)), 64.0}) {
      const auto h = tl.holes(q, horizon);
      const auto hn = naive.holes(q, horizon);
      ASSERT_EQ(h.size(), hn.size())
          << "seed " << seed << " q=" << q << " horizon=" << horizon;
      for (std::size_t i = 0; i < h.size(); ++i) {
        EXPECT_EQ(h[i].start, hn[i].start) << "seed " << seed << " q=" << q;
        EXPECT_EQ(h[i].end, hn[i].end) << "seed " << seed << " q=" << q;
      }
    }
  }
}

TEST(TimelineFuzz, MatchesNaiveReferenceAcrossSeeds) {
  constexpr std::uint64_t kSeeds = 220;
  // The generators below must actually exercise the boundary shapes the
  // suite exists for; count them and assert at the end.
  std::size_t holes_at_zero = 0, bookings_past_horizon = 0,
              bookings_under_sweep = 0;

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(0xf00dull * (seed + 1));
    const std::size_t P = static_cast<std::size_t>(rng.uniform_int(1, 4));
    Timeline tl(P);
    NaiveTimeline naive(P);
    // Attempts a booking on a random subset over a coarse time grid
    // (multiples of 0.25 in [0, 20]) so abutting windows are common; only
    // verified-free windows book, as in the scheduler.
    auto try_booking = [&] {
      std::vector<ProcId> ps;
      for (ProcId q = 0; q < P; ++q)
        if (rng.bernoulli(0.5)) ps.push_back(q);
      if (ps.empty()) ps.push_back(static_cast<ProcId>(
          rng.uniform_int(0, static_cast<std::int64_t>(P) - 1)));
      const double s = 0.25 * static_cast<double>(rng.uniform_int(0, 72));
      const double e = s + 0.25 * static_cast<double>(rng.uniform_int(0, 24));
      bool free = true;
      for (ProcId q : ps) free = free && naive.is_free(q, s, e);
      if (!free || e <= s) return false;
      ProcessorSet pset(P);
      for (ProcId q : ps) pset.insert(q);
      tl.occupy(pset, s, e);
      naive.occupy(ps, s, e);
      return true;
    };

    const int ops = static_cast<int>(rng.uniform_int(6, 24));
    for (int op = 0; op < ops; ++op) try_booking();

    expect_queries_match(tl, naive, rng, seed);

    // Sweep cursor: ascending probes must equal available_at, including
    // after a booking mid-sweep (epoch re-seek) and a non-monotone probe.
    Timeline::Sweep sweep(tl);
    std::vector<Timeline::FreeProc> got;
    std::vector<double> asc{0.0};
    for (int i = 0; i < 6; ++i)
      asc.push_back(0.25 * static_cast<double>(rng.uniform_int(0, 96)));
    std::sort(asc.begin(), asc.end());
    for (const double t : asc) {
      sweep.available_at(t, got);
      expect_same_available(got, naive, t, seed);
    }
    bool booked = false;
    for (int attempt = 0; attempt < 8 && !booked; ++attempt)
      booked = try_booking();
    if (booked) ++bookings_under_sweep;
    // Probe the last instant again (a re-seek after a booking alone) and
    // then below it: both invalidation paths must re-seek transparently.
    for (const double t : {asc.back(), 0.0, asc.front()}) {
      sweep.available_at(t, got);
      expect_same_available(got, naive, t, seed);
    }

    for (ProcId q = 0; q < P; ++q) {
      const auto h = tl.holes(q, 18.0);
      if (!h.empty() && h.front().start == 0.0) ++holes_at_zero;
      if (tl.latest_free_time(q) > 18.0) ++bookings_past_horizon;
    }
  }

  // The op mix must have covered the boundary shapes, not skirted them.
  EXPECT_GT(holes_at_zero, 50u);
  EXPECT_GT(bookings_past_horizon, 20u);
  EXPECT_GT(bookings_under_sweep, 100u);
}

}  // namespace
}  // namespace locmps
