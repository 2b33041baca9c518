#pragma once
/// \file timeline.hpp
/// Processor-availability bookkeeping for backfill scheduling.
///
/// Parallel job scheduling is a 2-D packing problem (time x processors,
/// Section III-F). The Timeline records the busy intervals of every
/// processor and answers the two queries backfilling needs:
///  * which "holes" (idle windows) exist at or after a given time, and
///  * which processors are free over a candidate window and until when.
/// The no-backfill variant (Fig 6) only consults latest_free_time().
///
/// Storage is an augmented sorted-interval structure: per-processor
/// disjoint busy intervals kept sorted by start (so end times are sorted
/// too), with an append fast path for the common frontier booking, a
/// mutation epoch, and a monotone Sweep cursor that answers the hole
/// scan's ascending availability queries in amortized O(1) per processor
/// instead of a binary search per probe instant (docs/incremental.md).
/// The same cursor answers the scan's one look-ahead query, first_fit:
/// it walks each processor's idle windows forward from the cursor, so no
/// index is kept up to date on occupy(). Every query keeps the exact
/// semantics of the original linear scan — the Timeline property-fuzz
/// suite (tests/test_timeline.cpp) checks each against a naive reference
/// implementation across hundreds of seeds.

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/processor_set.hpp"

namespace locmps {

/// Positive infinity used for "free forever".
inline constexpr double kForever = std::numeric_limits<double>::infinity();

/// Busy-interval timetable over a fixed set of processors.
class Timeline {
 public:
  explicit Timeline(std::size_t num_procs);

  std::size_t num_procs() const { return busy_.size(); }

  /// Marks \p procs busy during [start, end). Windows on one processor must
  /// not overlap (the scheduler only books verified-free windows; checked
  /// by assertion in debug builds).
  void occupy(const ProcessorSet& procs, double start, double end);

  /// If \p q is idle at time \p t: the time at which it next becomes busy
  /// (kForever if never). If busy at \p t: returns a negative value.
  [[nodiscard]] double free_until(ProcId q, double t) const;

  /// Latest time at which \p q ceases to be busy (0 if never booked). The
  /// processor is guaranteed free from this time on.
  [[nodiscard]] double latest_free_time(ProcId q) const;

  /// A processor available at some probe time, with its free-until horizon.
  struct FreeProc {
    ProcId proc;
    double until;  ///< next busy start, or kForever
  };

  /// Fills \p out with every processor idle at time \p t, ascending, each
  /// with its free-until horizon.
  void available_at(double t, std::vector<FreeProc>& out) const;

  /// An idle window on one processor.
  struct Hole {
    double start;
    double end;
  };

  /// Idle windows of processor \p q within [0, horizon), in time order:
  /// the gap before the first booking, every gap between bookings, and the
  /// trailing gap up to \p horizon. Zero-length gaps (abutting bookings)
  /// are not reported; bookings are clamped to the horizon, so a booking
  /// ending exactly at \p horizon produces no trailing hole. A fully
  /// packed timeline yields an empty vector, as does horizon <= 0.
  [[nodiscard]] std::vector<Hole> holes(ProcId q, double horizon) const;

  /// Monotone availability cursor over the timeline.
  ///
  /// The backfill hole scan probes instants in ascending order; a Sweep
  /// remembers, per processor, the first busy interval ending after the
  /// last probe and only advances it, so a whole ascending scan costs
  /// O(P + intervals) instead of O(P log I) per probe. Any timeline
  /// mutation (detected through the epoch counter) or a non-monotone
  /// query transparently re-seeks, so results are always identical to
  /// Timeline::available_at.
  class Sweep {
   public:
    explicit Sweep(const Timeline& tl) : tl_(&tl), idx_(tl.num_procs(), 0) {}

    /// Same result as tl.available_at(t, out).
    void available_at(double t, std::vector<FreeProc>& out);

    /// The earliest instant t in [from, limit) at which some processor q
    /// is idle and fits: finish(q, t) < bound, and finish(q, t) is no later
    /// than the start of q's next booking. \p limit when none fits.
    ///
    /// \p finish(q, t) must be non-decreasing in t. Then the first instant
    /// of an idle window (\p from, or the end of a booking after it)
    /// decides the whole window, and once finish(q, t) reaches \p bound no
    /// later window of q fits. So the query tries only those instants,
    /// walking each processor's bookings forward from the cursor, and
    /// stops walking a processor past the earliest fit found so far.
    /// Moves the cursor to \p from, as available_at(from) would.
    template <typename Finish>
    double first_fit(double from, double limit, double bound,
                     Finish&& finish) {
      resync(from);
      double best = limit;
      for (ProcId q = 0; q < idx_.size(); ++q) {
        const std::vector<Interval>& v = tl_->busy_[q];
        double a = from;  // first instant of the window before booking i
        for (std::size_t i = advance(q, from);; ++i) {
          if (!(a < best)) break;
          const double b = i < v.size() ? v[i].start : kForever;
          if (a < b) {
            const double f = finish(q, a);
            if (!(f < bound)) break;
            if (f <= b) {
              best = a;
              break;
            }
          }
          if (i == v.size()) break;
          a = v[i].end;
        }
      }
      return best;
    }

   private:
    /// Re-seeks every cursor when the timeline changed or \p t precedes
    /// the last query, and records \p t as the last query.
    void resync(double t);
    /// Advances q's cursor to its first booking ending after \p t.
    std::uint32_t advance(ProcId q, double t) {
      const std::vector<Interval>& v = tl_->busy_[q];
      std::uint32_t i = idx_[q];
      while (i < v.size() && v[i].end <= t) ++i;
      return idx_[q] = i;
    }

    const Timeline* tl_;
    std::uint64_t epoch_ = ~0ull;  // forces the first call to seek
    double last_t_ = -kForever;
    std::vector<std::uint32_t> idx_;  // per proc: first interval end > t
  };

 private:
  struct Interval {
    double start;
    double end;
  };
  // Per-processor busy intervals kept sorted by start; disjointness makes
  // the end times sorted as well (the invariant the Sweep cursor rides).
  std::vector<std::vector<Interval>> busy_;
  // Bumped by every occupy() so cursors know to re-seek.
  std::uint64_t epoch_ = 0;
};

}  // namespace locmps
