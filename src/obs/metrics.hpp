#pragma once
/// \file metrics.hpp
/// Scheduler observability: a lightweight metrics registry.
///
/// The registry holds two kinds of instruments, both identified by
/// dotted names ("locbs.holes_scanned", "locmps.best_makespan"):
///  * counters — monotonically accumulated doubles (counts or byte sums);
///  * sample series — (time, value) points for counter tracks in traces.
///
/// Where planning time goes is the profiler's job (obs/profile.hpp): its
/// spans are the planner's one timing mechanism.
///
/// Design rules:
///  * Instrumented code paths take an optional registry pointer; a null
///    pointer must cost exactly one predictable branch (see events.hpp's
///    ObsContext). Hot loops accumulate into locals and flush once per
///    placement/iteration.
///  * cell() returns a stable double* so per-call hot counters (e.g. the
///    communication model's cost evaluations) can bump a raw slot without
///    a map lookup.
///  * A registry is single-threaded; parallel experiment drivers use one
///    registry per run (core/experiment.cpp does).

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/stopwatch.hpp"

namespace locmps::obs {

/// One point of a sample series, in seconds since the registry's epoch
/// (construction or last reset()).
struct SamplePoint {
  double t_s = 0.0;
  double value = 0.0;
};

/// Snapshot of one sample series.
struct SeriesStats {
  std::string name;
  std::vector<SamplePoint> points; ///< bounded recording (kMaxSamples)
};

/// Value-type copy of a registry's state, safe to keep after the registry
/// dies (SchemeRun carries one per evaluated scheme).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> counters; ///< sorted by name
  std::vector<SeriesStats> series;

  /// Counter value by name; \p fallback when absent.
  [[nodiscard]] double counter(std::string_view name,
                               double fallback = 0.0) const;
  /// Series by name; nullptr when absent.
  [[nodiscard]] const SeriesStats* find_series(std::string_view name) const;
};

/// The registry. Thread-compatible, never internally locked: exactly one
/// thread may touch a given registry at a time. compare_schemes gives
/// every run of its worker grid a registry of its own
/// (core/experiment.cpp) — sharing one registry across workers is a bug.
class LOCMPS_THREAD_COMPATIBLE MetricsRegistry {
 public:
  /// Bound on each series' recording so long optimization runs cannot
  /// grow snapshots without limit.
  static constexpr std::size_t kMaxSamples = 16384;

  MetricsRegistry() = default;

  /// Adds \p delta to the named counter (creating it at zero).
  void add(std::string_view name, double delta = 1.0) { cell(name) += delta; }

  /// Overwrites the named counter (gauge-style use).
  void set(std::string_view name, double value) { cell(name) = value; }

  /// Stable address of the named counter's storage. Valid until reset();
  /// lets hot paths bump a counter without hashing the name each call.
  double* cell_ptr(std::string_view name) { return &cell(name); }

  /// Current value of the named counter; \p fallback when absent.
  [[nodiscard]] double value(std::string_view name,
                             double fallback = 0.0) const {
    const auto it = counters_.find(name);
    return it != counters_.end() ? it->second : fallback;
  }

  /// Appends a sample point (stamped now()) to the named series.
  void sample(std::string_view name, double value);

  /// Seconds since the registry epoch: the sample series' timebase.
  double now() const { return epoch_.seconds(); }

  /// Clears every instrument and restarts the epoch.
  void reset();

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct SeriesData {
    std::vector<SamplePoint> points;
  };

  double& cell(std::string_view name);

  // std::map: node-based, so cell_ptr() addresses stay stable across
  // inserts; heterogeneous lookup avoids a temporary string per query.
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, SeriesData, std::less<>> series_;
  Stopwatch epoch_;
};

}  // namespace locmps::obs
