#pragma once
/// \file trace_export.hpp
/// Chrome-trace export of schedules: writes the Trace Event Format JSON
/// that chrome://tracing (or Perfetto UI) renders as an interactive
/// timeline — one row per processor, one slice per task occupancy, with
/// allocation details in the slice arguments. A practical complement to
/// the ASCII Gantt for large schedules.
///
/// A second, optional process renders the *planner's* own telemetry: the
/// profiler's span intervals (obs::ProfileSnapshot) become one thread of
/// nested "X" slices and each sample series of an obs::MetricsSnapshot a
/// Perfetto counter track, so one file shows both what was scheduled and
/// how the scheduler spent its time deciding (docs/observability.md).

#include <iosfwd>

#include "graph/task_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "schedule/schedule.hpp"

namespace locmps {

/// Writes \p s as Trace Event Format JSON, schedule seconds exported as
/// microseconds (the format's unit). A leading busy window
/// (busy_from < start, no-overlap redistributions) is emitted as a
/// separate "recv:" slice.
///
/// When \p series or a non-empty \p profile is given, a separate
/// "planner" process (pid 1) follows. \p profile's span intervals form
/// its "profile.spans" thread; spans nest properly in time, so Perfetto
/// stacks them into the planner's flamegraph-style hierarchy, and the
/// thread's metadata carries the profile's intervals_dropped. \p series'
/// sample series form its counter tracks. Planner times are wall-clock
/// seconds since the profiler's epoch (spans) or the registry's
/// (series) — the schedule and planner tracks sit on different clocks
/// but load side by side.
void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s,
                        const obs::MetricsSnapshot* series = nullptr,
                        const obs::ProfileSnapshot* profile = nullptr);

}  // namespace locmps
