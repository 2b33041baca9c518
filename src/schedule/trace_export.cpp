#include "schedule/trace_export.hpp"

#include <ios>
#include <ostream>
#include <stdexcept>

#include "obs/events.hpp"

namespace locmps {

namespace {

using obs::json_escape;

/// Trace Event Format times are microseconds.
constexpr double kUs = 1e6;

/// Writes the separator that precedes every event but the first.
void sep(std::ostream& os, bool& first) {
  if (!first) os << ",";
  first = false;
}

/// Emits the planner process: the profile's span intervals as one
/// thread of nested "X" slices (Perfetto nests slices on a thread by time
/// containment, which the profiler's strict open/close discipline
/// guarantees) and one Perfetto counter track per sample series.
void write_planner_track(std::ostream& os, bool& first,
                         const obs::MetricsSnapshot* series,
                         const obs::ProfileSnapshot* profile) {
  sep(os, first);
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"planner\"}}";
  if (profile != nullptr && !profile->empty()) {
    sep(os, first);
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"profile.spans\",\"intervals_dropped\":"
       << profile->intervals_dropped << "}}";
    // Span times run to seconds of wall time: the stream's default six
    // significant digits would round them to 10 us or coarser and misnest
    // short slices, so they are written in fixed-point nanoseconds.
    const std::ios::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision(3);
    os << std::fixed;
    for (const obs::ProfileInterval& iv : profile->intervals) {
      const double dur = iv.end_s - iv.begin_s;
      if (dur < 0.0) continue;  // clock skew guard; never emit negative
      sep(os, first);
      os << "{\"name\":\"" << json_escape(iv.name)
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"
         << iv.begin_s * kUs << ",\"dur\":" << dur * kUs
         << ",\"args\":{\"depth\":" << iv.depth << "}}";
    }
    os.flags(flags);
    os.precision(precision);
  }
  if (series == nullptr) return;
  for (const obs::SeriesStats& ser : series->series) {
    for (const obs::SamplePoint& pt : ser.points) {
      sep(os, first);
      os << "{\"name\":\"" << json_escape(ser.name)
         << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << pt.t_s * kUs
         << ",\"args\":{\"value\":" << pt.value << "}}";
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s,
                        const obs::MetricsSnapshot* series,
                        const obs::ProfileSnapshot* profile) {
  if (!s.complete())
    throw std::invalid_argument("write_chrome_trace: incomplete schedule");
  os << "{\"traceEvents\":[";
  bool first = true;
  auto slice = [&](const std::string& name, ProcId proc, double from,
                   double to, TaskId t, std::size_t np) {
    if (to <= from) return;
    sep(os, first);
    os << "{\"name\":\"" << json_escape(name)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << proc
       << ",\"ts\":" << from * kUs << ",\"dur\":" << (to - from) * kUs
       << ",\"args\":{\"task\":" << t << ",\"np\":" << np << "}}";
  };
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    const Placement& p = s.at(t);
    const std::string& name = g.task(t).name;
    p.procs.for_each([&](ProcId q) {
      slice("recv:" + name, q, p.busy_from, p.start, t, p.np());
      slice(name, q, p.start, p.finish, t, p.np());
    });
  }
  // Name the processor rows.
  for (ProcId q = 0; q < s.num_procs(); ++q) {
    sep(os, first);
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << q
       << ",\"args\":{\"name\":\"P" << q << "\"}}";
  }
  if (series != nullptr || (profile != nullptr && !profile->empty())) {
    sep(os, first);
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"schedule\"}}";
    write_planner_track(os, first, series, profile);
  }
  os << "]}";
}

}  // namespace locmps
