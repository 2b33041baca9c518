#pragma once
/// \file report.hpp
/// Self-contained schedule reports rendered from a ScheduleAnalysis:
///  * an HTML/SVG post-mortem — Gantt colored by locality class, per-
///    processor utilization bars, idle-hole histogram, critical-path
///    decomposition and a top-N start-delay blame table — written as
///    strict XHTML (single file, no external assets) so tooling and the
///    test suite can parse it;
///  * a plain-text summary for terminals and logs.
///
/// Both render the run's counters (the backfill, fault, perturbation and
/// mitigation accounting and the trace's dropped lines) straight from its
/// MetricsSnapshot, so each number has one source; a section whose
/// counters are absent or zero is left out.
///
/// Producers: `locmps-inspect` (tools/inspect.cpp) and the bench
/// harness's `--report-out` flag (bench/bench_util.hpp).

#include <iosfwd>
#include <string>

#include <vector>

#include "graph/task_graph.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "schedule/schedule.hpp"

namespace locmps::obs {

/// Report knobs.
struct ReportOptions {
  std::string title = "Schedule report";
  std::string subtitle;            ///< e.g. scheme / workload description
  std::size_t top_blame = 15;      ///< rows of the blame table
  std::size_t gantt_width = 1160;  ///< Gantt plot width in pixels
  /// Session profiler snapshot; non-null (and non-empty) adds the
  /// "Planner self-profile" span-tree panel (docs/observability.md).
  const ProfileSnapshot* profile = nullptr;
  /// Per-task placement decisions (obs::final_decisions of the run's
  /// trace), indexed by TaskId; non-null adds the "Why" panel and turns
  /// each Gantt slice into a link to its task's decision record.
  const std::vector<PlacementDecision>* decisions = nullptr;
  /// The run's counters; non-null adds the backfill, fault, perturbation
  /// and mitigation tiles and panels their counters call for, and the
  /// footer's dropped-trace warning.
  const MetricsSnapshot* counters = nullptr;
};

/// Writes the HTML report for \p a (computed from \p g and \p s).
/// The output is `<!DOCTYPE html>` followed by one well-formed XML
/// document (strict XHTML): every element closed, attributes quoted,
/// text escaped — validated by tests/test_report.cpp.
void write_html_report(std::ostream& os, const TaskGraph& g,
                       const Schedule& s, const ScheduleAnalysis& a,
                       const ReportOptions& opt = {});

/// Convenience: the HTML report as a string.
std::string html_report(const TaskGraph& g, const Schedule& s,
                        const ScheduleAnalysis& a,
                        const ReportOptions& opt = {});

/// Multi-line plain-text summary of \p a, plus the lines \p counters
/// call for (as ReportOptions::counters).
std::string text_report(const ScheduleAnalysis& a,
                        const MetricsSnapshot* counters = nullptr);

/// Escapes &, <, >, " and ' for XML/XHTML text and attribute content.
std::string xml_escape(std::string_view in);

}  // namespace locmps::obs
