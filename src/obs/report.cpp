#include "obs/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/table.hpp"

namespace locmps::obs {

std::string xml_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

std::string mb(double bytes) { return fmt(bytes / 1e6, 2) + " MB"; }

std::string pct(double fraction) { return fmt(100.0 * fraction, 1) + "%"; }

/// Locality class of a task's *incoming* data (colors the Gantt slice).
enum class TaskLoc { None, Local, Partial, Remote };

const char* loc_class(TaskLoc l) {
  switch (l) {
    case TaskLoc::None: return "loc-none";
    case TaskLoc::Local: return "loc-local";
    case TaskLoc::Partial: return "loc-partial";
    case TaskLoc::Remote: return "loc-remote";
  }
  return "loc-none";
}

std::vector<TaskLoc> task_localities(const TaskGraph& g,
                                     const ScheduleAnalysis& a) {
  std::vector<TaskLoc> loc(g.num_tasks(), TaskLoc::None);
  for (TaskId t : g.task_ids()) {
    double vol = 0.0, remote = 0.0;
    for (EdgeId e : g.in_edges(t)) {
      vol += a.edges[e].volume_bytes;
      remote += a.edges[e].remote_bytes;
    }
    if (vol <= 0.0)
      loc[t] = TaskLoc::None;
    else if (remote <= 0.0)
      loc[t] = TaskLoc::Local;
    else if (remote >= vol)
      loc[t] = TaskLoc::Remote;
    else
      loc[t] = TaskLoc::Partial;
  }
  return loc;
}

/// The stylesheet: palette roles as CSS custom properties (light values
/// with a dark-scheme override), so marks are written against roles.
/// Locality uses a one-hue ordinal blue ramp (local -> remote = light ->
/// dark); critical-path segments use categorical slots 1-2 plus a neutral.
const char kStyle[] = R"css(
  :root { color-scheme: light dark; }
  body {
    --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
    --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --loc-none: #e1e0d9; --loc-local: #86b6ef; --loc-partial: #2a78d6;
    --loc-remote: #104281;
    --cp-compute: #2a78d6; --cp-redist: #eb6834; --cp-wait: #e1e0d9;
    --bar: #2a78d6; --fault: #c0392b; --slow: #c98f00;
    margin: 0; padding: 24px; background: var(--page); color: var(--ink);
    font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  @media (prefers-color-scheme: dark) {
    body {
      --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
      --muted: #898781; --grid: #2c2c2a; --axis: #383835;
      --border: rgba(255,255,255,0.10);
      --loc-none: #2c2c2a; --loc-local: #6da7ec; --loc-partial: #2a78d6;
      --loc-remote: #184f95;
      --cp-compute: #3987e5; --cp-redist: #d95926; --cp-wait: #2c2c2a;
      --bar: #3987e5; --fault: #e05a4b; --slow: #e0ac2e;
    }
  }
  h1 { font-size: 20px; margin: 0 0 4px 0; }
  h2 { font-size: 15px; margin: 28px 0 8px 0; }
  .subtitle { color: var(--ink-2); margin: 0 0 20px 0; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
  .tile { background: var(--surface); border: 1px solid var(--border);
          border-radius: 8px; padding: 10px 14px; min-width: 120px; }
  .tile .v { font-size: 22px; font-weight: 600; }
  .tile .l { color: var(--ink-2); font-size: 12px; }
  .panel { background: var(--surface); border: 1px solid var(--border);
           border-radius: 8px; padding: 12px; overflow-x: auto; }
  table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
  th { text-align: left; color: var(--ink-2); font-weight: 500;
       border-bottom: 1px solid var(--axis); padding: 3px 12px 3px 0; }
  td { border-bottom: 1px solid var(--grid); padding: 3px 12px 3px 0; }
  td.num, th.num { text-align: right; }
  .bar-cell { width: 180px; }
  .hbar { background: var(--bar); height: 10px; border-radius: 0 4px 4px 0; }
  .legend { display: flex; gap: 16px; margin: 8px 0; color: var(--ink-2);
            font-size: 12px; flex-wrap: wrap; }
  .legend .sw { display: inline-block; width: 12px; height: 12px;
                border-radius: 3px; vertical-align: -2px; margin-right: 5px;
                border: 1px solid var(--border); }
  .cp-bar { display: flex; height: 18px; margin: 8px 0; }
  .cp-bar .seg { height: 18px; }
  .cp-bar .seg.mid { margin-left: 2px; }
  .loc-none { fill: var(--loc-none); }
  .loc-local { fill: var(--loc-local); }
  .loc-partial { fill: var(--loc-partial); }
  .loc-remote { fill: var(--loc-remote); }
  .recv { opacity: 0.35; }
  .fault { fill: var(--fault); opacity: 0.28; }
  .slow { fill: var(--slow); opacity: 0.30; }
  .gantt-grid { stroke: var(--grid); stroke-width: 1; }
  .gantt-label { fill: var(--muted); font-size: 10px;
                 font-family: system-ui, sans-serif; }
  .footer { color: var(--muted); font-size: 12px; margin-top: 28px; }
)css";

void tile(std::ostream& os, const std::string& value,
          const std::string& label) {
  os << "<div class=\"tile\"><div class=\"v\">" << value
     << "</div><div class=\"l\">" << label << "</div></div>\n";
}

void swatch(std::ostream& os, const char* color_var, const std::string& label) {
  os << "<span><span class=\"sw\" style=\"background:var(--" << color_var
     << ")\"></span>" << label << "</span>";
}

/// One "label | value" row of an accounting table, in <td> cells (or <th>
/// for a header row and the backfill table).
void row(std::ostream& os, std::string_view label, const std::string& value,
         const char* cell = "td") {
  os << "<tr><" << cell << ">" << label << "</" << cell << "><" << cell
     << " class=\"num\">" << value << "</" << cell << "></tr>\n";
}

/// The run's counters as the report reads them: 0 for one the run did not
/// record, or when the caller passed none. A family's section shows when
/// its counters say the run did that kind of work.
class Counters {
 public:
  explicit Counters(const MetricsSnapshot* snap) : snap_(snap) {}

  double operator()(std::string_view name) const {
    return snap_ != nullptr ? snap_->counter(name) : 0.0;
  }
  /// \p name per LoCBS placement (a rate, shown when backfill()).
  double per_placement(std::string_view name) const {
    return (*this)(name) / (*this)("locbs.tasks_placed");
  }

  bool backfill() const { return (*this)("locbs.tasks_placed") > 0.0; }
  bool faults() const { return (*this)("fault.injected") > 0.0; }
  bool perturb() const {
    return (*this)("perturb.slowed_tasks") > 0.0 ||
           (*this)("perturb.degraded_transfers") > 0.0;
  }
  bool mitigation() const { return (*this)("mitigation.stragglers") > 0.0; }
  double dropped() const { return (*this)("obs.trace.dropped"); }

 private:
  const MetricsSnapshot* snap_;
};

void render_gantt(std::ostream& os, const TaskGraph& g, const Schedule& s,
                  const ScheduleAnalysis& a, const ReportOptions& opt) {
  const std::size_t P = a.num_procs;
  const double horizon = a.makespan > 0.0 ? a.makespan : 1.0;
  const double gutter = 56.0;
  const double width = static_cast<double>(opt.gantt_width);
  const double row_h = 14.0, row_gap = 4.0;
  const double plot_h = static_cast<double>(P) * (row_h + row_gap);
  const double axis_h = 22.0;
  const double scale = width / horizon;
  const auto loc = task_localities(g, a);

  os << "<svg role=\"img\" width=\"" << fmt(gutter + width + 12, 0)
     << "\" height=\"" << fmt(plot_h + axis_h, 0) << "\" viewBox=\"0 0 "
     << fmt(gutter + width + 12, 0) << " " << fmt(plot_h + axis_h, 0)
     << "\" xmlns=\"http://www.w3.org/2000/svg\">\n";
  os << "<title>Gantt chart: one row per processor, slices colored by the "
        "locality class of each task&apos;s incoming data</title>\n";

  // Recessive time grid: 6 ticks over [0, makespan].
  const int ticks = 6;
  for (int i = 0; i <= ticks; ++i) {
    const double t = horizon * static_cast<double>(i) / ticks;
    const double x = gutter + t * scale;
    os << "<line class=\"gantt-grid\" x1=\"" << fmt(x, 1) << "\" y1=\"0\" x2=\""
       << fmt(x, 1) << "\" y2=\"" << fmt(plot_h, 1) << "\"></line>\n";
    os << "<text class=\"gantt-label\" x=\"" << fmt(x, 1) << "\" y=\""
       << fmt(plot_h + 14, 1) << "\" text-anchor=\"middle\">" << fmt(t, 1)
       << "s</text>\n";
  }
  for (ProcId q = 0; q < P; ++q) {
    const double y = static_cast<double>(q) * (row_h + row_gap);
    os << "<text class=\"gantt-label\" x=\"" << fmt(gutter - 6, 1) << "\" y=\""
       << fmt(y + row_h - 3, 1) << "\" text-anchor=\"end\">p" << q
       << "</text>\n";
  }

  for (TaskId t : g.task_ids()) {
    const Placement& p = s.at(t);
    const char* cls = loc_class(loc[t]);
    std::ostringstream tip;
    tip << g.task(t).name << " np=" << p.np() << " [" << fmt(p.start, 3)
        << ", " << fmt(p.finish, 3) << ")s";
    if (p.busy_from < p.start)
      tip << " recv from " << fmt(p.busy_from, 3) << "s";
    // With decision records attached, every slice links down to its
    // task's entry in the "Why" panel.
    const bool link = opt.decisions != nullptr &&
                      t < opt.decisions->size() &&
                      (*opt.decisions)[t].valid();
    if (link) {
      tip << " — click for the placement decision";
      os << "<a href=\"#why-t" << t << "\">\n";
    }
    const std::string title = xml_escape(tip.str());
    p.procs.for_each([&](ProcId q) {
      const double y = static_cast<double>(q) * (row_h + row_gap);
      if (p.busy_from < p.start) {
        const double rx = gutter + p.busy_from * scale;
        const double rw =
            std::max(0.5, (p.start - p.busy_from) * scale);
        os << "<rect class=\"" << cls << " recv\" x=\"" << fmt(rx, 2)
           << "\" y=\"" << fmt(y, 1) << "\" width=\"" << fmt(rw, 2)
           << "\" height=\"" << fmt(row_h, 1) << "\"><title>" << title
           << "</title></rect>\n";
      }
      const double x = gutter + p.start * scale;
      const double w = std::max(0.5, (p.finish - p.start) * scale);
      os << "<rect class=\"" << cls << "\" rx=\"2\" x=\"" << fmt(x, 2)
         << "\" y=\"" << fmt(y, 1) << "\" width=\"" << fmt(w, 2)
         << "\" height=\"" << fmt(row_h, 1) << "\"><title>" << title
         << "</title></rect>\n";
    });
    if (link) os << "</a>\n";
  }

  // Fault lane: each fail-stop window shades its processor row from the
  // onset to the repair (or the end of the chart when never repaired).
  for (const FaultWindow& fw : a.fault_windows) {
    if (fw.proc >= P || fw.fail_s >= horizon) continue;
    const double end_t =
        fw.repair_s >= 0.0 ? std::min(fw.repair_s, horizon) : horizon;
    const double y = static_cast<double>(fw.proc) * (row_h + row_gap);
    const double x = gutter + fw.fail_s * scale;
    const double w = std::max(0.5, (end_t - fw.fail_s) * scale);
    std::ostringstream tip;
    tip << "p" << fw.proc << " failed at " << fmt(fw.fail_s, 3) << "s";
    if (fw.repair_s >= 0.0)
      tip << ", repaired at " << fmt(fw.repair_s, 3) << "s";
    else
      tip << ", never repaired";
    os << "<rect class=\"fault\" x=\"" << fmt(x, 2) << "\" y=\"" << fmt(y, 1)
       << "\" width=\"" << fmt(w, 2) << "\" height=\"" << fmt(row_h, 1)
       << "\"><title>" << xml_escape(tip.str()) << "</title></rect>\n";
  }

  // Straggler lane: each slowdown window shades its processor row like a
  // fault window, but in the slowdown hue — the processor kept running,
  // just slower by the given factor.
  for (const SlowdownWindow& sw : a.slowdown_windows) {
    if (sw.proc >= P || sw.begin_s >= horizon) continue;
    const double end_t = std::min(sw.end_s, horizon);
    const double y = static_cast<double>(sw.proc) * (row_h + row_gap);
    const double x = gutter + sw.begin_s * scale;
    const double w = std::max(0.5, (end_t - sw.begin_s) * scale);
    std::ostringstream tip;
    tip << "p" << sw.proc << " slowed " << fmt(sw.factor, 2) << "x over ["
        << fmt(sw.begin_s, 3) << ", " << fmt(sw.end_s, 3) << ")s";
    os << "<rect class=\"slow\" x=\"" << fmt(x, 2) << "\" y=\"" << fmt(y, 1)
       << "\" width=\"" << fmt(w, 2) << "\" height=\"" << fmt(row_h, 1)
       << "\"><title>" << xml_escape(tip.str()) << "</title></rect>\n";
  }
  os << "</svg>\n";
}

void render_faults(std::ostream& os, const ScheduleAnalysis& a,
                   const Counters& c) {
  os << "<div class=\"panel\"><table>\n";
  row(os, "fault accounting", "value", "th");
  row(os, "failures injected", fmt(c("fault.injected"), 0));
  row(os, "failures observed", fmt(c("fault.procs_failed"), 0));
  row(os, "task kills", fmt(c("fault.kills"), 0));
  row(os, "transfer timeouts", fmt(c("fault.transfer_timeouts"), 0));
  row(os, "wasted proc-seconds", fmt(c("fault.wasted_proc_seconds"), 3));
  row(os, "retries", fmt(c("recovery.retries"), 0));
  row(os, "backoff charged (s)", fmt(c("recovery.backoff_seconds"), 3));
  row(os, "degraded replans", fmt(c("recovery.replans"), 0));
  row(os, "processors masked", fmt(c("recovery.masked_procs"), 0));
  row(os, "recovery rounds", fmt(c("recovery.rounds"), 0));
  os << "</table>\n";
  if (!a.fault_windows.empty()) {
    os << "<table>\n<tr><th>proc</th><th class=\"num\">failed (s)</th>"
          "<th class=\"num\">repaired (s)</th></tr>\n";
    for (const FaultWindow& fw : a.fault_windows) {
      os << "<tr><td>p" << fw.proc << "</td><td class=\"num\">"
         << fmt(fw.fail_s, 3) << "</td><td class=\"num\">"
         << (fw.repair_s >= 0.0 ? fmt(fw.repair_s, 3)
                                : std::string("&#8212;"))
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</div>\n";
}

/// Robustness panel: perturbation exposure, straggler mitigation
/// accounting, and the Monte-Carlo makespan distribution (when scored).
void render_robustness(std::ostream& os, const ScheduleAnalysis& a,
                       const Counters& c) {
  os << "<div class=\"panel\">";
  if (c.perturb()) {
    os << "<table>\n";
    row(os, "perturbation exposure", "value", "th");
    row(os, "tasks slowed", fmt(c("perturb.slowed_tasks"), 0));
    row(os, "compute stretch (s)", fmt(c("perturb.stretch_seconds"), 3));
    row(os, "transfers degraded", fmt(c("perturb.degraded_transfers"), 0));
    row(os, "link delay (s)", fmt(c("perturb.link_delay_seconds"), 3));
    os << "</table>\n";
  }
  if (c.mitigation()) {
    os << "<table>\n";
    row(os, "straggler mitigation", "value", "th");
    row(os, "stragglers detected", fmt(c("mitigation.stragglers"), 0));
    row(os, "speculative copies", fmt(c("mitigation.speculations"), 0));
    row(os, "copy wins / losses",
        fmt(c("mitigation.spec_wins"), 0) + " / " +
            fmt(c("mitigation.spec_losses"), 0));
    row(os, "degraded replans", fmt(c("mitigation.replans"), 0));
    row(os, "mitigation waste (proc-s)",
        fmt(c("mitigation.wasted_seconds"), 3));
    os << "</table>\n";
  }
  if (a.robustness.samples > 0) {
    const RobustnessSummary& r = a.robustness;
    os << "<table>\n";
    row(os,
        "makespan distribution (" + std::to_string(r.samples) +
            " perturbed samples)",
        "seconds", "th");
    row(os, "nominal (unperturbed)", fmt(r.nominal, 3));
    row(os, "mean", fmt(r.mean, 3));
    row(os, "median [CI]",
        fmt(r.median, 3) + " [" + fmt(r.median_lo, 3) + ", " +
            fmt(r.median_hi, 3) + "]");
    row(os, "p95", fmt(r.p95, 3));
    row(os, "worst", fmt(r.worst, 3));
    row(os, "p95 / nominal", fmt(r.p95_over_nominal, 3) + "x");
    os << "</table>\n";
  }
  if (!a.slowdown_windows.empty()) {
    os << "<table>\n<tr><th>proc</th><th class=\"num\">slowed from (s)</th>"
          "<th class=\"num\">until (s)</th><th class=\"num\">factor</th>"
          "</tr>\n";
    for (const SlowdownWindow& sw : a.slowdown_windows) {
      os << "<tr><td>p" << sw.proc << "</td><td class=\"num\">"
         << fmt(sw.begin_s, 3) << "</td><td class=\"num\">"
         << fmt(sw.end_s, 3) << "</td><td class=\"num\">"
         << fmt(sw.factor, 2) << "x</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</div>\n";
}

void render_utilization(std::ostream& os, const ScheduleAnalysis& a) {
  os << "<div class=\"panel\"><table>\n"
     << "<tr><th>proc</th><th class=\"num\">busy (s)</th>"
        "<th class=\"num\">idle (s)</th><th class=\"num\">tasks</th>"
        "<th class=\"num\">holes</th><th class=\"num\">util</th>"
        "<th class=\"bar-cell\"></th></tr>\n";
  for (const ProcUtilization& u : a.procs) {
    os << "<tr><td>p" << u.proc << "</td><td class=\"num\">"
       << fmt(u.busy_s, 2) << "</td><td class=\"num\">" << fmt(u.idle_s, 2)
       << "</td><td class=\"num\">" << u.tasks << "</td><td class=\"num\">"
       << u.holes << "</td><td class=\"num\">" << pct(u.utilization)
       << "</td><td class=\"bar-cell\"><div class=\"hbar\" style=\"width:"
       << fmt(100.0 * u.utilization, 1) << "%\"></div></td></tr>\n";
  }
  os << "</table></div>\n";
}

void render_holes(std::ostream& os, const ScheduleAnalysis& a) {
  const HoleHistogram& h = a.holes;
  if (h.total_holes == 0) {
    os << "<p class=\"subtitle\">No idle holes: the timeline is fully "
          "packed.</p>\n";
    return;
  }
  std::size_t max_count = 1;
  for (std::size_t c : h.counts) max_count = std::max(max_count, c);
  os << "<div class=\"panel\"><table>\n"
     << "<tr><th>hole duration (s)</th><th class=\"num\">count</th>"
        "<th class=\"bar-cell\"></th></tr>\n";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    os << "<tr><td>" << fmt(h.bin_edges[i], 2) << " &#8211; "
       << fmt(h.bin_edges[i + 1], 2) << "</td><td class=\"num\">"
       << h.counts[i] << "</td><td class=\"bar-cell\"><div class=\"hbar\" "
          "style=\"width:"
       << fmt(100.0 * static_cast<double>(h.counts[i]) /
                  static_cast<double>(max_count),
              1)
       << "%\"></div></td></tr>\n";
  }
  os << "</table></div>\n";
}

void render_locality(std::ostream& os, const TaskGraph& g,
                     const ScheduleAnalysis& a) {
  const LocalityTotals& lt = a.locality;
  os << "<div class=\"panel\"><table>\n"
     << "<tr><th>aggregate</th><th class=\"num\">bytes</th>"
        "<th class=\"num\">share</th></tr>\n"
     << "<tr><td>total on edges</td><td class=\"num\" id=\"agg-total-bytes\">"
     << fmt(lt.total_bytes, 1) << "</td><td class=\"num\">100%</td></tr>\n"
     << "<tr><td>stayed local</td><td class=\"num\" id=\"agg-local-bytes\">"
     << fmt(lt.local_bytes, 1) << "</td><td class=\"num\">"
     << pct(lt.total_bytes > 0 ? lt.local_bytes / lt.total_bytes : 1.0)
     << "</td></tr>\n"
     << "<tr><td>crossed the network</td>"
        "<td class=\"num\" id=\"agg-remote-bytes\">"
     << fmt(lt.remote_bytes, 1) << "</td><td class=\"num\">"
     << pct(lt.total_bytes > 0 ? lt.remote_bytes / lt.total_bytes : 0.0)
     << "</td></tr>\n</table>\n";
  os << "<p class=\"subtitle\">" << lt.local_edges << " local, "
     << lt.partial_edges << " partial, " << lt.remote_edges << " remote, "
     << lt.empty_edges << " empty edges; "
     << fmt(lt.transfer_seconds, 3)
     << " s of summed remote-transfer time.</p>\n";

  // Top remote edges: where the network traffic actually comes from.
  std::vector<const EdgeLocality*> worst;
  for (const EdgeLocality& el : a.edges)
    if (el.remote_bytes > 0.0) worst.push_back(&el);
  std::sort(worst.begin(), worst.end(),
            [](const EdgeLocality* x, const EdgeLocality* y) {
              return x->remote_bytes > y->remote_bytes;
            });
  if (worst.size() > 10) worst.resize(10);
  if (!worst.empty()) {
    os << "<table>\n<tr><th>edge</th><th class=\"num\">volume</th>"
          "<th class=\"num\">remote</th><th class=\"num\">transfer (s)</th>"
          "</tr>\n";
    for (const EdgeLocality* el : worst) {
      os << "<tr><td>" << xml_escape(g.task(el->src).name) << " &#8594; "
         << xml_escape(g.task(el->dst).name) << "</td><td class=\"num\">"
         << mb(el->volume_bytes) << "</td><td class=\"num\">"
         << mb(el->remote_bytes) << "</td><td class=\"num\">"
         << fmt(el->transfer_s, 4) << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</div>\n";
}

void render_critical_path(std::ostream& os, const TaskGraph& g,
                          const ScheduleAnalysis& a) {
  const CriticalPathBreakdown& cp = a.critical_path;
  const double total = cp.makespan > 0.0 ? cp.makespan : 1.0;
  os << "<div class=\"panel\">\n<div class=\"cp-bar\">"
     << "<div class=\"seg\" style=\"background:var(--cp-compute);width:"
     << fmt(100.0 * cp.compute_s / total, 2) << "%\"></div>"
     << "<div class=\"seg mid\" style=\"background:var(--cp-redist);width:"
     << fmt(100.0 * cp.redist_s / total, 2) << "%\"></div>"
     << "<div class=\"seg mid\" style=\"background:var(--cp-wait);width:"
     << fmt(100.0 * cp.wait_s / total, 2) << "%\"></div></div>\n";
  os << "<div class=\"legend\">";
  swatch(os, "cp-compute",
         "compute " + fmt(cp.compute_s, 3) + " s (" +
             pct(cp.compute_s / total) + ")");
  swatch(os, "cp-redist",
         "redistribution " + fmt(cp.redist_s, 3) + " s (" +
             pct(cp.redist_s / total) + ")");
  swatch(os, "cp-wait",
         "wait " + fmt(cp.wait_s, 3) + " s (" + pct(cp.wait_s / total) + ")");
  os << "</div>\n";
  os << "<details><summary>critical chain (" << cp.steps.size()
     << " tasks)</summary><table>\n"
        "<tr><th>task</th><th class=\"num\">compute (s)</th>"
        "<th class=\"num\">redist in (s)</th><th class=\"num\">wait in (s)"
        "</th></tr>\n";
  for (const CriticalPathStep& st : cp.steps) {
    os << "<tr><td>" << xml_escape(g.task(st.task).name)
       << "</td><td class=\"num\">" << fmt(st.compute_s, 3)
       << "</td><td class=\"num\">" << fmt(st.redist_s, 3)
       << "</td><td class=\"num\">" << fmt(st.wait_s, 3) << "</td></tr>\n";
  }
  os << "</table></details>\n</div>\n";
}

void render_blame(std::ostream& os, const TaskGraph& g,
                  const ScheduleAnalysis& a, std::size_t top_n) {
  const auto top = a.top_blame(top_n);
  if (top.empty()) {
    os << "<p class=\"subtitle\">No task shows an attributable start "
          "delay.</p>\n";
    return;
  }
  os << "<div class=\"panel\"><table>\n"
     << "<tr><th>task</th><th>blame</th><th>culprit</th>"
        "<th class=\"num\">delay (s)</th><th class=\"num\">start (s)</th>"
        "<th class=\"num\">data ready</th><th class=\"num\">procs ready</th>"
        "</tr>\n";
  for (const TaskBlame& b : top) {
    os << "<tr><td>" << xml_escape(g.task(b.task).name) << "</td><td>"
       << to_string(b.kind) << "</td><td>"
       << (b.culprit != kNoTask ? xml_escape(g.task(b.culprit).name)
                                : std::string("&#8212;"))
       << "</td><td class=\"num\">" << fmt(b.delay_s, 3)
       << "</td><td class=\"num\">" << fmt(b.start, 3)
       << "</td><td class=\"num\">" << fmt(b.data_ready, 3)
       << "</td><td class=\"num\">" << fmt(b.proc_ready, 3) << "</td></tr>\n";
  }
  os << "</table></div>\n";
}

/// One span-tree row per profile node, indented by depth; recursion
/// follows the snapshot's deterministic (name-sorted) child order.
void render_profile_rows(std::ostream& os, const ProfileNode& n, int depth) {
  os << "<tr><td style=\"padding-left:" << 8 + depth * 18 << "px\">"
     << xml_escape(n.name) << "</td><td class=\"num\">" << n.count
     << "</td><td class=\"num\">" << fmt(n.wall_s, 6)
     << "</td><td class=\"num\">" << fmt(n.self_wall_s(), 6)
     << "</td><td class=\"num\">" << fmt(n.cpu_s, 6)
     << "</td><td class=\"num\">" << mb(static_cast<double>(n.alloc_bytes))
     << "</td><td class=\"num\">" << n.allocs << "</td></tr>\n";
  for (const ProfileNode& c : n.children) render_profile_rows(os, c, depth + 1);
}

void render_profile(std::ostream& os, const ProfileSnapshot& snap) {
  double wall = 0.0, cpu = 0.0;
  std::uint64_t bytes = 0;
  for (const ProfileNode& c : snap.root.children) {
    wall += c.wall_s;
    cpu += c.cpu_s;
    bytes += c.alloc_bytes;
  }
  os << "<div class=\"panel\"><table id=\"profile-table\">\n"
     << "<tr><th>span</th><th class=\"num\">count</th>"
     << "<th class=\"num\">total (s)</th><th class=\"num\">self (s)</th>"
     << "<th class=\"num\">cpu (s)</th><th class=\"num\">alloc</th>"
     << "<th class=\"num\">allocs</th></tr>\n";
  for (const ProfileNode& c : snap.root.children)
    render_profile_rows(os, c, 0);
  os << "<tr><th>total</th><th class=\"num\"></th>"
     << "<th class=\"num\" id=\"profile-total-wall\">" << fmt(wall, 6)
     << "</th><th class=\"num\"></th>"
     << "<th class=\"num\" id=\"profile-total-cpu\">" << fmt(cpu, 6)
     << "</th><th class=\"num\" id=\"profile-total-alloc\">"
     << mb(static_cast<double>(bytes)) << "</th><th class=\"num\"></th>"
     << "</tr>\n</table></div>\n";
}

/// "Why" panel: one collapsible decision record per task, the anchor
/// targets of the Gantt slice links. Capped so a pathological graph
/// cannot balloon the report.
void render_why(std::ostream& os, const TaskGraph& g,
                const std::vector<PlacementDecision>& decisions) {
  constexpr std::size_t kMaxWhyEntries = 200;
  std::size_t shown = 0, with_record = 0;
  for (const PlacementDecision& d : decisions)
    if (d.valid()) ++with_record;
  os << "<div class=\"panel\">\n";
  os << "<p>Per-task provenance from the run&apos;s \"locbs.decision\" "
        "records: the candidate shortlist LoCBS scored, the committed "
        "winner and its margin over the distinct runner-up "
        "(docs/observability.md).</p>\n";
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const PlacementDecision& d = decisions[t];
    if (!d.valid()) continue;
    if (shown == kMaxWhyEntries) break;
    ++shown;
    std::ostringstream body;
    print_decision(body, g, d);
    os << "<details id=\"why-t" << t << "\"><summary>"
       << xml_escape(t < g.num_tasks() ? g.task(static_cast<TaskId>(t)).name
                                       : "task " + std::to_string(t))
       << ": " << xml_escape(decision_brief(d)) << "</summary><pre>"
       << xml_escape(body.str()) << "</pre></details>\n";
  }
  if (shown < with_record)
    os << "<p>" << (with_record - shown)
       << " further decision record(s) omitted (panel cap).</p>\n";
  os << "</div>\n";
}

}  // namespace

void write_html_report(std::ostream& os, const TaskGraph& g,
                       const Schedule& s, const ScheduleAnalysis& a,
                       const ReportOptions& opt) {
  os << "<!DOCTYPE html>\n";
  os << "<html lang=\"en\"><head><meta charset=\"utf-8\"></meta><title>"
     << xml_escape(opt.title) << "</title><style>\n"
     << kStyle << "</style></head>\n<body>\n";
  os << "<h1>" << xml_escape(opt.title) << "</h1>\n";
  if (!opt.subtitle.empty())
    os << "<p class=\"subtitle\">" << xml_escape(opt.subtitle) << "</p>\n";

  const LocalityTotals& lt = a.locality;
  const Counters c(opt.counters);
  os << "<div class=\"tiles\">\n";
  tile(os, fmt(a.makespan, 3) + " s", "makespan");
  tile(os, pct(a.mean_utilization), "mean utilization");
  tile(os, pct(lt.locality_fraction), "data locality");
  tile(os, mb(lt.remote_bytes), "remote volume");
  tile(os, std::to_string(a.holes.total_holes), "idle holes");
  if (c.backfill()) {
    tile(os, pct(c.per_placement("locbs.backfill_hits")), "backfill hit rate");
    tile(os, pct(c.per_placement("locbs.scan_cutoffs")), "scan prune rate");
  }
  if (c.faults()) {
    tile(os, fmt(c("fault.kills"), 0), "task kills");
    tile(os, fmt(c("fault.wasted_proc_seconds"), 2) + " s",
         "wasted proc-time");
    tile(os, fmt(c("recovery.retries") + c("recovery.replans"), 0),
         "recovery actions");
  }
  if (c.perturb())
    tile(os, fmt(c("perturb.stretch_seconds") +
                     c("perturb.link_delay_seconds"),
                 2) + " s",
         "perturbation delay");
  if (c.mitigation())
    tile(os, fmt(c("mitigation.stragglers"), 0), "stragglers mitigated");
  if (a.robustness.samples > 0)
    tile(os, fmt(a.robustness.p95_over_nominal, 2) + "x",
         "p95 / nominal makespan");
  os << "</div>\n";

  os << "<h2>Schedule (Gantt, colored by input locality)</h2>\n";
  os << "<div class=\"legend\">";
  swatch(os, "loc-local", "all inputs local");
  swatch(os, "loc-partial", "partially remote");
  swatch(os, "loc-remote", "fully remote");
  swatch(os, "loc-none", "no input data");
  os << "<span>faded slice = receive window</span>";
  if (!a.fault_windows.empty())
    swatch(os, "fault", "processor failure window");
  if (!a.slowdown_windows.empty())
    swatch(os, "slow", "processor slowdown window");
  os << "</div>\n";
  os << "<div class=\"panel\">\n";
  render_gantt(os, g, s, a, opt);
  os << "</div>\n";

  os << "<h2>Critical-path decomposition</h2>\n";
  render_critical_path(os, g, a);

  os << "<h2>Redistribution locality</h2>\n";
  render_locality(os, g, a);

  os << "<h2>Start-delay blame (top " << opt.top_blame << ")</h2>\n";
  render_blame(os, g, a, opt.top_blame);

  os << "<h2>Processor utilization</h2>\n";
  render_utilization(os, a);

  os << "<h2>Idle-hole histogram</h2>\n";
  render_holes(os, a);

  if (c.backfill()) {
    os << "<h2>Backfill effectiveness</h2>\n<div class=\"panel\"><table>\n";
    row(os, "LoCBS passes", fmt(c("locbs.calls"), 0), "th");
    row(os, "tasks placed (all passes)", fmt(c("locbs.tasks_placed"), 0),
        "th");
    row(os, "holes scanned", fmt(c("locbs.holes_scanned"), 0), "th");
    row(os, "backfill hits",
        fmt(c("locbs.backfill_hits"), 0) + " (" +
            pct(c.per_placement("locbs.backfill_hits")) + ")",
        "th");
    row(os, "scan cutoffs",
        fmt(c("locbs.scan_cutoffs"), 0) + " (" +
            pct(c.per_placement("locbs.scan_cutoffs")) + ")",
        "th");
    os << "</table></div>\n";
  }

  if (c.faults() || !a.fault_windows.empty()) {
    os << "<h2>Fault timeline and recovery accounting</h2>\n";
    render_faults(os, a, c);
  }

  if (c.perturb() || c.mitigation() || a.robustness.samples > 0 ||
      !a.slowdown_windows.empty()) {
    os << "<h2>Robustness under performance faults</h2>\n";
    render_robustness(os, a, c);
  }

  if (opt.decisions != nullptr) {
    os << "<h2>Why: placement decisions</h2>\n";
    render_why(os, g, *opt.decisions);
  }

  if (opt.profile != nullptr && !opt.profile->empty()) {
    os << "<h2>Planner self-profile</h2>\n";
    render_profile(os, *opt.profile);
  }

  os << "<p class=\"footer\">Generated by locmps schedule analytics "
        "(docs/observability.md). "
     << a.num_tasks << " tasks on " << a.num_procs << " processors.";
  if (c.dropped() > 0.0)
    os << " WARNING: " << fmt(c.dropped(), 0)
       << " decision event(s) dropped at the JSONL sink's line cap — the "
          "on-disk trace is truncated.";
  os << "</p>\n";
  os << "</body></html>\n";
}

std::string html_report(const TaskGraph& g, const Schedule& s,
                        const ScheduleAnalysis& a, const ReportOptions& opt) {
  std::ostringstream os;
  write_html_report(os, g, s, a, opt);
  return os.str();
}

std::string text_report(const ScheduleAnalysis& a,
                        const MetricsSnapshot* counters) {
  const Counters c(counters);
  const LocalityTotals& lt = a.locality;
  const CriticalPathBreakdown& cp = a.critical_path;
  std::ostringstream os;
  os << "makespan        " << fmt(a.makespan, 4) << " s on " << a.num_procs
     << " procs, " << a.num_tasks << " tasks\n";
  os << "utilization     mean " << pct(a.mean_utilization) << ", "
     << a.holes.total_holes << " idle hole(s), " << fmt(a.holes.total_idle_s, 2)
     << " proc-seconds idle (longest " << fmt(a.holes.longest_s, 3) << " s)\n";
  os << "locality        " << pct(lt.locality_fraction) << " of "
     << mb(lt.total_bytes) << " stayed local; " << mb(lt.remote_bytes)
     << " over the network in " << lt.partial_edges + lt.remote_edges
     << " transfer(s), " << lt.local_edges << " edge(s) fully local\n";
  const double total = cp.makespan > 0.0 ? cp.makespan : 1.0;
  os << "critical path   compute " << fmt(cp.compute_s, 3) << " s ("
     << pct(cp.compute_s / total) << "), redistribution " << fmt(cp.redist_s, 3)
     << " s (" << pct(cp.redist_s / total) << "), wait " << fmt(cp.wait_s, 3)
     << " s (" << pct(cp.wait_s / total) << ") across " << cp.steps.size()
     << " task(s)\n";
  std::size_t data = 0, proc = 0, backfill = 0;
  for (const TaskBlame& b : a.blame) {
    if (b.kind == BlameKind::Data || b.kind == BlameKind::Tie) ++data;
    if (b.kind == BlameKind::Processor) ++proc;
    if (b.kind == BlameKind::Backfill) ++backfill;
  }
  os << "start blame     " << data << " data-bound, " << proc
     << " processor-bound, " << backfill << " backfill-displaced task(s)\n";
  if (c.faults())
    os << "faults          " << fmt(c("fault.procs_failed"), 0)
       << " processor failure(s), " << fmt(c("fault.kills"), 0)
       << " task kill(s) (" << fmt(c("fault.transfer_timeouts"), 0)
       << " transfer timeout(s)), " << fmt(c("fault.wasted_proc_seconds"), 3)
       << " proc-seconds wasted; recovery: " << fmt(c("recovery.retries"), 0)
       << " retry(ies), " << fmt(c("recovery.replans"), 0)
       << " degraded replan(s), " << fmt(c("recovery.masked_procs"), 0)
       << " proc(s) masked in " << fmt(c("recovery.rounds"), 0)
       << " round(s)\n";
  if (c.perturb())
    os << "perturbation    " << fmt(c("perturb.slowed_tasks"), 0)
       << " task(s) slowed (+" << fmt(c("perturb.stretch_seconds"), 3)
       << " s stretch), " << fmt(c("perturb.degraded_transfers"), 0)
       << " transfer(s) degraded (+"
       << fmt(c("perturb.link_delay_seconds"), 3) << " s link delay)\n";
  if (c.mitigation())
    os << "mitigation      " << fmt(c("mitigation.stragglers"), 0)
       << " straggler(s): " << fmt(c("mitigation.speculations"), 0)
       << " speculative cop(ies) (" << fmt(c("mitigation.spec_wins"), 0)
       << " won, " << fmt(c("mitigation.spec_losses"), 0) << " lost), "
       << fmt(c("mitigation.replans"), 0) << " replan(s), "
       << fmt(c("mitigation.wasted_seconds"), 3) << " proc-seconds wasted\n";
  if (a.robustness.samples > 0)
    os << "robustness      " << a.robustness.samples
       << " perturbed sample(s): median " << fmt(a.robustness.median, 3)
       << " s [" << fmt(a.robustness.median_lo, 3) << ", "
       << fmt(a.robustness.median_hi, 3) << "], p95 "
       << fmt(a.robustness.p95, 3) << " s ("
       << fmt(a.robustness.p95_over_nominal, 3) << "x nominal), worst "
       << fmt(a.robustness.worst, 3) << " s\n";
  if (c.backfill())
    os << "backfill        " << fmt(c("locbs.backfill_hits"), 0) << "/"
       << fmt(c("locbs.tasks_placed"), 0) << " placements backfilled ("
       << pct(c.per_placement("locbs.backfill_hits")) << "), "
       << fmt(c("locbs.holes_scanned"), 0) << " holes scanned, prune rate "
       << pct(c.per_placement("locbs.scan_cutoffs")) << "\n";
  if (c.dropped() > 0.0)
    os << "trace           WARNING: " << fmt(c.dropped(), 0)
       << " decision event(s) dropped (JSONL sink line cap)\n";
  return os.str();
}

}  // namespace locmps::obs
