#include "obs/rundiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/table.hpp"

namespace locmps::obs {

namespace {

/// Same-instant tolerance, mirroring the scheduler's (locbs.cpp).
bool about(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// The processors a decision committed: its shortlist winner's (none
/// when the task was not placed).
const std::vector<ProcId>& procs_of(const PlacementDecision& d) {
  static const std::vector<ProcId> kNone;
  return d.valid() ? d.shortlist[d.winner].procs : kNone;
}

DivergenceKind classify(const PlacementDecision& a,
                        const PlacementDecision& b) {
  if (!a.valid() || !b.valid()) {
    if (a.valid() == b.valid()) return DivergenceKind::kIdentical;
    return DivergenceKind::kWidth;  // structural: placed in one run only
  }
  if (a.np != b.np) return DivergenceKind::kWidth;
  if (procs_of(a) != procs_of(b)) return DivergenceKind::kPlacement;
  if (!about(a.start, b.start) || !about(a.busy_from, b.busy_from))
    return DivergenceKind::kStartShift;
  if (!about(a.remote_bytes, b.remote_bytes)) return DivergenceKind::kRedist;
  if (!about(a.finish, b.finish)) return DivergenceKind::kDrift;
  return DivergenceKind::kIdentical;
}

/// Exact round-trip JSON number (17 significant digits).
void put_num(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void put_str(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Per-run chart neighbourhood: for every task, the task that occupied
/// each of its processors immediately before it acquired them. A vanished
/// hole shows up as a changed previous occupant, which is exactly the
/// influence edge the blame walk needs.
std::vector<std::vector<TaskId>> previous_occupants(const RunView& v) {
  // Processor -> (busy_from, task), then sort each lane by acquire time.
  std::map<ProcId, std::vector<std::pair<double, TaskId>>> lanes;
  for (TaskId t = 0; t < v.tasks.size(); ++t)
    for (ProcId q : procs_of(v.tasks[t]))
      lanes[q].emplace_back(v.tasks[t].busy_from, t);
  std::vector<std::vector<TaskId>> prev(v.tasks.size());
  for (auto& [q, lane] : lanes) {
    std::sort(lane.begin(), lane.end());
    for (std::size_t i = 1; i < lane.size(); ++i) {
      std::vector<TaskId>& p = prev[lane[i].second];
      const TaskId before = lane[i - 1].second;
      if (std::find(p.begin(), p.end(), before) == p.end())
        p.push_back(before);
    }
  }
  return prev;
}

}  // namespace

const char* kind_name(DivergenceKind k) {
  switch (k) {
    case DivergenceKind::kIdentical: return "identical";
    case DivergenceKind::kWidth: return "width";
    case DivergenceKind::kPlacement: return "placement";
    case DivergenceKind::kStartShift: return "start-shift";
    case DivergenceKind::kRedist: return "redist";
    case DivergenceKind::kDrift: return "drift";
  }
  return "?";
}

RunView run_view(const std::vector<TraceRecord>& records,
                 std::size_t num_tasks) {
  RunView v;
  v.tasks = final_decisions(records, num_tasks);
  for (const PlacementDecision& d : v.tasks)
    if (d.valid()) v.makespan = std::max(v.makespan, d.finish);
  return v;
}

RunDiff diff_runs(const TaskGraph& g, const RunView& a, const RunView& b) {
  const std::size_t n = g.num_tasks();
  if (a.tasks.size() != n || b.tasks.size() != n)
    throw std::invalid_argument(
        "rundiff: trace task count does not match the graph");

  RunDiff out;
  out.makespan_a = a.makespan;
  out.makespan_b = b.makespan;
  out.delta = b.makespan - a.makespan;

  // Classify every task; keep the diverged ones plus an index over them.
  std::vector<std::size_t> index(n, static_cast<std::size_t>(-1));
  for (TaskId t = 0; t < n; ++t) {
    const DivergenceKind k = classify(a.tasks[t], b.tasks[t]);
    if (k == DivergenceKind::kIdentical) continue;
    TaskDiff td;
    td.task = t;
    td.kind = k;
    td.d_start = b.tasks[t].start - a.tasks[t].start;
    td.d_finish = b.tasks[t].finish - a.tasks[t].finish;
    td.d_remote = b.tasks[t].remote_bytes - a.tasks[t].remote_bytes;
    index[t] = out.diverged.size();
    out.diverged.push_back(td);
  }
  if (out.diverged.empty()) return out;

  // Root-cause resolution: width changes are allocator decisions and
  // always roots; any other divergence is induced when an influencer
  // (graph predecessor or previous chart occupant, in either run)
  // diverged, and the blame flows to the influencer with the largest
  // |Δfinish|.
  const std::vector<std::vector<TaskId>> prev_a = previous_occupants(a);
  const std::vector<std::vector<TaskId>> prev_b = previous_occupants(b);
  for (TaskDiff& td : out.diverged) {
    if (td.kind == DivergenceKind::kWidth) {
      td.root = true;
      continue;
    }
    TaskId blame = kNoTask;
    double blame_mag = -1.0;
    auto offer = [&](TaskId u) {
      if (u == td.task || index[u] == static_cast<std::size_t>(-1)) return;
      const double mag = std::fabs(out.diverged[index[u]].d_finish);
      // Deliberate exact tie-break: equal magnitudes fall back to the
      // smaller task id, deterministically.
      if (mag > blame_mag ||
          (mag == blame_mag && u < blame)) {  // LINT-ALLOW(float-eq)
        blame_mag = mag;
        blame = u;
      }
    };
    for (EdgeId e : g.in_edges(td.task)) offer(g.edge(e).src);
    for (TaskId u : prev_a[td.task]) offer(u);
    for (TaskId u : prev_b[td.task]) offer(u);
    if (blame == kNoTask)
      td.root = true;
    else
      td.source = blame;
  }

  // Blame chain of one diverged task: follow sources to a root (a cycle
  // degrades gracefully into "last unvisited link is the root").
  auto chain_of = [&](TaskId start) {
    std::vector<TaskId> chain;
    std::vector<char> visited(n, 0);
    TaskId cur = start;
    while (true) {
      chain.push_back(cur);
      visited[cur] = 1;
      const TaskDiff& td = out.diverged[index[cur]];
      if (td.root || td.source == kNoTask || visited[td.source]) break;
      cur = td.source;
    }
    return chain;
  };

  // The makespan-defining divergence: among the two runs' makespan tasks,
  // the diverged one with the larger |Δfinish| — falling back to the
  // largest diverged |Δfinish| overall when neither diverged.
  TaskId start = kNoTask;
  {
    auto makespan_task = [n](const RunView& v) {
      TaskId best = kNoTask;
      for (TaskId t = 0; t < n; ++t)
        if (v.tasks[t].valid() &&
            (best == kNoTask || v.tasks[t].finish > v.tasks[best].finish))
          best = t;
      return best;
    };
    double best_mag = -1.0;
    for (TaskId tm : {makespan_task(a), makespan_task(b)}) {
      if (tm == kNoTask || index[tm] == static_cast<std::size_t>(-1))
        continue;
      const double mag = std::fabs(out.diverged[index[tm]].d_finish);
      if (mag > best_mag) {
        best_mag = mag;
        start = tm;
      }
    }
    if (start == kNoTask) {
      for (const TaskDiff& td : out.diverged) {
        const double mag = std::fabs(td.d_finish);
        if (mag > best_mag) {
          best_mag = mag;
          start = td.task;
        }
      }
    }
  }

  if (start != kNoTask && std::fabs(out.delta) > 0.0) {
    std::vector<TaskId> chain = chain_of(start);
    const TaskId primary = chain.back();
    Attribution at;
    at.task = primary;
    at.kind = out.diverged[index[primary]].kind;
    at.share = out.delta;
    at.fraction = 1.0;
    at.chain = std::move(chain);
    out.attribution.push_back(std::move(at));
    out.attributed_fraction = 1.0;

    // Context roots: every other blame region, ranked by the largest
    // |Δfinish| it contains.
    std::map<TaskId, double> region_mag;
    for (const TaskDiff& td : out.diverged) {
      const TaskId root = chain_of(td.task).back();
      double& mag = region_mag[root];
      mag = std::max(mag, std::fabs(td.d_finish));
    }
    std::vector<std::pair<double, TaskId>> rest;
    for (const auto& [root, mag] : region_mag)
      if (root != primary) rest.emplace_back(mag, root);
    std::sort(rest.begin(), rest.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    for (const auto& [mag, root] : rest) {
      Attribution ctx;
      ctx.task = root;
      ctx.kind = out.diverged[index[root]].kind;
      ctx.share = 0.0;
      ctx.fraction = 0.0;
      ctx.chain = {root};
      out.attribution.push_back(std::move(ctx));
    }
  }
  return out;
}

void print_diff(std::ostream& os, const TaskGraph& g, const RunView& a,
                const RunView& b, const RunDiff& d) {
  os << "run diff: makespan A=" << fmt(d.makespan_a, 6)
     << " s, B=" << fmt(d.makespan_b, 6) << " s, delta="
     << fmt(d.delta, 6) << " s";
  if (d.makespan_a > 0.0)
    os << " (" << fmt(100.0 * d.delta / d.makespan_a, 2) << "%)";
  os << "\n";
  if (d.diverged.empty()) {
    os << "runs are identical: no diverged placements, zero delta\n";
    return;
  }

  std::map<DivergenceKind, std::size_t> census;
  for (const TaskDiff& td : d.diverged) ++census[td.kind];
  os << "divergences: " << d.diverged.size() << " of " << g.num_tasks()
     << " task(s) (";
  bool first = true;
  for (const auto& [k, cnt] : census) {
    if (!first) os << ", ";
    first = false;
    os << kind_name(k) << " " << cnt;
  }
  os << ")\n";

  if (d.attribution.empty()) {
    os << "no makespan delta to attribute\n";
    return;
  }
  os << "ranked root causes:\n";
  for (std::size_t i = 0; i < d.attribution.size(); ++i) {
    const Attribution& at = d.attribution[i];
    os << "  " << (i + 1) << ". task " << at.task;
    if (at.task < g.num_tasks()) os << " (" << g.task(at.task).name << ")";
    os << " [" << kind_name(at.kind) << "] share=" << fmt(at.share, 6)
       << " s (" << fmt(100.0 * at.fraction, 1) << "% of delta)";
    if (at.chain.size() > 1) {
      os << " chain:";
      for (std::size_t j = 0; j < at.chain.size(); ++j)
        os << (j == 0 ? " " : " <- ") << at.chain[j];
    }
    os << "\n";
    os << "     A: " << decision_brief(a.tasks[at.task]) << "\n";
    os << "     B: " << decision_brief(b.tasks[at.task]) << "\n";
  }
  os << "attributed fraction: " << fmt(100.0 * d.attributed_fraction, 1)
     << "%\n";
}

namespace {

void write_task_side(std::ostream& os, const PlacementDecision& d) {
  os << "{\"np\":" << d.np << ",\"procs\":";
  put_str(os, procs_csv(procs_of(d)));
  os << ",\"start\":";
  put_num(os, d.start);
  os << ",\"finish\":";
  put_num(os, d.finish);
  os << ",\"remote_bytes\":";
  put_num(os, d.remote_bytes);
  if (d.valid()) {
    os << ",\"margin\":";
    put_num(os, d.margin);
    os << ",\"perturbed\":" << (d.perturbed ? "true" : "false")
       << ",\"backfilled\":" << (d.backfilled ? "true" : "false");
  }
  os << "}";
}

}  // namespace

void write_diff_json(std::ostream& os, const TaskGraph& g, const RunView& a,
                     const RunView& b, const RunDiff& d) {
  os << "{\"makespan_a\":";
  put_num(os, d.makespan_a);
  os << ",\"makespan_b\":";
  put_num(os, d.makespan_b);
  os << ",\"delta\":";
  put_num(os, d.delta);
  os << ",\"num_tasks\":" << g.num_tasks();

  std::map<DivergenceKind, std::size_t> census;
  for (const TaskDiff& td : d.diverged) ++census[td.kind];
  os << ",\"kinds\":{";
  bool first = true;
  for (const auto& [k, cnt] : census) {
    if (!first) os << ",";
    first = false;
    put_str(os, kind_name(k));
    os << ":" << cnt;
  }
  os << "}";

  os << ",\"diverged\":[";
  first = true;
  for (const TaskDiff& td : d.diverged) {
    if (!first) os << ",";
    first = false;
    os << "{\"task\":" << td.task << ",\"kind\":";
    put_str(os, kind_name(td.kind));
    os << ",\"d_start\":";
    put_num(os, td.d_start);
    os << ",\"d_finish\":";
    put_num(os, td.d_finish);
    os << ",\"d_remote\":";
    put_num(os, td.d_remote);
    os << ",\"root\":" << (td.root ? "true" : "false") << ",\"source\":";
    if (td.source == kNoTask)
      os << "null";
    else
      os << td.source;
    os << "}";
  }
  os << "]";

  os << ",\"attribution\":[";
  first = true;
  for (const Attribution& at : d.attribution) {
    if (!first) os << ",";
    first = false;
    os << "{\"task\":" << at.task << ",\"name\":";
    put_str(os, at.task < g.num_tasks() ? g.task(at.task).name : "");
    os << ",\"kind\":";
    put_str(os, kind_name(at.kind));
    os << ",\"share\":";
    put_num(os, at.share);
    os << ",\"fraction\":";
    put_num(os, at.fraction);
    os << ",\"chain\":[";
    for (std::size_t j = 0; j < at.chain.size(); ++j) {
      if (j != 0) os << ",";
      os << at.chain[j];
    }
    os << "],\"a\":";
    write_task_side(os, a.tasks[at.task]);
    os << ",\"b\":";
    write_task_side(os, b.tasks[at.task]);
    os << "}";
  }
  os << "]";

  os << ",\"attributed_fraction\":";
  put_num(os, d.attributed_fraction);
  os << "}\n";
}

}  // namespace locmps::obs
